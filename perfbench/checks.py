"""Checks of CLI outputs against in-process replays through the public API.

Every checker returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import jsonschema
from scipy.stats import binom, norm

from heraldsim import schema_path
from heraldsim.analysis import eff_theory, four_pair_correction
from heraldsim.config import BsDecl, ExperimentConfig
from heraldsim.detect import decompose_s1, herald
from heraldsim.elements import apply_circuit
from heraldsim.source import n_pair_state

HERALD_REL_TOL = 1e-12
# sweep prints 9 significant digits, so a row carries up to 5e-9 rounding
SWEEP_REL_TOL = 1e-8
# one-sided tail of a 5 sigma normal deviation, used as a binomial tail
# bound so the count check stays exact when expected counts are small
FIVE_SIGMA_TAIL = float(norm.sf(5.0))


def load_schema(name: str) -> dict:
    with open(schema_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _schema_errors(document, schema: dict, what: str) -> list[str]:
    validator = jsonschema.Draft202012Validator(schema)
    return [f"{what}: schema: {e.message}"
            for e in validator.iter_errors(document)]


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- herald -----------------------------------------------------------------

def herald_reference(config: ExperimentConfig) -> dict:
    """The `herald --json` report recomputed in-process."""
    R = config.beam_splitter_R()
    eta_t = config.mean_trigger_eta()
    arms = config.output_arms()[:2]
    triggers = config.trigger_detectors()
    state = apply_circuit(n_pair_state(3), config.circuit())
    result = herald(state, triggers, output_arms=arms)
    s1 = decompose_s1(state, trigger_modes=tuple(d.mode for d in triggers),
                      output_arms=arms)
    return {
        "config_digest": config.digest(),
        "R": R,
        "eta_t": eta_t,
        "herald_probability": result.herald_probability,
        "preparation_efficiency": (result.preparation_efficiency
                                   if result.heralded else None),
        "heralded": result.heralded,
        "eff_theory": eff_theory(R, eta_t),
        "four_pair_correction": (four_pair_correction(config.source, R, eta_t)
                                 if config.source.n_max >= 4 else None),
        "s1": {"alpha_sq": s1.alpha_sq, "beta_sq": s1.beta_sq,
               "gamma_sq": s1.gamma_sq},
    }


def _compare(path: str, got, want, errors: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                          f" != {sorted(want)}")
            return
        for key in want:
            _compare(f"{path}.{key}", got[key], want[key], errors)
    elif isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if not _rel_close(float(got), want, HERALD_REL_TOL):
            errors.append(f"{path}: {got!r} != replay {want!r}")
    elif got != want:
        errors.append(f"{path}: {got!r} != replay {want!r}")


def check_herald(stdout: str, reference: dict, schema: dict) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"herald: output is not JSON: {exc}"]
    errors = _schema_errors(report, schema, "herald")
    _compare("herald", report, reference, errors)
    s1 = report.get("s1")
    if isinstance(s1, dict) and all(isinstance(s1.get(k), (int, float))
                                    for k in ("alpha_sq", "beta_sq", "gamma_sq")):
        total = s1["alpha_sq"] + s1["beta_sq"] + s1["gamma_sq"]
        if abs(total - 1.0) > 1e-12:
            errors.append(f"herald: alpha^2+beta^2+gamma^2 = {total!r} != 1")
    return errors


# --- sweep ------------------------------------------------------------------

SWEEP_HEADER = ["R", "eff_theory", "eff_exact_enumerated",
                "four_pair_corrected"]


def sweep_reference(config: ExperimentConfig, r_min: float, r_max: float,
                    steps: int) -> list[tuple[float, float, float, float]]:
    """Sweep rows replayed with the config's own circuit, R overridden."""
    eta_t = config.mean_trigger_eta()
    triggers = config.trigger_detectors()
    arms = config.output_arms()[:2]
    rows = []
    for i in range(steps):
        R = r_min + (r_max - r_min) * i / (steps - 1)
        swept = dataclasses.replace(config, elements=tuple(
            dataclasses.replace(e, R=R) if isinstance(e, BsDecl) else e
            for e in config.elements))
        state = apply_circuit(n_pair_state(3), swept.circuit())
        result = herald(state, triggers, output_arms=arms)
        exact = result.preparation_efficiency if result.heralded else 0.0
        corrected = exact
        if config.source.n_max >= 4 and R > 0.0:
            corrected = exact * (1.0 + four_pair_correction(config.source,
                                                            R, eta_t))
        rows.append((R, eff_theory(R, eta_t), exact, corrected))
    return rows


def check_sweep(stdout: str, reference: list[tuple[float, ...]]) -> list[str]:
    lines = list(csv.reader(io.StringIO(stdout)))
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep: header {lines[0] if lines else None!r} != {SWEEP_HEADER}"]
    rows = lines[1:]
    if len(rows) != len(reference):
        return [f"sweep: {len(rows)} rows, replay has {len(reference)}"]
    errors = []
    for i, (row, want) in enumerate(zip(rows, reference)):
        try:
            got = [float(x) for x in row]
        except ValueError:
            errors.append(f"sweep row {i}: not numeric: {row!r}")
            continue
        if len(got) != len(want):
            errors.append(f"sweep row {i}: {len(got)} columns")
            continue
        for name, g, w in zip(SWEEP_HEADER, got, want):
            if not (_rel_close(g, w, SWEEP_REL_TOL) or g == w):
                errors.append(f"sweep row {i} {name}: {g!r} != replay {w!r}")
    return errors


# --- montecarlo ---------------------------------------------------------------

def counts_name(basis) -> str:
    return f"counts_{basis[0]}_{basis[1]}.csv"


def _count_within_five_sigma(observed: int, trials: int, p: float) -> bool:
    """Binomial two-sided tail test at the 5 sigma normal tail probability."""
    return (binom.cdf(observed, trials, p) > FIVE_SIGMA_TAIL
            and binom.sf(observed - 1, trials, p) > FIVE_SIGMA_TAIL)


def check_montecarlo(files: dict[str, bytes], config: ExperimentConfig,
                     tables, schema: dict) -> list[str]:
    """summary.json against the schema, the config and the exact tables;
    each counts CSV against summary.json."""
    try:
        summary = json.loads(files["summary.json"])
    except (KeyError, json.JSONDecodeError) as exc:
        return [f"montecarlo: no readable summary.json: {exc!r}"]
    errors = _schema_errors(summary, schema, "summary.json")
    if errors:
        return errors
    for key, want in (("config_digest", config.digest()),
                      ("seed", config.seed),
                      ("pulses_per_basis", config.pulses)):
        if summary[key] != want:
            errors.append(f"summary.json {key}: {summary[key]!r} != {want!r}")
    records = summary["records"]
    if len(records) != len(tables):
        return errors + [f"summary.json: {len(records)} records for "
                         f"{len(tables)} bases"]
    for record, table in zip(records, tables):
        basis = tuple(record["basis"])
        where = f"basis {basis[0]}/{basis[1]}"
        if basis != tuple(table.basis):
            errors.append(f"{where}: expected basis {table.basis}")
            continue
        pulses, n_t, n_s = record["pulses"], record["n_t"], record["n_s"]
        if pulses != config.pulses:
            errors.append(f"{where}: pulses {pulses} != {config.pulses}")
        if n_s != sum(record["outcomes"].values()):
            errors.append(f"{where}: n_s {n_s} != sum of outcomes")
        if not n_s <= n_t <= pulses:
            errors.append(f"{where}: counts out of order n_s={n_s} n_t={n_t}")
        for name, observed, p in (
                ("n_t", n_t, table.trigger_probability_per_pulse()),
                ("n_s", n_s, table.sixfold_probability_per_pulse())):
            if not _count_within_five_sigma(observed, config.pulses, p):
                errors.append(f"{where}: {name}={observed} outside 5 sigma of "
                              f"{config.pulses * p:.6g}")
        errors.extend(_check_counts_csv(files.get(counts_name(basis)),
                                        record, where))
    return errors


def _check_counts_csv(data: bytes | None, record: dict, where: str) -> list[str]:
    if data is None:
        return [f"{where}: counts file missing"]
    rows = list(csv.reader(io.StringIO(data.decode())))
    want = dict(record["outcomes"], n_t=record["n_t"], n_s=record["n_s"])
    try:
        got = {label: int(count) for label, count in rows[1:]}
    except ValueError:
        got = None
    if not rows or rows[0] != ["outcome", "count"] or got != want \
            or len(rows) != len(want) + 1:
        return [f"{where}: counts file {rows!r} disagrees with summary.json"]
    return []


def check_identical(first: dict[str, bytes], other: dict[str, bytes],
                    what: str) -> list[str]:
    """Outputs of the same invocation on the same inputs must match byte for
    byte (Monte Carlo output is a function of the seed)."""
    names = sorted(set(first) | set(other))
    return [f"{what}: {name} differs from the first pass"
            for name in names if first.get(name) != other.get(name)]

