"""Command-line front end: herald report, efficiency sweep, Monte Carlo runs.

Every command builds its source branches with `source.pair_power_states`
from the pair operators taken through the composed circuit; none
substitutes a state, and each reads only the config's own layout.
`herald` builds the three-pair sector through the config's circuit at its
declared ratios, `sweep` once at R = 1/2 as a curve in R
(`analysis.herald_curves`).  At nmax >= 4 both build the four-pair
correction's two sectors on the config's circuit, trigger modes and output
arms (`analysis.four_pair_sectors`).  `sweep` builds all of them before
it writes the header; each row evaluates them at its R, the correction by
`analysis.four_pair_shift`.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  A runtime
error names its stage, `runtime error in <stage>: ...`: `herald` or
`four_pair_correction` of a herald report, `sweep curve` (the build) or
`row R=<R>` of a sweep, or a Monte Carlo run's `tables`, `sample` or
`write`.

This module imports only the numpy-free `config`, `dsl` and `elements`;
each command loads its config before it imports the engine it runs, and
only `montecarlo` loads `mc`.  `main` first defaults OPENBLAS_NUM_THREADS
to 1: no BLAS call here needs a second thread, and an idle one spins.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import COUNT_END, COUNT_LOW, ExperimentConfig
from .dsl import four_pair_warnings, parse, splitter_warnings, validate
from .elements import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "HERALDSIM_OUT"
MIN_SIXFOLDS = 10  # fewer expected in a basis draw a warning


class StageError(Exception):
    """A runtime failure, named by the stage it came from."""


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a runtime failure inside the block as a StageError naming
    `name`; configuration errors pass unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(f"runtime error in {name}: {exc}") from exc


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    config = parse(text)
    diagnostics = validate(config)
    errors = [d for d in diagnostics if d.startswith("error")]
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if errors:
        raise ConfigError(f"{path}: configuration invalid (fix the "
                          "diagnostics above)")
    return config


def _herald_report(config: ExperimentConfig) -> dict:
    from . import analysis, detect, source
    R = config.beam_splitter_R()
    eta_t = config.mean_trigger_eta()
    with _stage("herald"):
        # the three-pair state after the config's circuit, at its own R
        [state] = source.pair_power_states([(3, 0)], config.circuit())
        result = detect.herald(state, config.trigger_detectors(),
                               output_arms=config.output_arms())
        trigger_modes = tuple(d.mode for d in config.trigger_detectors())
        decomp = detect.decompose_s1(state, trigger_modes=trigger_modes,
                                     output_arms=config.output_arms())
    with _stage("four_pair_correction"):
        correction = (analysis.four_pair_shift(
            config.source, analysis.four_pair_sectors(config, eta_t), R)
            if config.source.n_max >= 4 else None)
    return {
        "config_digest": config.digest(),
        "R": R,
        "eta_t": eta_t,
        "herald_probability": result.herald_probability,
        "preparation_efficiency": (result.preparation_efficiency
                                   if result.heralded else None),
        "heralded": result.heralded,
        "eff_theory": analysis.eff_theory(R, eta_t),
        "four_pair_correction": correction,
        "s1": {"alpha_sq": decomp.alpha_sq, "beta_sq": decomp.beta_sq,
               "gamma_sq": decomp.gamma_sq},
    }


def cmd_herald(args) -> int:
    config = _load_config(args.config)
    for warning in splitter_warnings(config) + four_pair_warnings(config):
        print(warning, file=sys.stderr)
    report = _herald_report(config)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
        return EXIT_OK
    print(f"R = {report['R']:.6g}   eta_t = {report['eta_t']:.6g}")
    print(f"herald probability (three-pair sector): "
          f"{report['herald_probability']:.6g}")
    if report["heralded"]:
        print(f"preparation efficiency (enumerated): "
              f"{report['preparation_efficiency']:.6g}")
    else:
        print("preparation efficiency: undefined (herald probability 0)")
    print(f"eff_theory: {report['eff_theory']:.6g}")
    if report["four_pair_correction"] is not None:
        print(f"four-pair relative correction: "
              f"{report['four_pair_correction']:+.4%}")
    s1 = report["s1"]
    print(f"trigger-class weights: alpha^2={s1['alpha_sq']:.6g} "
          f"beta^2={s1['beta_sq']:.6g} gamma^2={s1['gamma_sq']:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if args.steps < 2:
        raise ConfigError(f"--steps {args.steps} must be >= 2")
    for flag, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{flag} {value} outside [0, 1]")
    for warning in four_pair_warnings(config):
        print(warning, file=sys.stderr)
    from . import analysis
    eta_t = config.mean_trigger_eta()
    with _stage("sweep curve"):
        # every splitter of the config swept together; each row only
        # evaluates the curves held here
        [curve] = analysis.herald_curves(
            [(3, 0)], config.transforms, config.trigger_detectors(),
            config.output_arms())
        sectors = (analysis.four_pair_sectors(config, eta_t)
                   if config.source.n_max >= 4 else None)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["R", "eff_theory", "eff_exact_enumerated",
                     "four_pair_corrected"])
    for i in range(args.steps):
        R = args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
        with _stage(f"row R={R:.9g}"):
            result = curve.at(R)
            exact = result.preparation_efficiency if result.heralded else 0.0
            if sectors and R > 0.0:
                shift = analysis.four_pair_shift(config.source, sectors, R)
                corrected = exact * (1.0 + shift)
            else:
                corrected = exact
        writer.writerow([f"{R:.9g}", f"{analysis.eff_theory(R, eta_t):.9g}",
                         f"{exact:.9g}", f"{corrected:.9g}"])
    return EXIT_OK


def _summary_payload(config: ExperimentConfig, result) -> dict:
    from . import analysis
    payload = {
        "config_digest": config.digest(),
        "seed": config.seed,
        "pulses_per_basis": config.pulses,
        "records": [dataclasses.asdict(r) for r in result.records],
        "eff_exp": None,
        "fidelity": None,
        "chsh": None,
    }
    if result.efficiency is not None:
        payload["eff_exp"] = dataclasses.asdict(result.efficiency)
    if result.fidelity is not None:
        payload["fidelity"] = dataclasses.asdict(result.fidelity)
        violated, n_sigma = analysis.violates_chsh(result.fidelity)
        payload["chsh"] = {"threshold": analysis.chsh_werner_threshold(),
                           "violates": violated,
                           "n_sigmas": (n_sigma if math.isfinite(n_sigma)
                                        else None)}
    return payload


def _expected_vs_observed(tables, records) -> dict:
    """Per basis: n_t, n_s and each outcome count, the exact expectation
    pulses * q[mask].sum() next to the observed count, with its z-score."""
    from . import mc
    report = {}
    for t, r in zip(tables, records):
        observed = {"n_t": r.n_t, "n_s": r.n_s, **r.outcomes}
        rows = report["_".join(t.basis)] = {}
        for name, p in mc.pattern_sums(t, t.pattern_probs).items():
            mean, sigma = r.pulses * p, math.sqrt(r.pulses * p * (1.0 - p))
            rows[name] = {"expected": mean, "observed": observed[name],
                          "z": ((observed[name] - mean) / sigma
                                if sigma > 0.0 else None)}
    return report


def _write_outputs(out_dir: Path, config: ExperimentConfig, result
                   ) -> tuple[list[str], str]:
    """Write each basis's count CSV and summary.json; returns the file names
    and the summary text."""
    outputs = []
    for record in result.records:
        name = f"counts_{record.basis[0]}_{record.basis[1]}.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["outcome", "count"])
        writer.writerows(sorted(record.outcomes.items()))
        writer.writerow(["n_t", record.n_t])
        writer.writerow(["n_s", record.n_s])
        (out_dir / name).write_text(buf.getvalue())
        outputs.append(name)

    summary = _summary_payload(config, result)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out_dir / "summary.json").write_text(summary_text)
    outputs.append("summary.json")
    return outputs, summary_text


def cmd_montecarlo(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads {args.threads} must be >= 1")
    for name, low in COUNT_LOW.items():
        value = getattr(args, name)
        if value is not None and not low <= value < COUNT_END:
            raise ConfigError(f"--{name} {value} outside [{low}, 2^63)")
    t_load = time.perf_counter()
    config = _load_config(args.config)
    load_s = time.perf_counter() - t_load
    if args.pulses is not None:
        config = dataclasses.replace(config, pulses=args.pulses)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(f"running {len(config.bases) or 1} basis settings, "
          f"{config.pulses} pulses each", file=sys.stderr)
    t_import = time.perf_counter()
    import numpy as np
    from . import fock, mc
    t0 = time.perf_counter()
    with _stage("tables"):
        try:
            tables = mc.precompute_outcome_tables(config)
        except fock.TruncationError as exc:
            raise ConfigError(f"source nmax={config.source.n_max} is too "
                              f"large for the click tables: {exc}") from exc
    t1 = time.perf_counter()
    p, name = min((t.sixfold_probability_per_pulse(), "_".join(t.basis))
                  for t in tables)
    if config.pulses * p < MIN_SIXFOLDS:
        need = (f"pulses {math.ceil(MIN_SIXFOLDS / p)}" if p
                else "no pulse count")
        print(f"warning: basis {name} expects {config.pulses * p:.3g} "
              f"six-folds at pulses {config.pulses}, too few for estimates; "
              f"{need} would give {MIN_SIXFOLDS}", file=sys.stderr)
    with _stage("sample"):
        result = mc.run_experiment(config, tables=tables)
    t2 = time.perf_counter()

    with _stage("write"):
        # made only now: a config the tables reject leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, summary_text = _write_outputs(out_dir, config, result)
        t3 = time.perf_counter()
        manifest = {
            "command": " ".join(sys.argv),
            "config_digest": config.digest(),
            "seed": config.seed,
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "outputs": outputs,
            "started": started,
            "finished": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "stages": {"load_s": load_s, "import_s": t0 - t_import,
                       "tables_s": t1 - t0, "sample_s": t2 - t1,
                       "write_s": t3 - t2},
            "tables": {"branches": len(tables[0].branch_weights),
                       "patterns": len(tables[0].is_trigger),
                       "fock_terms": {"_".join(t.basis): t.fock_terms
                                      for t in tables},
                       "truncated_weight": tables[0].truncated_weight},
            "expected": _expected_vs_observed(tables, result.records),
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")
    if args.json:
        sys.stdout.write(summary_text)
    else:
        print(f"wrote {', '.join(outputs)} and manifest.json to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Heralded entanglement source simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_herald = sub.add_parser("herald", help="exact herald analysis of a config")
    p_herald.add_argument("config")
    p_herald.add_argument("--json", action="store_true")
    p_herald.set_defaults(func=cmd_herald)

    p_sweep = sub.add_parser("sweep", help="efficiency sweep over R (CSV)")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--r-min", type=float, default=0.3)
    p_sweep.add_argument("--r-max", type=float, default=0.9)
    p_sweep.add_argument("--steps", type=int, default=13)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("montecarlo", help="pulse-level Monte Carlo run")
    p_mc.add_argument("config")
    p_mc.add_argument("--pulses", type=int)
    p_mc.add_argument("--seed", type=int)
    p_mc.add_argument("--threads", type=int, default=1,
                      help="no effect (each basis is one multinomial draw); "
                      "kept because perfbench passes it; must be >= 1")
    p_mc.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_mc.add_argument("--json", action="store_true")
    p_mc.add_argument("--aggregate", action="store_true",
                      help="no effect (every run draws each basis's "
                      "histogram as one multinomial); kept because "
                      "perfbench passes it")
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure, not a config problem
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
