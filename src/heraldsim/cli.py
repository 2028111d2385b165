"""Command-line front end: herald report, efficiency sweep, Monte Carlo runs.

Every command builds its source branches with `source.pair_power_states`
through the config's own composed circuit; none substitutes a state.
`herald` evaluates the stack of curves `analysis.herald_curves` builds of
`analysis.exact_sectors` once, at the declared splitter ratios, and `sweep`
once per row, each row written before the next is evaluated (10-16 us per
row in process on a 2-vCPU host, an in-memory write included), each curve
as its (qubit, non-qubit) weights.  `herald` stacks one more curve, the
three-pair sector on ideal triggers, whose weights are alpha^2 and beta^2.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  A runtime
error names its stage, `runtime error in <stage>: ...`: `herald curve`
(the stack and its evaluation) of a herald report, `sweep curve` (the
stack) or `row R=<R>` of a sweep, or a Monte Carlo run's `load`, `import`,
`tables`, `sample` or `write` (timed stages).

This module imports only the numpy-free `config`, `dsl` and `elements`
and the standard library every command uses; each command loads its
config before it imports the engine it runs.  `herald` and `sweep` run on
`analysis`, `detect`, `source` and `fock`, which import no numpy; only
`montecarlo` loads `mc`, and with it numpy.  Of the rest of the standard
library, `sweep` loads none, `herald` `hashlib` (the config digest) and,
with `--json`, `json`, and `montecarlo` those and `datetime`; the count
CSVs are written one f-string line each, without `csv`.
For that command `main` first defaults OPENBLAS_NUM_THREADS to 1 (no BLAS
call here needs a second thread, and an idle one spins), and `run`, the
exit of the `heraldsim` script and `python -m heraldsim.cli`, freezes the
garbage collector once `main` returns, so the interpreter's final
collections skip the objects numpy leaves; `main` does not, because a
caller may run it many times in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import (COUNT_END, COUNT_LOW, BsDecl, ExperimentConfig,
                     pair_probability, threshold_detector)
from .dsl import (four_pair_warnings, parse, splitter_warnings,
                  table_memory_warnings, validate)
from .elements import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "HERALDSIM_OUT"
MIN_SIXFOLDS = 10  # fewer expected in a basis draw a warning


class StageError(Exception):
    """A runtime failure, named by the stage it came from."""


@contextlib.contextmanager
def _stage(name: str, times: dict[str, float] | None = None):
    """Re-raise a block's runtime failure as a StageError naming `name` (a
    ConfigError passes); with `times`, store its wall time as `<name>_s`."""
    start = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(f"runtime error in {name}: {exc}") from exc
    if times is not None:
        times[f"{name}_s"] = time.perf_counter() - start


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    config = parse(text)
    diagnostics = validate(config)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if any(d.startswith("error") for d in diagnostics):
        raise ConfigError(f"{path}: configuration invalid (fix the "
                          "diagnostics above)")
    return config


def _herald_report(config: ExperimentConfig) -> dict:
    from . import analysis
    R = config.beam_splitter_R()
    eta_t = config.mean_trigger_eta()
    with _stage("herald curve"):
        # last, the trigger classes: the three-pair sector on ideal triggers
        ideal = [threshold_detector(d.id, d.mode)
                 for d in config.trigger_detectors()]
        stack = analysis.herald_curves(
            [*analysis.exact_sectors(config), ((3, 0), ideal)],
            config.transforms, config.output_arms())
        # every splitter at its declared ratio, in propagation order
        (qubit, other), *sectors, (alpha_sq, beta_sq) = stack.at(
            *(d.R for d in config.elements if isinstance(d, BsDecl)))
        weights = tuple(pair_probability(n, config.source.r) for n in (3, 4))
        correction = (analysis.four_pair_shift(weights, *sectors)
                      if sectors else None)
    herald_p = qubit + other
    return {
        "config_digest": config.digest(),
        "R": R,
        "eta_t": eta_t,
        "herald_probability": herald_p,
        "preparation_efficiency": qubit / herald_p if herald_p > 0.0 else None,
        "heralded": herald_p > 0.0,
        "eff_theory": analysis.eff_theory(R, eta_t),
        "four_pair_correction": correction,
        "s1": {"alpha_sq": alpha_sq, "beta_sq": beta_sq,
               "gamma_sq": 1.0 - (alpha_sq + beta_sq)},
    }


def cmd_herald(args) -> int:
    config = _load_config(args.config)
    for warning in splitter_warnings(config) + four_pair_warnings(config):
        print(warning, file=sys.stderr)
    report = _herald_report(config)
    if args.json:
        import json
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
    if config.source.n_max >= 4:
        shift = report["four_pair_correction"]
        print("four-pair relative correction: "
              + ("undefined" if shift is None else f"{shift:+.4%}"))
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
        # every splitter of the config swept together: each row is one
        # product over the stack's monomials
        stack = analysis.herald_curves(analysis.exact_sectors(config),
                                       config.transforms, config.output_arms())
        weights = tuple(pair_probability(n, config.source.r) for n in (3, 4))
    sys.stdout.write("R,eff_theory,eff_exact_enumerated,four_pair_corrected\n")
    for i in range(args.steps):
        R = args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
        try:  # `_stage` of the row, without a context manager per row
            [(qubit, other), *sectors] = stack.at(R)
            shift = (analysis.four_pair_shift(weights, *sectors)
                     if sectors and R > 0.0 else None)
        except ConfigError:
            raise
        except Exception as exc:
            raise StageError(f"runtime error in row R={R:.9g}: {exc}") from exc
        exact = qubit / (qubit + other) if qubit + other > 0.0 else None
        effs = ("," if exact is None
                else f"{exact:.9g},{exact * (1.0 + (shift or 0.0)):.9g}")
        sys.stdout.write(f"{R:.9g},{analysis.eff_theory(R, eta_t):.9g},"
                         f"{effs}\n")
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
        payload["eff_exp"] = result.efficiency._asdict()
    if result.fidelity is not None:
        payload["fidelity"] = result.fidelity._asdict()
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
    import json
    outputs = []
    for record in result.records:
        name = f"counts_{record.basis[0]}_{record.basis[1]}.csv"
        # no field needs quoting: outcome labels are letters and + or -
        rows = [("outcome", "count"), *sorted(record.outcomes.items()),
                ("n_t", record.n_t), ("n_s", record.n_s)]
        (out_dir / name).write_text("".join(f"{k},{v}\n" for k, v in rows))
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
    times: dict[str, float] = {}  # the manifest's stages, in run order
    with _stage("load", times):
        config = _load_config(args.config)
    config = dataclasses.replace(config, **{
        name: getattr(args, name) for name in COUNT_LOW
        if getattr(args, name) is not None})
    if config.mean_output_eta() == 0.0:  # eff_exp divides by it
        raise ConfigError(f"{args.config}: output detectors " + ", ".join(
            f"{d.id} eta={d.eta:g}" for d in config.output_detectors())
            + " have mean eta 0, so no Monte Carlo efficiency is defined")
    for warning in table_memory_warnings(config):  # before numpy loads
        print(warning, file=sys.stderr)
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))

    import datetime
    import json
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(f"running {len(config.bases) or 1} basis settings, "
          f"{config.pulses} pulses each", file=sys.stderr)
    with _stage("import", times):
        import numpy as np
        from . import analysis, fock, mc
    with _stage("tables", times):
        try:
            tables = mc.precompute_outcome_tables(config)
        except fock.TruncationError as exc:
            raise ConfigError(f"source nmax={config.source.n_max} is too "
                              f"large for the click tables: {exc}") from exc
    p, name = min((t.sixfold_probability_per_pulse(), "_".join(t.basis))
                  for t in tables)
    if config.pulses * p < MIN_SIXFOLDS:
        count = MIN_SIXFOLDS / p if p else math.inf
        need = (f"pulses {math.ceil(count)}" if count < COUNT_END
                else "no pulse count below 2^63")
        print(f"warning: basis {name} expects {config.pulses * p:.3g} "
              f"six-folds at pulses {config.pulses}, too few for estimates; "
              f"{need} would give {MIN_SIXFOLDS}", file=sys.stderr)
    with _stage("sample", times):
        result = mc.run_experiment(config, tables=tables)

    with _stage("write", times):
        # made only now: a config the tables reject leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, summary_text = _write_outputs(out_dir, config, result)
    with _stage("write"):
        n_s = sum(r.n_s for r in result.records)
        n_t = sum(r.n_t for r in result.records)
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
            "stages": times,
            "tables": {"branches": len(tables[0].branch_weights),
                       "patterns": len(tables[0].is_trigger),
                       "fock_terms": {"_".join(t.basis): t.fock_terms
                                      for t in tables},
                       "truncated_weight": tables[0].truncated_weight},
            "expected": _expected_vs_observed(tables, result.records),
            # summary.json's eff_exp sigma treats n_s and n_t as independent
            "eff_exp_binomial_sigma": None if result.efficiency is None
            else analysis.eff_exp_binomial_sigma(result.efficiency.value,
                                                 n_s, n_t),
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


def run() -> int:
    """`main` for a process that exits once it returns."""
    code = main()
    # numpy, once `montecarlo` loads it, leaves ~23k tracked objects;
    # frozen, the interpreter's final collections skip them
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
