"""Command-line front end: herald report, efficiency sweep, Monte Carlo runs.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
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

import numpy as np

from . import __version__
from .analysis import (chsh_werner_threshold, eff_theory, four_pair_correction,
                       violates_chsh)
from .config import COUNT_END, COUNT_LOW, BsDecl, ExperimentConfig
from .detect import HeraldResult, decompose_s1, herald
from .dsl import DslError, parse, validate
from .elements import apply_circuit
from .fock import ConfigError, PureState
from .mc import pattern_sums, precompute_outcome_tables, run_experiment
from .source import n_pair_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "HERALDSIM_OUT"


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DslError(f"cannot read {path}: {exc}", 0, 0)
    config = parse(text)
    diagnostics = validate(config)
    errors = [d for d in diagnostics if d.startswith("error")]
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if errors:
        raise DslError(f"{path}: configuration invalid", 0, 0,
                       "fix the diagnostics above")
    return config


def _three_pair_herald(config: ExperimentConfig
                       ) -> tuple[PureState, HeraldResult]:
    """The three-pair state after the config's circuit, and its herald on
    the config's triggers."""
    state = apply_circuit(n_pair_state(3), config.circuit())
    return state, herald(state, config.trigger_detectors(),
                         output_arms=config.output_arms()[:2])


def _herald_report(config: ExperimentConfig) -> dict:
    R = config.beam_splitter_R()
    eta_t = config.mean_trigger_eta()
    state, result = _three_pair_herald(config)
    trigger_modes = tuple(d.mode for d in config.trigger_detectors())
    decomp = decompose_s1(state, trigger_modes=trigger_modes,
                          output_arms=config.output_arms()[:2])
    params_four = config.source
    correction = (four_pair_correction(params_four, R, eta_t)
                  if params_four.n_max >= 4 else None)
    return {
        "config_digest": config.digest(),
        "R": R,
        "eta_t": eta_t,
        "herald_probability": result.herald_probability,
        "preparation_efficiency": (result.preparation_efficiency
                                   if result.heralded else None),
        "heralded": result.heralded,
        "eff_theory": eff_theory(R, eta_t),
        "four_pair_correction": correction,
        "s1": {"alpha_sq": decomp.alpha_sq, "beta_sq": decomp.beta_sq,
               "gamma_sq": decomp.gamma_sq},
    }


def cmd_herald(args) -> int:
    config = _load_config(args.config)
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
        raise DslError(f"steps={args.steps} must be >= 2", 0, 0)
    for flag, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{flag} {value} outside [0, 1]")
    eta_t = config.mean_trigger_eta()
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["R", "eff_theory", "eff_exact_enumerated",
                     "four_pair_corrected"])
    for i in range(args.steps):
        R = args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
        swept = dataclasses.replace(config, elements=tuple(
            dataclasses.replace(e, R=R) if isinstance(e, BsDecl) else e
            for e in config.elements))
        _, result = _three_pair_herald(swept)
        exact = result.preparation_efficiency if result.heralded else 0.0
        if config.source.n_max >= 4 and R > 0.0:
            shift = four_pair_correction(config.source, R, eta_t)
            corrected = exact * (1.0 + shift)
        else:
            corrected = exact
        writer.writerow([f"{R:.9g}", f"{eff_theory(R, eta_t):.9g}",
                         f"{exact:.9g}", f"{corrected:.9g}"])
    return EXIT_OK


def _summary_payload(config: ExperimentConfig, result) -> dict:
    payload = {
        "config_digest": config.digest(),
        "seed": result.seed,
        "pulses_per_basis": result.pulses_per_basis,
        "records": [
            {"basis": list(r.basis), "pulses": r.pulses, "n_t": r.n_t,
             "n_s": r.n_s,
             "outcomes": {f"{a}{b}": c for (a, b), c in sorted(r.outcomes.items())}}
            for r in result.records
        ],
        "eff_exp": None,
        "fidelity": None,
        "chsh": None,
    }
    if result.efficiency is not None:
        payload["eff_exp"] = {"value": result.efficiency.value,
                              "sigma": result.efficiency.sigma}
    if result.fidelity is not None:
        payload["fidelity"] = {"value": result.fidelity.value,
                               "sigma": result.fidelity.sigma}
        violated, n_sigma = violates_chsh(result.fidelity)
        payload["chsh"] = {"threshold": chsh_werner_threshold(),
                           "violates": violated,
                           "n_sigmas": (n_sigma if n_sigma not in
                                        (float("inf"), float("-inf"))
                                        else None)}
    return payload


def _expected_vs_observed(tables, records) -> dict:
    """Per basis: n_t, n_s and each outcome count, the exact expectation
    pulses * q[mask].sum() next to the observed count, with its z-score."""
    report = {}
    for t, r in zip(tables, records):
        observed = {"n_t": r.n_t, "n_s": r.n_s,
                    **{a + b: c for (a, b), c in r.outcomes.items()}}
        rows = report["_".join(t.basis)] = {}
        for name, p in pattern_sums(t, t.pattern_probs).items():
            mean, sigma = r.pulses * p, math.sqrt(r.pulses * p * (1.0 - p))
            rows[name] = {"expected": mean, "observed": observed[name],
                          "z": ((observed[name] - mean) / sigma
                                if sigma > 0.0 else None)}
    return report


def cmd_montecarlo(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads {args.threads} must be >= 1")
    for name, low in COUNT_LOW.items():
        value = getattr(args, name)
        if value is not None and not low <= value < COUNT_END:
            raise ConfigError(f"--{name} {value} outside [{low}, 2^63)")
    config = _load_config(args.config)
    if args.pulses is not None:
        config = dataclasses.replace(config, pulses=args.pulses)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(f"running {len(config.bases) or 1} basis settings, "
          f"{config.pulses} pulses each", file=sys.stderr)
    t0 = time.perf_counter()
    tables = precompute_outcome_tables(config)
    t1 = time.perf_counter()
    result = run_experiment(config, tables=tables)
    t2 = time.perf_counter()

    outputs = []
    for record in result.records:
        name = f"counts_{record.basis[0]}_{record.basis[1]}.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["outcome", "count"])
        for (a, b), c in sorted(record.outcomes.items()):
            writer.writerow([f"{a}{b}", c])
        writer.writerow(["n_t", record.n_t])
        writer.writerow(["n_s", record.n_s])
        (out_dir / name).write_text(buf.getvalue())
        outputs.append(name)

    summary = _summary_payload(config, result)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out_dir / "summary.json").write_text(summary_text)
    outputs.append("summary.json")
    t3 = time.perf_counter()

    manifest = {
        "command": " ".join(sys.argv),
        "config_digest": config.digest(),
        "seed": config.seed,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "outputs": outputs,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "stages": {"tables_s": t1 - t0, "sample_s": t2 - t1, "write_s": t3 - t2},
        "tables": {"branches": len(tables[0].branch_weights),
                   "patterns": len(tables[0].is_trigger),
                   "fock_terms": {"_".join(t.basis): t.fock_terms
                                  for t in tables}},
        "expected": _expected_vs_observed(tables, result.records),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure, not a config problem
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
