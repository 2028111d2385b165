"""The library names the benchmark in `perfbench/` calls still work.

perfbench imports `heraldsim` directly (`apply_circuit(state,
config.circuit())`, `measurement_rotation(arm, basis).extended(...)`,
`run_experiment(..., aggregate=True)` and more), and its own suite is not
part of this one.  These tests import its harness and run its layer probes
and its herald, sweep and Monte Carlo checks in process; only the Monte
Carlo run writes, under a temporary directory.
"""

import json
import sys
from pathlib import Path

import pytest

from heraldsim import cli, fixture_path
from heraldsim.dsl import parse
from heraldsim.mc import precompute_outcome_tables

from conftest import (BOOSTED_CONFIG, DARK_TRIGGERS_5050, PNR_5050,
                      R_ZERO_5050, fixture_text)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import harness
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    assert harness.checks is checks and harness.tracing is tracing
    return checks, tracing


def test_layer_probes_run(perfbench):
    _, tracing = perfbench
    probes = tracing.layer_probes([fixture_path("paper_5050.exp")],
                                  lambda: 0.0, smoke=True)
    assert probes["cli.import_s"] == 0.0
    assert probes["fock.terms_out"] > 0 and probes["mc.patterns"] == 256


@pytest.mark.parametrize("text", [
    *(pytest.param(fixture_text(name), id=name)
      for name in ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp")),
    pytest.param(PNR_5050, id="pnr")])
def test_herald_report_passes_the_benchmark_check(perfbench, text):
    # the replay takes s1 from `decompose_s1` of a substituted state, an
    # independent route to the trigger classes `herald` reads off its stack
    checks, _ = perfbench
    cfg = parse(text)
    schema = checks.load_schema("herald.schema.json")
    assert checks.check_herald(json.dumps(cli._herald_report(cfg)),
                               checks.herald_reference(cfg), schema) == []


@pytest.mark.parametrize("text", [DARK_TRIGGERS_5050, R_ZERO_5050],
                         ids=["dark_triggers", "R_zero"])
def test_undefined_four_pair_correction_passes_the_benchmark_check(
        perfbench, text):
    checks, _ = perfbench
    cfg = parse(text)
    report = cli._herald_report(cfg)
    assert report["four_pair_correction"] is None
    assert checks.check_herald(json.dumps(report), checks.herald_reference(cfg),
                               checks.load_schema("herald.schema.json")) == []


def test_sweep_passes_the_benchmark_check(perfbench, capsys):
    checks, _ = perfbench
    path = fixture_path("paper_5050.exp")
    assert cli.main(["sweep", str(path), "--r-min", "0.3", "--r-max", "0.9",
                     "--steps", "2"]) == 0
    reference = checks.sweep_reference(
        parse(path.read_text(encoding="utf-8")), 0.3, 0.9, 2)
    assert checks.check_sweep(capsys.readouterr().out, reference) == []


def test_montecarlo_passes_the_benchmark_check(perfbench, tmp_path):
    checks, _ = perfbench
    path = tmp_path / "boosted.exp"
    path.write_text(BOOSTED_CONFIG, encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["montecarlo", str(path), "--out", str(out)]) == 0
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    cfg = parse(BOOSTED_CONFIG)
    schema = checks.load_schema("summary.schema.json")
    assert checks.check_montecarlo(files, cfg, precompute_outcome_tables(cfg),
                                   schema) == []
