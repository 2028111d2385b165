"""Self-checks of the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest perfbench -q

Runs the smoke mode (tiny pulse counts, a 2-step sweep) end to end, and
confirms that each output checker rejects a deliberately corrupted output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from heraldsim.dsl import parse, validate  # noqa: E402
from heraldsim.mc import precompute_outcome_tables  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert_metrics(last_json(proc.stdout), SPEC["end_to_end"])


def test_smoke_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "mc_aggregate", "--seed", "5",
                     "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert_metrics(last_json(proc.stdout), SPEC["per_layer"])
    assert "overhead" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_are_seeded_and_validate(tmp_path):
    first = inputs.write_inputs("exact", 3, tmp_path / "a")
    again = inputs.write_inputs("exact", 3, tmp_path / "b")
    other = inputs.write_inputs("exact", 4, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    for path in first + other:
        assert validate(parse(path.read_text(encoding="utf-8"))) == []
    assert "kind=pnr" in first[2].read_text(encoding="utf-8")


# --- each checker rejects a corrupted output -----------------------------------

@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("exact")
    paths = inputs.write_inputs("exact", 7, work / "inputs", smoke=True)
    configs = [parse(p.read_text(encoding="utf-8")) for p in paths]
    calls = harness.workload_calls("exact", paths, smoke=True)
    calls = [calls[0], calls[-1]]           # one herald, the sweep
    results = harness.run_pass(calls, work / "pass0")
    assert [r.returncode for r in results] == [0, 0]
    return configs[0], results


def test_herald_check_rejects_perturbed_probability(exact_run):
    config, (herald_result, _) = exact_run
    schema = checks.load_schema("herald.schema.json")
    reference = checks.herald_reference(config)
    text = herald_result.outputs["stdout"].decode()
    assert checks.check_herald(text, reference, schema) == []
    report = json.loads(text)
    report["herald_probability"] *= 1.0 + 1e-9
    errors = checks.check_herald(json.dumps(report), reference, schema)
    assert any("herald_probability" in e for e in errors)


def test_herald_check_rejects_unnormalized_decomposition(exact_run):
    config, (herald_result, _) = exact_run
    schema = checks.load_schema("herald.schema.json")
    reference = checks.herald_reference(config)
    report = json.loads(herald_result.outputs["stdout"])
    report["s1"]["gamma_sq"] += 1e-9
    errors = checks.check_herald(json.dumps(report), reference, schema)
    assert any("alpha^2+beta^2+gamma^2" in e for e in errors)


def test_sweep_check_rejects_perturbed_row(exact_run):
    config, (_, sweep_result) = exact_run
    reference = checks.sweep_reference(config, 0.3, 0.9,
                                       harness.SMOKE_SWEEP_STEPS)
    text = sweep_result.outputs["stdout"].decode()
    assert checks.check_sweep(text, reference) == []
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = format(float(cells[2]) * (1.0 + 1e-6), ".9g")
    lines[1] = ",".join(cells)
    errors = checks.check_sweep("\n".join(lines) + "\n", reference)
    assert any("eff_exact_enumerated" in e for e in errors)


@pytest.fixture(scope="module")
def mc_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("mc")
    paths = inputs.write_inputs("mc_aggregate", 7, work / "inputs", smoke=True)
    config = parse(paths[0].read_text(encoding="utf-8"))
    call = harness.workload_calls("mc_aggregate", paths, smoke=True)[0]
    (result,) = harness.run_pass([call], work / "pass0")
    assert result.returncode == 0
    return config, precompute_outcome_tables(config), result.outputs


def _check_mc(config, tables, outputs) -> list[str]:
    return checks.check_montecarlo(outputs, config, tables,
                                   checks.load_schema("summary.schema.json"))


def _with_summary(outputs, edit) -> dict[str, bytes]:
    summary = json.loads(outputs["summary.json"])
    edit(summary)
    return dict(outputs, **{"summary.json": json.dumps(summary).encode()})


def test_count_check_accepts_real_output(mc_run):
    config, tables, outputs = mc_run
    assert _check_mc(config, tables, outputs) == []


def test_count_check_rejects_one_flipped_count(mc_run):
    config, tables, outputs = mc_run

    def flip(summary):
        outcomes = summary["records"][0]["outcomes"]
        label = sorted(outcomes)[0]
        outcomes[label] += 1
    corrupted = _with_summary(outputs, flip)
    assert any("n_s" in e for e in _check_mc(config, tables, corrupted))
    assert checks.check_identical(outputs, corrupted, "montecarlo")


def test_count_check_rejects_flipped_csv_count(mc_run):
    config, tables, outputs = mc_run
    name = checks.counts_name(tables[1].basis)
    text = outputs[name].decode().replace("n_t,", "n_t,1", 1)
    corrupted = dict(outputs, **{name: text.encode()})
    errors = _check_mc(config, tables, corrupted)
    assert any("counts file" in e for e in errors)


def test_count_check_rejects_counts_outside_five_sigma(mc_run):
    config, tables, outputs = mc_run
    expected = config.pulses * tables[2].trigger_probability_per_pulse()
    assert expected > 100      # the smoke config has statistics to test

    def inflate(summary):
        summary["records"][2]["n_t"] += int(10 * expected ** 0.5)
    errors = _check_mc(config, tables, _with_summary(outputs, inflate))
    assert any("n_t=" in e and "5 sigma" in e for e in errors)


def test_schema_check_rejects_negative_count(mc_run):
    config, tables, outputs = mc_run

    def negate(summary):
        summary["records"][0]["n_t"] = -1
    errors = _check_mc(config, tables, _with_summary(outputs, negate))
    assert any("schema" in e for e in errors)


def test_five_sigma_band_is_exact_for_small_means():
    # mean 0.01: one event is ordinary, ten are not
    assert checks._count_within_five_sigma(1, 1_000_000, 1e-8)
    assert not checks._count_within_five_sigma(10, 1_000_000, 1e-8)
    assert checks._count_within_five_sigma(10_000, 1_000_000, 0.01)
    assert not checks._count_within_five_sigma(10_600, 1_000_000, 0.01)

