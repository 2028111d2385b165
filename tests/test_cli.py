"""Command-line front end: exit codes, file outputs, schema conformance."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import heraldsim
from heraldsim import fixture_path, schema_path

from conftest import BOOSTED_CONFIG, RELABELLED_5050


SMALL_MC = BOOSTED_CONFIG.replace("pulses 2000000", "pulses 200000")
# the directory this run imports heraldsim from, for the child processes
PACKAGE_ROOT = str(Path(heraldsim.__file__).resolve().parents[1])


def run_python(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_cli(*args, env_extra=None):
    return run_python("-m", "heraldsim.cli", *args, env_extra=env_extra)


@pytest.fixture()
def boosted_file(tmp_path):
    path = tmp_path / "boosted.exp"
    path.write_text(SMALL_MC, encoding="utf-8")
    return str(path)


def test_herald_on_fixture_exits_zero():
    proc = run_cli("herald", str(fixture_path("paper_7030.exp")))
    assert proc.returncode == 0
    assert "herald probability" in proc.stdout
    assert "eff_theory" in proc.stdout


def test_herald_json_validates_against_schema():
    proc = run_cli("herald", str(fixture_path("paper_7030.exp")), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    with open(schema_path("herald.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(report, schema)
    # closed-form efficiency cross-check at the 68.5/31.5 splitting
    assert report["preparation_efficiency"] == pytest.approx(0.50, abs=5e-3)
    assert report["eff_theory"] == pytest.approx(0.50, abs=5e-3)


def test_herald_with_zero_reflectivity(tmp_path):
    text = SMALL_MC.replace("R=0.5", "R=0.0")
    path = tmp_path / "r0.exp"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("herald", str(path), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    # nothing reaches the output arms, so the proper herald class is empty
    assert report["s1"]["alpha_sq"] == pytest.approx(0.0, abs=1e-12)
    assert report["eff_theory"] == pytest.approx(0.0, abs=1e-12)


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.exp"
    path.write_text("source spdc p1=2 nmax=4 visibility=1\n",
                    encoding="utf-8")
    proc = run_cli("herald", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_missing_file_exit_code():
    proc = run_cli("herald", "/no/such/file.exp")
    assert proc.returncode == 2


def test_runtime_error_exit_code(boosted_file, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    proc = run_cli("montecarlo", boosted_file, "--pulses", "1000",
                   "--out", str(blocker))
    assert proc.returncode == 3


def test_sweep_rows_and_monotonicity(boosted_file):
    proc = run_cli("sweep", boosted_file, "--r-min", "0.3",
                   "--r-max", "0.9", "--steps", "7")
    assert proc.returncode == 0
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert len(rows) == 7
    eff = [float(r["eff_theory"]) for r in rows]
    assert eff == sorted(eff)
    exact = [float(r["eff_exact_enumerated"]) for r in rows]
    for a, b in zip(eff, exact):
        assert a == pytest.approx(b, abs=1e-9)


def test_sweep_two_steps(boosted_file):
    proc = run_cli("sweep", boosted_file, "--steps", "2")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 3  # header + 2 rows


@pytest.mark.parametrize("bounds, flag", [
    (("--r-min", "0.9", "--r-max", "1.2"), "--r-max"),
    (("--r-min=-0.1", "--r-max", "0.5"), "--r-min"),
    (("--r-min", "nan"), "--r-min"),
])
def test_sweep_rejects_range_outside_unit_interval(bounds, flag):
    # checked before the header, so stdout never holds a partial CSV
    proc = run_cli("sweep", str(fixture_path("paper_5050.exp")), *bounds,
                   "--steps", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: {flag} " in proc.stderr
    assert "outside [0, 1]" in proc.stderr


def test_sweep_follows_the_configs_own_labels(tmp_path):
    # relabelling the trigger-arm polarizations changes no physics, so the
    # sweep must print the fixture's rows, not zeros
    path = tmp_path / "relabelled.exp"
    path.write_text(RELABELLED_5050, encoding="utf-8")
    fixture = str(fixture_path("paper_5050.exp"))

    herald_reports = [json.loads(run_cli("herald", p, "--json").stdout)
                      for p in (fixture, str(path))]
    assert herald_reports[1]["preparation_efficiency"] == pytest.approx(
        herald_reports[0]["preparation_efficiency"], abs=1e-12)

    sweeps = [run_cli("sweep", p, "--steps", "2") for p in (fixture, str(path))]
    assert [proc.returncode for proc in sweeps] == [0, 0]
    assert sweeps[1].stdout == sweeps[0].stdout
    rows = list(csv.DictReader(sweeps[1].stdout.splitlines()))
    assert all(float(r["eff_exact_enumerated"]) > 0.0 for r in rows)


def test_montecarlo_outputs_are_reproducible(boosted_file, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        proc = run_cli("montecarlo", boosted_file, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in out1.iterdir())
    assert sorted(p.name for p in out2.iterdir()) == names
    assert "summary.json" in names
    assert "manifest.json" in names
    for name in names:
        if name == "manifest.json":
            continue  # carries timestamps by design
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_montecarlo_thread_count_does_not_change_outputs(boosted_file,
                                                        tmp_path):
    outputs = {}
    for threads in ("1", "64"):
        out = tmp_path / f"t{threads}"
        proc = run_cli("montecarlo", boosted_file, "--pulses", "5000",
                       "--threads", threads, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"}
    assert outputs["64"] == outputs["1"]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_montecarlo_rejects_thread_count_below_one(boosted_file, tmp_path,
                                                   value):
    proc = run_cli("montecarlo", boosted_file, "--pulses", "1000",
                   "--threads", value, "--out", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_montecarlo_rejects_arm_without_two_detectors(tmp_path):
    path = tmp_path / "three_outputs.exp"
    path.write_text(SMALL_MC.replace("detector id=s4 mode=d:y\n", ""),
                    encoding="utf-8")
    proc = run_cli("montecarlo", str(path), "--pulses", "1000",
                   "--out", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "arm 'd'" in proc.stderr and "s3" in proc.stderr


def test_montecarlo_summary_schema_and_manifest(boosted_file, tmp_path):
    out = tmp_path / "run"
    proc = run_cli("montecarlo", boosted_file, "--out", str(out), "--json")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    with open(schema_path("summary.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(summary, schema)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = set(manifest["outputs"])
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert present <= listed or present == listed


def test_montecarlo_manifest_telemetry(boosted_file, tmp_path):
    out = tmp_path / "run"
    proc = run_cli("montecarlo", boosted_file, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = manifest["stages"]
    assert set(stages) == {"tables_s", "sample_s", "write_s"}
    assert all(v >= 0.0 for v in stages.values())
    tables = manifest["tables"]
    assert tables["branches"] >= 1 and tables["patterns"] == 256
    assert set(tables["fock_terms"]) == {"HV_HV", "DA_DA", "RL_RL"}
    assert all(n > 0 for n in tables["fock_terms"].values())
    # summary.json as the release before the telemetry wrote it
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == ("0be13ae3e40ccb25a1d152181a7b5aef"
                      "0381255a42c128f53ac2df09ee92de09")


def test_cli_import_leaves_scipy_unloaded():
    proc = run_python(
        "-c", "import sys, heraldsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_montecarlo_env_var_out_dir(boosted_file, tmp_path):
    out = tmp_path / "envrun"
    proc = run_cli("montecarlo", boosted_file,
                   env_extra={"HERALDSIM_OUT": str(out)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_pulse_override(boosted_file, tmp_path):
    out = tmp_path / "short"
    proc = run_cli("montecarlo", boosted_file, "--pulses", "50000",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["pulses_per_basis"] == 50000


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
