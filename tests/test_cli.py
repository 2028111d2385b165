"""Command-line front end: exit codes, file outputs, schema conformance."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import heraldsim
from heraldsim import fixture_path, schema_path

from conftest import BOOSTED_CONFIG, RELABELLED_5050


SMALL_MC = BOOSTED_CONFIG.replace("pulses 2000000", "pulses 200000")

# `herald --json` reports and the default `sweep` of paper_5050.exp,
# recorded before the herald read-out became array code.  Numbers must
# hold to 1e-12 relative (the sweep prints 9 digits: 1e-8), everything
# else exactly; the fixtures' digests pin their canonical text.
HERALD_GOLDEN = {
    "paper_5050.exp": {
        "config_digest": ("29b3e57607b61a644b2c22c8c9a82354"
                          "f12147315f7e4eb2c3ec061d16ba2a2c"),
        "R": 0.486,
        "eta_t": 0.167,
        "herald_probability": 2.487665144354779e-05,
        "preparation_efficiency": 0.25785273873385656,
        "heralded": True,
        "eff_theory": 0.2578547577752424,
        "four_pair_correction": -0.004085273650802138,
        "s1": {"alpha_sq": 0.008243184470676767,
               "beta_sq": 0.011023194908536423,
               "gamma_sq": 0.9807336206207866},
    },
    "paper_6040.exp": {
        "config_digest": ("375d544276c156c63db4fcd72efd64f6"
                          "d10386c0b6474cab7b5fd6e4363ecd7c"),
        "R": 0.57,
        "eta_t": 0.173,
        "herald_probability": 1.4201842252078945e-05,
        "preparation_efficiency": 0.35045175746844653,
        "heralded": True,
        "eff_theory": 0.3504879065568969,
        "four_pair_correction": -0.04339035566240726,
        "s1": {"alpha_sq": 0.005553842224499997,
               "beta_sq": 0.004979911006624998,
               "gamma_sq": 0.9894662467688751},
    },
    "paper_7030.exp": {
        "config_digest": ("ae2f640d5435774778a3c6acf730dd35"
                          "594d73bfd228b780d264a43446816d10"),
        "R": 0.685,
        "eta_t": 0.207,
        "herald_probability": 8.46406111128529e-06,
        "preparation_efficiency": 0.501251072688229,
        "heralded": True,
        "eff_theory": 0.5013848667249744,
        "four_pair_correction": -0.08618053460262652,
        "s1": {"alpha_sq": 0.002309900976632809,
               "beta_sq": 0.001184333452681638,
               "gamma_sq": 0.9965057655706854},
    },
    "relabelled": {
        "config_digest": ("70bed8923267501f3235af6b621c64df"
                          "f5518a07e542fb9150c7523758e0df4d"),
        "R": 0.486,
        "eta_t": 0.167,
        "herald_probability": 2.487665144354779e-05,
        "preparation_efficiency": 0.25785273873385656,
        "heralded": True,
        "eff_theory": 0.2578547577752424,
        "four_pair_correction": -0.004085273650802138,
        "s1": {"alpha_sq": 0.008243184470676767,
               "beta_sq": 0.011023194908536423,
               "gamma_sq": 0.9807336206207866},
    },
}

SWEEP_5050_GOLDEN = """\
R,eff_theory,eff_exact_enumerated,four_pair_corrected
0.3,0.101520964,0.10153373,0.112353873
0.35,0.136963974,0.136977308,0.147050188
0.4,0.177322648,0.177334037,0.184946316
0.45,0.22246413,0.222469709,0.225746218
0.5,0.272259068,0.272253103,0.269240518
0.55,0.326581506,0.326555596,0.315302185
0.6,0.385308792,0.385250563,0.363882191
0.65,0.448321479,0.44821235,0.415004949
0.7,0.515503232,0.51531432,0.468763087
0.75,0.586740745,0.586424669,0.525310445
0.8,0.661923646,0.661396111,0.584849911
0.85,0.740944422,0.740035135,0.647603791
0.9,0.823698332,0.821979485,0.713705214
"""
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


def assert_matches_golden(got, want, rel, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], rel, f"{where}.{key}")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(HERALD_GOLDEN))
def test_herald_json_matches_golden(name, tmp_path):
    path = fixture_path(name)
    if name == "relabelled":
        path = tmp_path / "relabelled.exp"
        path.write_text(RELABELLED_5050, encoding="utf-8")
    proc = run_cli("herald", str(path), "--json")
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(json.loads(proc.stdout), HERALD_GOLDEN[name], 1e-12,
                          name)


def test_sweep_matches_golden():
    proc = run_cli("sweep", str(fixture_path("paper_5050.exp")))
    assert proc.returncode == 0, proc.stderr
    got = list(csv.reader(proc.stdout.splitlines()))
    want = list(csv.reader(SWEEP_5050_GOLDEN.splitlines()))
    assert got[0] == want[0] and len(got) == len(want) == 14
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:])):
        assert len(got_row) == len(want_row)
        for column, g, w in zip(want[0], got_row, want_row):
            assert_matches_golden(float(g), float(w), 1e-8,
                                  f"sweep row {i} {column}")


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
    # --threads and --aggregate have no effect: every run is one
    # multinomial draw per basis
    outputs = {}
    for flags in (("--threads", "1"), ("--threads", "2"), ("--threads", "64"),
                  ("--aggregate",)):
        out = tmp_path / "_".join(flags).strip("-")
        proc = run_cli("montecarlo", boosted_file, "--pulses", "5000",
                       *flags, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs[flags] = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "manifest.json"}
    first = outputs[("--threads", "1")]
    assert "summary.json" in first and "counts_HV_HV.csv" in first
    assert all(files == first for files in outputs.values())


@pytest.mark.parametrize("value", ["0", "-2"])
def test_montecarlo_rejects_thread_count_below_one(boosted_file, tmp_path,
                                                   value):
    proc = run_cli("montecarlo", boosted_file, "--pulses", "1000",
                   "--threads", value, "--out", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag,value", [
    ("--seed", str(2 ** 63)), ("--seed", str(2 ** 64)), ("--seed", "-1"),
    ("--pulses", str(2 ** 63)), ("--pulses", "0")])
def test_montecarlo_rejects_seed_or_pulses_outside_int64(boosted_file,
                                                         tmp_path, flag,
                                                         value):
    proc = run_cli("montecarlo", boosted_file, flag, value,
                   "--out", str(tmp_path / "run"))
    assert proc.returncode == 2, proc.stderr
    assert f"{flag} {value} outside [" in proc.stderr
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
    assert manifest["numpy_version"] == np.__version__
    # per basis: exact expectation, observed count and z-score of n_t, n_s
    # and each outcome, the observed side read back from summary.json
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    expected = manifest["expected"]
    assert set(expected) == set(tables["fock_terms"])
    for record in summary["records"]:
        rows = expected["_".join(record["basis"])]
        observed = {"n_t": record["n_t"], "n_s": record["n_s"],
                    **record["outcomes"]}
        assert set(rows) == set(observed)
        for name, row in rows.items():
            assert row["observed"] == observed[name]
            p = row["expected"] / record["pulses"]
            assert 0.0 <= p <= 1.0
            if row["expected"] == 0.0:
                assert row["observed"] == 0 and row["z"] is None
                continue
            sigma = math.sqrt(row["expected"] * (1.0 - p))
            assert row["z"] == pytest.approx(
                (row["observed"] - row["expected"]) / sigma, rel=1e-12)
            assert abs(row["z"]) < 5.0
        assert rows["n_s"]["expected"] == pytest.approx(
            sum(rows[k]["expected"] for k in record["outcomes"]), rel=1e-12)
        assert 0.0 < rows["n_s"]["expected"] < rows["n_t"]["expected"]
    # summary.json of the one-multinomial-per-basis draw (numpy 2.4.6)
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == ("6741ee4d3efae3efe58111e4b3f26b27"
                      "faf52173b0d1502830bd3cfd575ce574")


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
