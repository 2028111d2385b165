"""Command-line front end: exit codes, file outputs, schema conformance."""

import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heraldsim
from heraldsim import (analysis, cli, fixture_path, mc, schema_path,
                       source)
from heraldsim.dsl import DslError, parse, splitter_warnings, validate
from heraldsim.fock import ConfigError

from conftest import (BOOSTED_CONFIG, DARK_TRIGGERS_5050, NARROW_5050,
                      PNR_BOOSTED, R_ZERO_5050, RELABELLED_5050,
                      ROTATED_ARM_5050, WIDE_5050, fixture_text,
                      truncation_deficit)


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


def run_python(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_cli(*args, env_extra=None, timeout=None):
    return run_python("-m", "heraldsim.cli", *args, env_extra=env_extra,
                      timeout=timeout)


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


@pytest.mark.parametrize("text, efficiency", [
    (DARK_TRIGGERS_5050, 0.14837732047202618), (R_ZERO_5050, 0.0)],
    ids=["dark_triggers", "R_zero"])
def test_herald_reports_an_undefined_four_pair_correction(
        text, efficiency, tmp_path, capsys):
    path = tmp_path / "edge.exp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["herald", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["preparation_efficiency"] == pytest.approx(efficiency,
                                                             rel=1e-12)
    assert report["four_pair_correction"] is None
    with open(schema_path("herald.schema.json"), encoding="utf-8") as fh:
        jsonschema.validate(report, json.load(fh))
    assert cli.main(["herald", str(path)]) == 0
    assert ("four-pair relative correction: undefined"
            in capsys.readouterr().out.splitlines())


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


def test_herald_reads_a_relabelled_output_arm(tmp_path):
    # a wave plate on output arm c relabels its modes u, v; the herald must
    # read the qubit on those labels and report the fixture's numbers
    path = tmp_path / "rotated.exp"
    path.write_text(ROTATED_ARM_5050, encoding="utf-8")
    proc = run_cli("herald", str(path), "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    want = dict(HERALD_GOLDEN["paper_5050.exp"])
    assert report.pop("config_digest") != want.pop("config_digest")
    assert_matches_golden(report, want, 1e-12, "rotated")
    sweeps = [run_cli("sweep", p, "--steps", "2")
              for p in (str(fixture_path("paper_5050.exp")), str(path))]
    assert [proc.returncode for proc in sweeps] == [0, 0]
    assert sweeps[1].stdout == sweeps[0].stdout


COMMAND_FLAGS = {"herald": ("--json",), "sweep": ("--steps", "2"),
                 "montecarlo": ("--pulses", "1000")}


def test_herald_rejects_a_single_output_arm(tmp_path):
    path = tmp_path / "one_arm.exp"
    path.write_text("".join(
        line for line in fixture_text("paper_5050.exp").splitlines(
            keepends=True)
        if "mode=d:" not in line), encoding="utf-8")
    for command, flags in COMMAND_FLAGS.items():
        # validation rejects the layout before any output is written
        out = tmp_path / f"{command}_run"
        if command == "montecarlo":
            flags += ("--out", str(out))
        proc = run_cli(command, str(path), *flags)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert not out.exists()
        assert "exactly two output arms" in proc.stderr
        assert "['c']" in proc.stderr
        assert "runtime error" not in proc.stderr


def _without(text, *fragments):
    """`text` without the lines holding any of `fragments`."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not any(f in line for f in fragments))


PAPER_7030 = fixture_text("paper_7030.exp")

# layouts each command would refuse, or run to a wrong answer; validation
# (or the parser) must reject them, naming the stanzas or detector ids
BAD_LAYOUTS = {
    # two splitters feed output arm c
    "merge": (_without(PAPER_7030.replace("bs in=b refl=d", "bs in=b refl=c"),
                       "mode=d:"),
              ["error: bs R=0.685 in=b refl=c trans=f and bs R=0.685 in=a "
               "refl=c trans=e both feed mode c:x"]),
    "no_herald": (_without(PAPER_7030, "herald "),
                  ["herald requires four trigger detectors, got 0"]),
    "trigger_mode_twice": (PAPER_7030.replace("id=t4 mode=f:yp",
                                              "id=t4 mode=f:xp"),
                           ["detectors 't3' and 't4' both watch mode f:xp"]),
    "output_mode_twice": (PAPER_7030.replace("id=s4 mode=d:y",
                                             "id=s4 mode=d:x"),
                          ["detectors 's3' and 's4' both watch mode d:x"]),
    "trigger_on_output_arm": (
        _without(PAPER_7030.replace("id=t4 mode=f:yp", "id=t4 mode=c:x"),
                 "id=s1 "),
        ["trigger 't4' watches mode c:x on output arm 'c'"]),
    "herald_id_twice": (
        _without(PAPER_7030.replace("t3 t4", "t3 t3"), "id=t4 "),
        ["herald names detector 't3' more than once"]),
    # a plate turns arm c to xp, yp, and a later splitter adds x, y to it
    "arm_with_four_modes": ("""\
source spdc p1=0.047 nmax=3 visibility=0.91
bs in=a refl=c trans=e R=0.685
hwp on=c angle=-22.5 out=xp,yp
bs in=b refl=c trans=f R=0.685
bs in=e refl=d trans=g R=0.5
detector id=t1 mode=g:x
detector id=t2 mode=g:y
detector id=t3 mode=f:x
detector id=t4 mode=f:y
detector id=s1 mode=c:x
detector id=s2 mode=c:y
detector id=s3 mode=d:x
detector id=s4 mode=d:y
herald t1 t2 t3 t4
""", ["output arm 'c' carries modes ['x', 'xp', 'y', 'yp']"]),
    "hwp_outputs_coincide": (
        PAPER_7030.replace("out=xp,yp", "out=xp,xp")
        .replace("id=t4 mode=f:yp", "id=t4 mode=f:xp"),
        ["out must be two different polarization labels, got 'xp,xp'"]),
    "bs_outputs_coincide": (PAPER_7030.replace("refl=c trans=e",
                                               "refl=e trans=e"),
                            ["refl and trans are both 'e'"]),
}


@pytest.mark.parametrize("name", sorted(BAD_LAYOUTS))
@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_bad_layout_exits_two_at_load_time(name, command, tmp_path, capsys):
    text, needles = BAD_LAYOUTS[name]
    path = tmp_path / f"{name}.exp"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    argv = [command, str(path), *COMMAND_FLAGS[command]]
    if command == "montecarlo":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    for needle in needles:
        assert needle in captured.err
    assert "runtime error" not in captured.err


SPATIAL = tuple("abcdef")
POLS = ("x", "y", "xp", "yp")


def _label_slots(text):
    """(start, end, choices) of every spatial and polarization label in the
    element and detector stanzas of `text`."""
    slots = []
    for pattern, choices in ((r"\b(?:in|refl|trans|on)=(\w+)", [SPATIAL]),
                             (r"\bout=(\w+),(\w+)", [POLS, POLS]),
                             (r"\bmode=(\w+):(\w+)", [SPATIAL, POLS])):
        for m in re.finditer(pattern, text):
            slots += [(*m.span(i + 1), c) for i, c in enumerate(choices)]
    return sorted(slots)


@st.composite
def relabelled_layouts(draw):
    """paper_7030 at nmax 3 with its labels redrawn: each label is renamed
    the same way everywhere, to itself about three times in four, and at
    most one single label is then redrawn on its own."""
    text = PAPER_7030.replace("nmax=4", "nmax=3")
    slots = _label_slots(text)
    rename = {old: draw(st.sampled_from((old,) * 3 * len(choices) + choices))
              for choices in (SPATIAL, POLS) for old in choices}
    labels = [rename[text[start:end]] for start, end, _ in slots]
    for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=1)):
        labels[i] = draw(st.sampled_from(slots[i][2]))
    for (start, end, _), label in reversed(list(zip(slots, labels))):
        text = text[:start] + label + text[end:]
    return text


@settings(max_examples=40, deadline=None)
@given(relabelled_layouts())
def test_herald_runs_every_layout_validation_accepts(text):
    try:
        errors = [d for d in validate(parse(text)) if d.startswith("error")]
    except DslError as exc:
        errors = [str(exc)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "layout.exp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["herald", path, "--json"])
    assert code == (2 if errors else 0), (text, err.getvalue())


@pytest.mark.parametrize("case, message", [
    ("missing_file", "cannot read"),
    ("invalid_config", "configuration invalid"),
    ("one_sweep_step", "--steps 1 must be >= 2")])
def test_command_line_errors_exit_two_without_a_fake_location(
        case, message, boosted_file, tmp_path):
    invalid = tmp_path / "no_herald.exp"
    invalid.write_text(_without(PAPER_7030, "herald "), encoding="utf-8")
    args = {"missing_file": ("herald", str(tmp_path / "missing.exp")),
            "invalid_config": ("herald", str(invalid)),
            "one_sweep_step": ("sweep", boosted_file, "--steps", "1")}[case]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "line 0" not in proc.stderr


def test_montecarlo_with_an_overflowing_nmax_exits_two(tmp_path):
    # accepted by the validator; the click tables' packed keys overflow at
    # once, before any table is built
    path = tmp_path / "nmax200.exp"
    path.write_text(SMALL_MC.replace("nmax=3", "nmax=200"), encoding="utf-8")
    assert [d for d in validate(parse(path.read_text(encoding="utf-8")))
            if d.startswith("error")] == []
    proc = run_cli("montecarlo", str(path), "--out", str(tmp_path / "run"))
    assert proc.returncode == 2, proc.stderr
    assert "source nmax=200" in proc.stderr
    assert "runtime error" not in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("p1, code", [("0.047", 2), ("0", 0)])
def test_montecarlo_ends_on_a_huge_nmax(p1, code, tmp_path):
    # the source sum stops at the first pair number whose p_n is 0.0
    path = tmp_path / "huge.exp"
    path.write_text(fixture_text("paper_5050.exp").replace(
        "p1=0.047 nmax=4", f"p1={p1} nmax=1000000000000"), encoding="utf-8")
    out = tmp_path / "run"
    proc = run_cli("montecarlo", str(path), "--out", str(out), timeout=60)
    assert proc.returncode == code, proc.stderr
    if code:
        assert ("source nmax=1000000000000 is too large for the click "
                "tables" in proc.stderr)
        assert not out.exists()


def test_exact_commands_run_past_the_64_bit_key_bound(tmp_path):
    # only the click tables pack keys as int64: herald and sweep read the
    # wide layout as the narrow one, which the dumped chain does not touch
    reports, sweeps, warnings = {}, {}, {}
    for name, text in (("narrow", NARROW_5050), ("wide", WIDE_5050)):
        assert [d for d in validate(parse(text)) if d.startswith("error")] == []
        path = tmp_path / f"{name}.exp"
        path.write_text(text, encoding="utf-8")
        herald, sweep = (run_cli(*command, str(path))
                         for command in (("herald", "--json"), ("sweep",)))
        assert herald.returncode == 0, herald.stderr
        assert sweep.returncode == 0, sweep.stderr
        reports[name] = json.loads(herald.stdout)
        del reports[name]["config_digest"]
        sweeps[name] = sweep.stdout
        warnings[name] = herald.stderr
    assert_matches_golden(reports["wide"], reports["narrow"], 1e-12, "wide")
    assert sweeps["wide"] == sweeps["narrow"]
    # no detector sees the chain's R=0.5 splitters, so they draw no warning
    assert warnings["wide"] == warnings["narrow"] == (
        "warning: bs R=0.486 in=a refl=c trans=e and bs R=0.99 in=e refl=e2 "
        "trans=x0 differ in R; only herald's R and eff_theory use the "
        "first's R=0.486\n")
    proc = run_cli("montecarlo", str(path), "--out", str(tmp_path / "run"))
    assert proc.returncode == 2, proc.stderr
    assert ("source nmax=4 is too large for the click tables: 22 modes "
            "holding up to 8 photons overflow a 64-bit packed key"
            in proc.stderr)
    assert not (tmp_path / "run").exists()


def test_montecarlo_refuses_output_detectors_of_mean_eta_0(tmp_path, capsys):
    path = tmp_path / "blind.exp"
    path.write_text(re.sub(r"(detector id=s\d) ", r"\1 eta=0 ", SMALL_MC),
                    encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["montecarlo", str(path), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: output detectors ")
    assert all(f"s{i} eta=0" in line for i in range(1, 5))
    assert not out.exists()


@pytest.mark.parametrize("nmax, mb", [(12, "2,368"), (16, "16,841"),
                                     (2 ** 62, "3,873,330,544,190")])
def test_montecarlo_warns_of_table_memory_before_building(
        nmax, mb, monkeypatch, tmp_path, capsys):
    # the estimate reads the config alone and only warns; the table build
    # then runs, patched here to fail
    def build(config):
        raise AssertionError("tables built")
    monkeypatch.setattr(mc, "precompute_outcome_tables", build)
    path = tmp_path / "big.exp"
    path.write_text(fixture_text("paper_5050.exp").replace(
        "nmax=4", f"nmax={nmax}"), encoding="utf-8")
    out = tmp_path / "run"
    code = cli.main(["montecarlo", str(path), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert err[0] == (f"warning: source spdc nmax={nmax} p1=0.047 "
                      f"visibility=0.91: montecarlo's click tables may take "
                      f"up to {mb} MB; lower nmax if that does not fit")
    assert err[-1] == "runtime error in tables: tables built"
    assert not out.exists()


def test_montecarlo_warns_when_no_pulse_count_gives_ten_sixfolds(tmp_path,
                                                                 capsys):
    # p1=0: only dark counts make six-folds, about 1e-26 per pulse
    path = tmp_path / "dark.exp"
    path.write_text(fixture_text("paper_5050.exp").replace("p1=0.047",
                                                           "p1=0"),
                    encoding="utf-8")
    assert cli.main(["montecarlo", str(path), "--out",
                     str(tmp_path / "run")]) == 0
    [warning] = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("warning:")]
    assert warning.endswith("; no pulse count below 2^63 would give 10")


@pytest.mark.parametrize("extra, message", [
    ("pulses 7\n", "duplicate pulses stanza"),
    ("basis HV HV\n", "error: basis HV HV is declared 2 times")])
def test_montecarlo_rejects_a_repeated_stanza_before_writing(
        extra, message, tmp_path, capsys):
    path = tmp_path / "repeated.exp"
    path.write_text(SMALL_MC + extra, encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["montecarlo", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, digest", [
    # summary.json as written before the warning existed
    ("paper_5050", fixture_text("paper_5050.exp"),
     "51e577ec74d4d53368f406b05e68d63f3c668fc264f3d285adf9f8fde6fefe01"),
    ("boosted", BOOSTED_CONFIG, None)])
def test_montecarlo_warns_when_a_basis_expects_too_few_sixfolds(
        name, text, digest, tmp_path):
    path = tmp_path / f"{name}.exp"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    proc = run_cli("montecarlo", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    warnings = [line for line in proc.stderr.splitlines()
                if line.startswith("warning:")]
    if digest is None:
        assert warnings == []
        return
    # about 8e-6 six-folds per basis at the published brightness
    [warning] = warnings
    pulses = parse(text).pulses
    assert f"at pulses {pulses}," in warning
    needed = int(re.search(r"; pulses (\d+) would give 10$", warning)[1])
    assert 1e11 < needed < 1e13
    summary = (out / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == digest
    assert json.loads(summary)["fidelity"] is None


def _fail(*args, **kwargs):
    raise RuntimeError("injected failure")


# the module that defines each stage function: a command imports the engine
# only when it runs, and looks the function up there
STAGE_OWNER = {"herald_curves": analysis, "four_pair_sectors": analysis,
               "four_pair_shift": analysis,
               "precompute_outcome_tables": mc, "run_experiment": mc,
               "_write_outputs": cli}


@pytest.mark.parametrize("command, stage_function, stage", [
    ("herald", "herald_curves", "herald curve"),
    ("herald", "four_pair_sectors", "herald curve"),
    ("sweep", "herald_curves", "sweep curve"),
    ("sweep", "four_pair_sectors", "sweep curve"),
    ("sweep", "four_pair_shift", "row R=0.3"),
    ("montecarlo", "precompute_outcome_tables", "tables"),
    ("montecarlo", "run_experiment", "sample"),
    ("montecarlo", "_write_outputs", "write"),
])
def test_runtime_error_names_its_stage(command, stage_function, stage,
                                       monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(STAGE_OWNER[stage_function], stage_function, _fail)
    argv = [command, str(fixture_path("paper_5050.exp"))]
    if command == "sweep":
        argv += ["--steps", "2"]
    if command == "montecarlo":
        argv += ["--pulses", "1000", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"runtime error in {stage}: injected failure" in err


def test_montecarlo_import_failure_names_the_import_stage(monkeypatch, capsys,
                                                          tmp_path):
    # the engine import is a timed stage like the others, so its failure
    # names it; no output directory is made
    monkeypatch.delattr(heraldsim, "mc", raising=False)
    monkeypatch.setitem(sys.modules, "heraldsim.mc", None)
    out = tmp_path / "run"
    argv = ["montecarlo", str(fixture_path("paper_5050.exp")),
            "--pulses", "1000", "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("runtime error in import: ")
    assert "heraldsim.mc" in err[-1] and not out.exists()


def test_sweep_writes_each_row_before_the_next_is_evaluated(monkeypatch,
                                                            capsys):
    # the shift fails on its second call, the R = 0.6 row: the header and
    # the R = 0.3 row are already out, unchanged, and nothing follows
    argv = ["sweep", str(fixture_path("paper_5050.exp")), "--steps", "3"]
    assert cli.main(argv) == 0
    header, first, *_ = capsys.readouterr().out.splitlines()
    shift, calls = analysis.four_pair_shift, []

    def fail_second(*args):
        calls.append(args)
        return shift(*args) if len(calls) == 1 else _fail()
    monkeypatch.setattr(analysis, "four_pair_shift", fail_second)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == f"{header}\n{first}\n" and first.startswith("0.3,")
    assert err.splitlines()[-1] == ("runtime error in row R=0.6: injected "
                                    "failure")


@pytest.mark.parametrize("error, code", [(RuntimeError, 3), (ConfigError, 2)])
def test_sweep_curve_failure_writes_no_row(error, code, monkeypatch, capsys):
    # the curves are built before the header: a failed build leaves stdout
    # empty, a runtime error exits 3 naming the stage, a config error exits 2
    def fail(*args, **kwargs):
        raise error("injected failure")
    monkeypatch.setattr(analysis, "herald_curves", fail)
    argv = ["sweep", str(fixture_path("paper_5050.exp")), "--steps", "2"]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == ("runtime error in sweep curve: injected "
                                    "failure" if code == 3
                                    else "error: injected failure")


def test_unequal_splitters_warning(tmp_path, capsys):
    # herald reports R and eff_theory at the first splitter's R and says
    # so; sweep sets every splitter's R and montecarlo reads none, so
    # neither warns
    text = fixture_text("paper_5050.exp")
    second = "bs in=b refl=d trans=f R="
    assert second + "0.486\n" in text
    text = text.replace(second + "0.486", second + "0.8")
    assert validate(parse(text)) == []
    path = tmp_path / "unequal.exp"
    path.write_text(text, encoding="utf-8")
    warning = ("warning: bs R=0.486 in=a refl=c trans=e and bs R=0.8 in=b "
               "refl=d trans=f differ in R; only herald's R and eff_theory "
               "use the first's R=0.486")
    for argv, warned in (
            (["herald", str(path), "--json"], True),
            (["sweep", str(path), "--steps", "2"], False),
            (["montecarlo", str(path), "--pulses", "1000",
              "--out", str(tmp_path / "run")], False)):
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert (warning in err.splitlines() if warned
                else "differ in R" not in err), (argv, err)


def test_splitter_warning_leaves_a_rejected_layout_to_the_curve_stack():
    # the second plate on f reads f:x, which no element produces, beside
    # f:y from the second splitter: validate rejects the layout and the
    # curve stack raises the same error of `walk`; the warning, which
    # reads the walk's paths, still names the splitter of a different R
    config = parse(fixture_text("paper_5050.exp")
                   .replace("trans=f R=0.486", "trans=f R=0.8")
                   .replace("out=xp,yp", "out=xp,y\nhwp on=f angle=0 out=q,yp"))
    assert [d for d in validate(config) if d.startswith("error")]
    assert [w.split(" differ")[0] for w in splitter_warnings(config)] == [
        "warning: bs R=0.486 in=a refl=c trans=e and bs R=0.8 in=b refl=d "
        "trans=f"]
    with pytest.raises(ConfigError,
                       match="reads mode f:x which no element produces"):
        analysis.herald_curves(analysis.exact_sectors(config), config)


PAPER_5050 = fixture_text("paper_5050.exp")
T1 = "detector id=t1 mode=e:x kind=threshold eta=0.167"


@pytest.mark.parametrize("text, named", [
    (PAPER_5050.replace("id=t1 mode=e:x kind=threshold",
                        "id=t1 mode=e:x kind=pnr"),
     "'t1' (kind=pnr eta=0.167)"),
    (PAPER_5050.replace(T1, T1.replace("0.167", "0.2")),
     "'t1' (kind=threshold eta=0.2), 't2' (kind=threshold eta=0.167), "
     "'t3' (kind=threshold eta=0.167), 't4' (kind=threshold eta=0.167)"),
    *((fixture_text(name), None) for name in
      ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp"))],
    ids=["pnr", "unequal_eta", "paper_5050", "paper_6040", "paper_7030"])
def test_four_pair_warning_names_the_triggers_it_cannot_follow(
        text, named, tmp_path, capsys):
    # the correction heralds on dark-free threshold triggers at the mean
    # eta; the fixtures' equal threshold triggers draw no warning
    path = tmp_path / "config.exp"
    path.write_text(text, encoding="utf-8")
    config = parse(text)
    mean = format(config.mean_trigger_eta(), ".9g")
    for argv in (["herald", str(path), "--json"],
                 ["sweep", str(path), "--steps", "2"]):
        assert cli.main(argv) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "four_pair_correction heralds" in line]
        assert warnings == ([] if named is None else [
            "warning: four_pair_correction heralds on dark-free threshold "
            f"triggers at their mean eta={mean}, not on triggers {named}"])
    # without a four-pair sector there is no correction to warn about
    path.write_text(text.replace("nmax=4", "nmax=3"), encoding="utf-8")
    assert cli.main(["herald", str(path), "--json"]) == 0
    assert "four_pair_correction" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["herald", "sweep"])
def test_each_exact_command_builds_its_states_once(command, monkeypatch,
                                                   capsys):
    # one `pair_power_states` call per command, wherever a module bound it:
    # `herald` reads its trigger classes off the same stack as the rest
    original, calls = source.pair_power_states, []

    def spy(powers, *args, **kwargs):
        calls.append(list(powers))
        return original(powers, *args, **kwargs)
    for name, module in list(sys.modules.items()):
        if (name.startswith("heraldsim")
                and getattr(module, "pair_power_states", None) is original):
            monkeypatch.setattr(module, "pair_power_states", spy)
    assert cli.main([command, str(fixture_path("paper_5050.exp"))]) == 0
    capsys.readouterr()
    assert calls == [[(3, 0), (4, 0)]]


def test_configuration_error_inside_a_stage_exits_two(monkeypatch, capsys):
    def bad_layout(*args, **kwargs):
        raise ConfigError("bad layout")
    monkeypatch.setattr(analysis, "herald_curves", bad_layout)
    assert cli.main(["herald", str(fixture_path("paper_5050.exp"))]) == 2
    err = capsys.readouterr().err
    assert "error: bad layout" in err and "runtime error" not in err


def test_unwritable_output_directory_names_the_write_stage(boosted_file,
                                                          tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    proc = run_cli("montecarlo", boosted_file, "--pulses", "1000",
                   "--out", str(blocker))
    assert proc.returncode == 3
    assert "runtime error in write: " in proc.stderr


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


def test_montecarlo_rejects_number_resolving_detectors(tmp_path):
    # number-resolving triggers t2 and t4 are read; output s2 is refused
    path = tmp_path / "pnr_output.exp"
    path.write_text(PNR_BOOSTED.replace("mode=c:y\n", "mode=c:y kind=pnr\n"),
                    encoding="utf-8")
    # the one layout the validator accepts and a command refuses: herald
    # and sweep read the output arms, montecarlo counts threshold clicks
    assert [d for d in validate(parse(path.read_text(encoding="utf-8")))
            if d.startswith("error")] == []
    proc = run_cli("montecarlo", str(path), "--pulses", "1000",
                   "--out", str(tmp_path / "run"))
    assert proc.returncode == 2, proc.stderr
    assert "threshold output detectors only; not threshold: s2\n" in \
        proc.stderr
    assert not (tmp_path / "run").exists()


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
    assert list(stages) == ["load_s", "import_s", "tables_s", "sample_s",
                            "write_s"]
    assert all(v >= 0.0 for v in stages.values())
    # a fresh interpreter: the engine import is real work
    assert stages["import_s"] > 0.0
    tables = manifest["tables"]
    assert tables["branches"] >= 1 and tables["patterns"] == 256
    assert set(tables["fock_terms"]) == {"HV_HV", "DA_DA", "RL_RL"}
    assert all(n > 0 for n in tables["fock_terms"].values())
    # the source tail past nmax, counted as vacuum pulses
    assert tables["truncated_weight"] == pytest.approx(
        truncation_deficit(parse(BOOSTED_CONFIG).source), rel=1e-12)
    assert 0.0 < tables["truncated_weight"] < 0.1
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


def read_run(out):
    return [json.loads((out / name).read_text(encoding="utf-8"))
            for name in ("summary.json", "manifest.json")]


def test_manifest_reports_eff_exp_binomial_sigma(boosted_file, tmp_path):
    # n_s is a subset of n_t: value sqrt(1/n_s - 1/n_t), below the sigma
    # of independent counts that summary.json reports
    argv = ["montecarlo", boosted_file, "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    summary, manifest = read_run(tmp_path / "run")
    n_s, n_t = (sum(r[n] for r in summary["records"]) for n in ("n_s", "n_t"))
    assert 0 < n_s < n_t
    eff, sigma = summary["eff_exp"], manifest["eff_exp_binomial_sigma"]
    assert sigma == pytest.approx(
        eff["value"] * math.sqrt(1.0 / n_s - 1.0 / n_t), rel=1e-12, abs=0.0)
    assert 0.0 < sigma < eff["sigma"]
    # no six-fold, or every herald a six-fold: no spread
    assert analysis.eff_exp_binomial_sigma(0.0, 0, n_t) == 0.0
    assert analysis.eff_exp_binomial_sigma(eff["value"], n_t, n_t) == 0.0
    # no herald: eff_exp is null, and so is its sigma
    argv = ["montecarlo", str(fixture_path("paper_5050.exp")), "--pulses",
            "1000", "--out", str(tmp_path / "dark")]
    assert cli.main(argv) == 0
    summary, manifest = read_run(tmp_path / "dark")
    assert summary["eff_exp"] is None
    assert manifest["eff_exp_binomial_sigma"] is None


def test_cli_import_leaves_scipy_unloaded():
    proc = run_python(
        "-c", "import sys, heraldsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs in a fresh interpreter: imports heraldsim.cli, parses and validates
# every bundled fixture, then calls `main` on each argv of the list literal
# in argv[1].  Prints, per step, its exit code and which of WATCHED it has
# loaded that the bare interpreter did not hold.  It reads and writes
# literals, not JSON, so that it loads no watched module itself.
STARTUP_PROBE = """\
import sys
BARE = set(sys.modules)
import ast, contextlib, io
from pathlib import Path
WATCHED = ("numpy", "numpy.random", "heraldsim.mc", "json", "hashlib",
           "datetime", "csv", "heraldsim.detect")

def loaded():
    return [m for m in WATCHED if m in sys.modules and m not in BARE]

import heraldsim.cli
from heraldsim.dsl import parse, validate
steps = [("import heraldsim.cli", 0, loaded())]
fixtures = Path(heraldsim.__file__).parent / "fixtures"
for path in sorted(fixtures.glob("*.exp")):
    validate(parse(path.read_text(encoding="utf-8")))
steps.append(("parse and validate", 0, loaded()))
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = heraldsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append((" ".join(argv), code, loaded()))
print(repr(steps))
"""


def startup_steps(*argvs):
    proc = run_python("-c", STARTUP_PROBE, repr(list(argvs)))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_reading_and_checking_a_config_loads_no_numpy(tmp_path):
    rejected = tmp_path / "no_herald.exp"
    rejected.write_text(BAD_LAYOUTS["no_herald"][0], encoding="utf-8")
    steps = startup_steps(["--version"], ["herald", str(rejected)])
    assert [code for _, code, _ in steps] == [0, 0, 0, 2], steps
    # nor json, hashlib, datetime or csv: no command pays for them here
    assert all(watched == [] for _, _, watched in steps), steps


def test_exact_commands_load_no_sampler(tmp_path):
    paths = sorted(map(str, (Path(heraldsim.__file__).parent / "fixtures")
                       .glob("*.exp")))
    sweeps = [["sweep", path, "--steps", "2"] for path in paths]
    heralds = [["herald", path] for path in paths]
    steps = startup_steps(*sweeps, *heralds, ["herald", paths[0], "--json"])
    assert [code for _, code, _ in steps] == [0] * (len(paths) * 2 + 3), steps
    # the exact engine runs on the standard library alone, on every
    # fixture; of the watched modules `sweep` loads only the herald
    # read-outs, `herald` also hashlib (the config digest) and `--json` json
    assert [watched for _, _, watched in steps[2:]] == (
        [["heraldsim.detect"]] * len(sweeps)
        + [["hashlib", "heraldsim.detect"]] * len(heralds)
        + [["json", "hashlib", "heraldsim.detect"]]), steps
    # only the sampler loads numpy, and it never loads the herald
    # read-outs; the count CSVs are written without csv
    [*_, (_, code, watched)] = startup_steps(
        ["montecarlo", paths[0], "--pulses", "1000", "--out",
         str(tmp_path / "run")])
    assert (code, watched) == (0, ["numpy", "numpy.random", "heraldsim.mc",
                                   "json", "hashlib", "datetime"])


def test_only_config_declarations_and_mc_records_are_dataclasses():
    # a dataclass takes several times a NamedTuple's time to build at
    # import; a class is one only where callers use a dataclass feature:
    # `dataclasses.replace` and field checks on the config declarations,
    # `vars` and `asdict` on `mc`'s classes, which only `montecarlo` loads
    found = sorted(
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(heraldsim.__path__)
        for name, obj in vars(importlib.import_module(
            f"heraldsim.{info.name}")).items()
        if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
        and obj.__module__ == f"heraldsim.{info.name}")
    assert found == [
        "config.BsDecl", "config.DetectorSpec", "config.ExperimentConfig",
        "config.HwpDecl", "config.PbsDecl", "config.SourceNoise",
        "config.SpdcParams", "mc.ArrayPolynomial", "mc.BasisTables",
        "mc.CountRecord", "mc.McResult"]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_defaults_openblas_to_one_thread(preset, expected, monkeypatch):
    # set first, so the variable's original state is restored afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    with pytest.raises(SystemExit), \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--version"])
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


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
