"""The exact path's pair sectors against the routes they replaced.

`herald`, `sweep` and `four_pair_correction` build their three- and
four-pair sectors with `source.pair_power_states` from the pair operators
taken through the composed circuit.  The first reference kept here is the
route that building replaced: the normalized n-pair source state
substituted through the circuit with `apply_circuit`, then heralded.

`herald`, `sweep` and `four_pair_correction` build each sector once, with
every splitter at R = 1/2, and evaluate its herald as a curve in the
splitter ratios (`analysis.herald_curves`, one `detect.CurveStack` of
every sector's curve).  The second reference is the route the curves
replaced: every sweep row rebuilds its sectors through the circuit at its
own R, and `herald` through the circuit as declared.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from heraldsim import analysis, cli
from heraldsim.analysis import (exact_sectors, four_pair_correction,
                                four_pair_sectors, four_pair_shift,
                                herald_curves)
from heraldsim.detect import curve_stack, herald, threshold_detector
from heraldsim.dsl import parse, validate, walk
from heraldsim.elements import SOURCE_MODES, apply_circuit, compose
from heraldsim.fock import MixedState
from heraldsim.source import (SpdcParams, coupling_from_rate, n_pair_state,
                              pair_power_states, pair_probability)

from conftest import (BOOSTED_CONFIG, DARK_TRIGGERS_5050, OUTPUT_ARMS,
                      PLATE_AT_ZERO_5050, PNR_5050, R_ZERO_5050,
                      RELABELLED_5050, TRIGGER_MODES, UNEQUAL_5050,
                      fixture_text, heralding_circuit)

FIXTURES = ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp")


def reference_sector(n, circuit):
    """The n-pair sector through `circuit`, one substitution of the source
    state."""
    return apply_circuit(n_pair_state(n), circuit)


def reference_four_pair_correction(params, R, eta_t):
    """`four_pair_correction` with each sector substituted through
    `heralding_circuit(R)` on its own."""
    triggers = [threshold_detector(f"t{i}", m, eta=eta_t)
                for i, m in enumerate(TRIGGER_MODES, start=1)]
    p3, p4 = pair_probability(3, params.r), pair_probability(4, params.r)
    res3, res4 = (herald(reference_sector(n, heralding_circuit(R)), triggers,
                         OUTPUT_ARMS) for n in (3, 4))
    good = (p3 * res3.herald_probability * res3.preparation_efficiency
            + p4 * res4.herald_probability * res4.preparation_efficiency)
    trig = p3 * res3.herald_probability + p4 * res4.herald_probability
    if trig == 0.0 or res3.preparation_efficiency == 0.0:
        return None
    if p4 == 0.0:
        return 0.0
    return (good / trig - res3.preparation_efficiency) \
        / res3.preparation_efficiency


def config_circuits():
    cases = [(name, parse(fixture_text(name))) for name in FIXTURES]
    cases.append(("relabelled", parse(RELABELLED_5050)))
    return [pytest.param(c.circuit(), c.trigger_detectors(), c.output_arms(),
                         id=name) for name, c in cases]


def heralding_circuits():
    triggers = [threshold_detector(f"t{i}", m, eta=0.167)
                for i, m in enumerate(TRIGGER_MODES, start=1)]
    return [pytest.param(heralding_circuit(R), triggers, ("c", "d"),
                         id=f"heralding_circuit({R})")
            for R in (0.0, 0.3, 0.486, 1.0)]


@pytest.mark.parametrize("circuit, triggers, arms",
                         config_circuits() + heralding_circuits())
def test_sectors_match_substitution_route(circuit, triggers, arms):
    built = pair_power_states([(3, 0), (4, 0)], circuit)
    for n, got in zip((3, 4), built):
        want = reference_sector(n, circuit)
        got_terms, want_terms = got.terms, want.terms
        assert set(got_terms) == set(want_terms)
        assert max(abs(got_terms[k] - a) for k, a in want_terms.items()) \
            < 1e-12
        res, ref = herald(got, triggers, arms), herald(want, triggers, arms)
        assert res.heralded == ref.heralded
        for name in ("herald_probability", "preparation_efficiency"):
            assert math.isclose(getattr(res, name), getattr(ref, name),
                                rel_tol=1e-12, abs_tol=0.0), (n, name)


@pytest.mark.parametrize("R", [0.0, 0.1, 0.3, 0.486, 0.95, 1.0])
@pytest.mark.parametrize("eta_t", [0.167, 0.5, 1.0])
def test_four_pair_correction_matches_substitution_route(R, eta_t):
    params = parse(fixture_text("paper_5050.exp")).source
    got = four_pair_correction(params, R, eta_t)
    want = reference_four_pair_correction(params, R, eta_t)
    # undefined at R = 0, where the three-pair efficiency is 0, and at
    # R = 1, where no photon reaches the dark-free triggers
    assert (got is None) == (want is None) == (R in (0.0, 1.0))
    assert want is None or math.isclose(got, want, rel_tol=1e-12,
                                        abs_tol=0.0)


def test_four_pair_correction_matches_at_bright_pumping():
    params = SpdcParams(r=coupling_from_rate(0.2), n_max=4)
    for R in (0.3, 0.7):
        assert math.isclose(four_pair_correction(params, R, 1.0),
                            reference_four_pair_correction(params, R, 1.0),
                            rel_tol=1e-12, abs_tol=0.0)


def closed_form_norm_sq(k, j):
    """||P-^k P+^j |0>||^2 = sum_m c_m^2 (m!)^2 ((n-m)!)^2, n = k + j, c_m
    the x^m coefficient of (x - 1)^k (x + 1)^j: P-/+ = A -/+ B with
    commuting A = a_x b_y, B = a_y b_x, and A^m B^(n-m) |0> orthogonal
    terms of norm^2 (m!)^2 ((n-m)!)^2."""
    n = k + j
    coefs = [1]
    for root in [1] * k + [-1] * j:  # multiply by (x - root)
        coefs = [(coefs[m - 1] if m else 0)
                 - root * (coefs[m] if m < len(coefs) else 0)
                 for m in range(len(coefs) + 1)]
    return sum(c * c * math.factorial(m) ** 2 * math.factorial(n - m) ** 2
               for m, c in enumerate(coefs))


def test_source_norms_match_closed_form():
    # each branch is divided by its own norm, and A^n |0> = n! |n, n> has
    # coefficient 1 in P-^k P+^j, so its amplitude is n! / norm
    for n in range(7):
        for k in range(n + 1):
            [state] = pair_power_states([(k, n - k)])
            assert math.isclose(state.norm_sq(), 1.0, rel_tol=0.0,
                                abs_tol=1e-14), (k, n - k)
            key = ((("a", "x"), n), (("b", "y"), n)) if n else ()
            want = math.factorial(n) / math.sqrt(closed_form_norm_sq(k, n - k))
            assert abs(state.terms[key] - want) <= 1e-14 * want, (k, n - k)


def test_closed_form_norm_of_n_pairs():
    # P-^n alone: (n + 1) (n!)^2, the n-pair normalization
    for n in range(7):
        assert closed_form_norm_sq(n, 0) == (n + 1) * math.factorial(n) ** 2


@pytest.mark.parametrize("with_map", [False, True])
def test_repeated_call_is_bit_identical(with_map):
    powers = [(3, 0), (2, 1), (4, 0), (1, 3)]
    transform = heralding_circuit(0.486) if with_map else None
    first = pair_power_states(powers, transform)
    second = pair_power_states(powers, transform)
    for a, b in zip(first, second):
        assert a.modes == b.modes and a.rows == b.rows and a.amps == b.amps


def per_row_herald(config, R):
    """A sweep row's herald on the per-row route: the three-pair sector
    built through the config's circuit with every splitter at R."""
    [state] = pair_power_states(
        [(3, 0)], compose(config.transforms(R=R), SOURCE_MODES))
    return herald(state, config.trigger_detectors(), config.output_arms())


def per_row_sweep(config, r_min, r_max, steps):
    """The `sweep` CSV on the per-row route, the four-pair correction
    substituted through `heralding_circuit(R)` row by row."""
    eta_t = config.mean_trigger_eta()
    lines = ["R,eff_theory,eff_exact_enumerated,four_pair_corrected"]
    for i in range(steps):
        R = r_min + (r_max - r_min) * i / (steps - 1)
        result = per_row_herald(config, R)
        exact = result.preparation_efficiency if result.heralded else 0.0
        shift = (reference_four_pair_correction(config.source, R, eta_t)
                 if config.source.n_max >= 4 and R > 0.0 else None)
        corrected = exact if shift is None else exact * (1.0 + shift)
        lines.append(f"{R:.9g},{analysis.eff_theory(R, eta_t):.9g},"
                     f"{exact:.9g},{corrected:.9g}")
    return "\n".join(lines) + "\n"


def run_sweep(text, tmp_path, *args):
    path = tmp_path / "config.exp"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", str(path), *args]) == 0
    return out.getvalue()


def exact_curves(config):
    """The stack `sweep` builds: `herald_curves` of `exact_sectors`."""
    return herald_curves(exact_sectors(config), config)


def sweep_curve(config):
    """The three-pair sector on the config's triggers, a one-curve stack."""
    return herald_curves([((3, 0), config.trigger_detectors())], config)


def sector_curves(config):
    """The four-pair correction's three- and four-pair sectors, stacked."""
    return herald_curves(four_pair_sectors(config, config.mean_trigger_eta()),
                         config)


def assert_same_herald(got, want):
    assert got.heralded == want.heralded
    for name in ("herald_probability", "preparation_efficiency"):
        assert math.isclose(getattr(got, name), getattr(want, name),
                            rel_tol=1e-12, abs_tol=0.0), name
    scale = max(np.abs(want.conditional_dm).max(), 1e-300)
    assert np.abs(got.conditional_dm - want.conditional_dm).max() \
        <= 1e-12 * scale


SWEPT_TEXTS = {name: fixture_text(name) for name in FIXTURES}
SWEPT_TEXTS.update(relabelled=RELABELLED_5050, pnr=PNR_5050)


@pytest.mark.parametrize("name", sorted(SWEPT_TEXTS))
def test_sweep_curve_matches_per_row_route(name):
    config = parse(SWEPT_TEXTS[name])
    curve = sweep_curve(config)
    for R in (0.0, 0.1, 0.3, 0.486, 0.5, 0.7, 0.95, 1.0):
        assert_same_herald(curve.heralds(R)[0], per_row_herald(config, R))


def test_one_build_serves_splitters_of_different_R():
    config = parse(UNEQUAL_5050)
    [state] = pair_power_states([(3, 0)], config.circuit())
    assert_same_herald(sweep_curve(config).heralds(0.486, 0.8)[0],
                       herald(state, config.trigger_detectors(),
                              config.output_arms()))


@pytest.mark.parametrize("name", ["paper_5050.exp", "pnr"])
def test_curve_stack_matches_each_curve(name):
    config = parse(SWEPT_TEXTS[name])
    # each curve built alone, on its own monomial table
    curves = [herald_curves([sector], config)
              for sector in [((3, 0), config.trigger_detectors()),
                             *four_pair_sectors(config,
                                                config.mean_trigger_eta())]]
    stack = exact_curves(config)
    for R in ((0.0,), (0.3,), (0.486,), (1.0,), (0.486, 0.8)):
        for got, curve in zip(stack.at(*R), curves, strict=True):
            [want] = curve.at(*R)
            for g, w in zip(got, want, strict=True):  # qubit, non-qubit
                assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", ["paper_5050.exp", "pnr"])
def test_stack_evaluations_agree(name):
    # the table's qubit column is the trace of the conditional states that
    # `heralds` sums, so `at` is `heralds` without the states
    stack = exact_curves(parse(SWEPT_TEXTS[name]))
    np.testing.assert_allclose(
        np.transpose(stack.columns[::2]),
        np.trace(stack.states(), axis1=2, axis2=3).real, rtol=1e-12, atol=0.0)
    for R in ((0.0,), (0.3,), (0.486,), (1.0,), (0.486, 0.8)):
        for (qubit, other), want in zip(stack.at(*R), stack.heralds(*R),
                                        strict=True):
            assert math.isclose(qubit + other, want.herald_probability,
                                rel_tol=1e-12, abs_tol=0.0)
            assert math.isclose(
                qubit, np.trace(want.conditional_dm).real
                * want.herald_probability, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("R", [(0.0,), (0.3,), (0.486,), (1.0,), (0.486, 0.8)])
def test_stacked_mixture_weighs_its_sectors(R):
    # each weight is a sum over the curve's terms, so the mixture's are its
    # sectors' weighted by their pair probabilities; the efficiency is not
    config = parse(UNEQUAL_5050)
    transforms = config.transforms(0.5)
    s3, s4 = pair_power_states([(3, 0), (4, 0)],
                               compose(transforms, SOURCE_MODES))
    p3, p4 = (pair_probability(n, config.source.r) for n in (3, 4))
    triggers, arms = config.trigger_detectors(), config.output_arms()
    exponents = walk(config)[1]
    [mixture] = curve_stack([(MixedState(((p3, s3), (p4, s4))), triggers)],
                            arms, exponents).at(*R)
    three, four = curve_stack([(s3, triggers), (s4, triggers)], arms,
                              exponents).at(*R)
    assert sum(mixture) > 0.0
    for got, w3, w4 in zip(mixture, three, four, strict=True):
        assert math.isclose(got, p3 * w3 + p4 * w4, rel_tol=1e-12,
                            abs_tol=0.0)


@pytest.mark.parametrize("text, steps", [
    (SWEPT_TEXTS["paper_5050.exp"], 5), (RELABELLED_5050, 5), (PNR_5050, 5),
    (PNR_5050, 21),
    # the correction is undefined on every row: the dark-free sectors
    # never herald at trigger eta 0
    (DARK_TRIGGERS_5050, 5),
    # two splitters declared at different R, both swept to each row's R:
    # each row's factor comes from the exponents summed over the splitters
    (UNEQUAL_5050, 5), (UNEQUAL_5050, 21)],
    ids=["paper_5050.exp", "relabelled", "pnr", "pnr-21", "dark_triggers",
         "unequal", "unequal-21"])
def test_sweep_edge_rows_match_per_row_route(text, steps, tmp_path):
    got = run_sweep(text, tmp_path, "--r-min", "0", "--r-max", "1",
                    "--steps", str(steps))
    assert got == per_row_sweep(parse(text), 0.0, 1.0, steps)


def test_ideal_dark_sweep_at_full_reflection_heralds_nothing(tmp_path):
    # no dark counts: at R = 1 no photon reaches a trigger
    config = parse(BOOSTED_CONFIG)
    for result in (sweep_curve(config).heralds(1.0)[0],
                   per_row_herald(config, 1.0)):
        assert not result.heralded and result.herald_probability == 0.0
    rows = list(csv.reader(io.StringIO(run_sweep(
        BOOSTED_CONFIG, tmp_path, "--r-min", "0.5", "--r-max", "1",
        "--steps", "2"))))
    # a row that heralds nothing has no efficiency to write
    assert rows[-1] == ["1", "1", "", ""]


def test_sweep_skips_the_four_pair_correction_at_zero_reflection(
        monkeypatch, tmp_path):
    evaluated = []

    def spy(weights, three, four):
        evaluated.extend(three)
        return four_pair_shift(weights, three, four)
    monkeypatch.setattr(analysis, "four_pair_shift", spy)
    out = run_sweep(fixture_text("paper_5050.exp"), tmp_path,
                    "--r-min", "0", "--r-max", "1", "--steps", "5")
    # the shift takes values, not R: its three-pair qubit and non-qubit
    # weights name the rows it was called on
    config = parse(fixture_text("paper_5050.exp"))
    sectors = sector_curves(config)
    assert evaluated == pytest.approx(
        [v for R in (0.25, 0.5, 0.75, 1.0) for v in sectors.at(R)[0]],
        rel=1e-12, abs=0.0)
    first = next(csv.DictReader(io.StringIO(out)))
    assert first["R"] == "0"
    assert first["four_pair_corrected"] == first["eff_exact_enumerated"]


@pytest.mark.parametrize("text, p1, undefined", [
    # R = 0: the three-pair efficiency is 0, whether or not p_4 underflows
    (R_ZERO_5050, "1e-100", True), (R_ZERO_5050, "0.047", True),
    # p1 = 0: nothing heralds; at 1e-100 p_3 is still above 0, p_4 is not
    (fixture_text("paper_5050.exp"), "0", True),
    (fixture_text("paper_5050.exp"), "1e-100", False)],
    ids=["R_zero-1e-100", "R_zero-0.047", "paper_5050-0", "paper_5050-1e-100"])
def test_undefined_four_pair_correction_is_not_a_silent_zero(
        text, p1, undefined, tmp_path, capsys):
    path = tmp_path / "config.exp"
    path.write_text(text.replace("p1=0.047", f"p1={p1}"), encoding="utf-8")
    assert cli.main(["herald", "--json", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["four_pair_correction"]
    assert got is None if undefined else (got == 0.0 and type(got) is float)
    assert cli.main(["herald", str(path)]) == 0
    assert ("four-pair relative correction: "
            + ("undefined" if undefined else "+0.0000%")
            in capsys.readouterr().out.splitlines())


# `herald --json`'s four_pair_correction for the fixture itself
PUBLISHED_CORRECTION = -0.004085273650801922


def substituted_correction(config, R):
    """The four-pair correction of `config` at R on the per-row route: each
    sector substituted through the config's own circuit with every splitter
    at R (as declared where R is None), heralded on dark-free threshold triggers of the mean efficiency on
    the config's trigger modes and read on its output arms."""
    circuit = compose(config.transforms(R=R), SOURCE_MODES)
    triggers = [threshold_detector(d.id, d.mode, eta=config.mean_trigger_eta())
                for d in config.trigger_detectors()]
    (h3, e3), (h4, e4) = (
        (res.herald_probability, res.preparation_efficiency)
        for res in (herald(reference_sector(n, circuit), triggers,
                           config.output_arms()) for n in (3, 4)))
    p3, p4 = (pair_probability(n, config.source.r) for n in (3, 4))
    return (p3 * h3 * e3 + p4 * h4 * e4) / (p3 * h3 + p4 * h4) / e3 - 1.0


def test_four_pair_correction_follows_the_configs_circuit(tmp_path, capsys):
    config = parse(PLATE_AT_ZERO_5050)
    assert validate(config) == []
    path = tmp_path / "plate_at_zero.exp"
    path.write_text(PLATE_AT_ZERO_5050, encoding="utf-8")
    assert cli.main(["herald", "--json", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["four_pair_correction"]
    stack = exact_curves(config)
    weights = tuple(pair_probability(n, config.source.r) for n in (3, 4))
    want = four_pair_shift(weights, *stack.at(config.beam_splitter_R())[1:])
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(got, substituted_correction(
        config, config.beam_splitter_R()), rel_tol=1e-12, abs_tol=0.0)
    assert not math.isclose(got, PUBLISHED_CORRECTION, rel_tol=0.1)

    rows = list(csv.DictReader(io.StringIO(run_sweep(PLATE_AT_ZERO_5050,
                                                     tmp_path))))
    for row in rows:
        R, exact = float(row["R"]), float(row["eff_exact_enumerated"])
        for shift in (four_pair_shift(weights, *stack.at(R)[1:]),
                      substituted_correction(config, R)):
            # the CSV holds 9 significant digits
            assert math.isclose(float(row["four_pair_corrected"]),
                                exact * (1.0 + shift), rel_tol=1e-8)
    assert rows[-1]["R"] == "0.9"
    assert rows[-1]["four_pair_corrected"] == "0.748849364"


def test_herald_takes_each_splitter_at_its_declared_R(tmp_path, capsys):
    # herald, efficiency and four-pair correction all follow the declared
    # circuit, not the first splitter's R
    config = parse(UNEQUAL_5050)
    assert validate(config) == []
    path = tmp_path / "unequal.exp"
    path.write_text(UNEQUAL_5050, encoding="utf-8")
    assert cli.main(["herald", "--json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    want = herald(reference_sector(3, config.circuit()),
                  config.trigger_detectors(), config.output_arms())
    for name in ("herald_probability", "preparation_efficiency"):
        assert math.isclose(report[name], getattr(want, name),
                            rel_tol=1e-12, abs_tol=0.0), name
    assert math.isclose(report["four_pair_correction"],
                        substituted_correction(config, None),
                        rel_tol=1e-12, abs_tol=0.0)
