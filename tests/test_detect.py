"""Detector semantics and herald conditioning."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from heraldsim import cli, fock
from heraldsim.dsl import parse, validate
from heraldsim.fock import ConfigError, FockKey, MixedState, as_mixed
from heraldsim.elements import apply_circuit
from heraldsim.source import dephased_source, n_pair_state, pair_power_states
from heraldsim.detect import (
    NUMBER_RESOLVING,
    THRESHOLD,
    DetectorSpec,
    HeraldDecomposition,
    HeraldResult,
    click_probability,
    decompose_s1,
    fidelity_to_phi_plus,
    herald,
    sixfold_probability,
    threshold_detector,
)
from heraldsim.analysis import eff_theory
from heraldsim.mc import click_pattern_probabilities

import dilation_oracle as oracle
from conftest import (NARROW_5050, OUTPUT_ARMS, PLATE_AT_ZERO_5050,
                      R_ZERO_5050, RELABELLED_5050, ROTATED_ARM_5050,
                      TRIGGER_MODES, UNEQUAL_5050, WIDE_5050, fixture_text,
                      heralding_circuit, pnr_detector)
from dilation_oracle import key_occupation, qubit_index
from fock_oracle import from_terms


def trigger_set(kind="pnr", eta=1.0, dark=0.0, window=0.0):
    dets = []
    for i, m in enumerate(TRIGGER_MODES, start=1):
        if kind == "pnr":
            dets.append(pnr_detector(f"t{i}", m, eta=eta))
        else:
            dets.append(threshold_detector(f"t{i}", m, eta=eta,
                                           dark_rate=dark, window=window))
    return dets


def loop_herald(state, trigger_detectors, output_arms=OUTPUT_ARMS):
    """Reference: the herald as a loop over the terms of each branch,
    grouping the dict keys by their trigger occupations."""
    trig_modes = [d.mode for d in trigger_detectors]
    trig_set = set(trig_modes)
    herald_p = good_p = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    for weight, pure in as_mixed(state).branches:
        groups: dict[tuple[int, ...], dict[FockKey, complex]] = {}
        for key, amp in pure.terms.items():
            occ = tuple(key_occupation(key, m) for m in trig_modes)
            rest = tuple((m, n) for m, n in key if m not in trig_set)
            bucket = groups.setdefault(occ, {})
            bucket[rest] = bucket.get(rest, 0.0) + amp
        for occ, rest_terms in groups.items():
            group_w = weight * math.prod(
                click_probability(det, n)
                for det, n in zip(trigger_detectors, occ))
            herald_p += group_w * sum(abs(a) ** 2 for a in rest_terms.values())
            vec = np.zeros(4, dtype=complex)
            for key, amp in rest_terms.items():
                idx = qubit_index(key, output_arms)
                if idx is not None:
                    vec[idx] = amp
            good_p += group_w * float(np.vdot(vec, vec).real)
            rho += group_w * np.outer(vec, vec.conjugate())
    if herald_p <= 0.0:
        return HeraldResult(0.0, np.zeros((4, 4), dtype=complex), 0.0, False)
    return HeraldResult(herald_p, rho / herald_p, good_p / herald_p, True)


def uncut(build, *args):
    """`build(*args)` keeping every term (`fock.DROP_TOL` = 0), so that an
    oracle built at the declared ratios holds at any ratio."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "DROP_TOL", 0.0)
        return build(*args)


def loop_decompose_s1(state, trigger_modes, output_arms):
    """Reference: the trigger classes by a loop over the terms."""
    alpha_sq = beta_sq = gamma_sq = 0.0
    for key, amp in state.terms.items():
        p = abs(amp) ** 2
        trig = [key_occupation(key, m) for m in trigger_modes]
        out_photons = sum(n for (spatial, _), n in key if spatial in output_arms)
        if all(n == 1 for n in trig) and out_photons == 2:
            alpha_sq += p
        elif all(n >= 1 for n in trig):
            beta_sq += p
        else:
            gamma_sq += p
    return HeraldDecomposition(alpha_sq, beta_sq, gamma_sq)


def test_dark_click_probability_on_vacuum():
    det = threshold_detector("d", ("c", "x"), eta=1.0,
                             dark_rate=300.0, window=12e-9)
    assert det.dark_probability == pytest.approx(3.6e-6, rel=1e-12)
    assert click_probability(det, 0) == pytest.approx(3.6e-6, rel=1e-12)
    # with any photon at unit efficiency the detector always clicks
    assert click_probability(det, 1) == 1.0


def test_click_distribution_normalized():
    st = apply_circuit(n_pair_state(2), heralding_circuit(0.4))
    dets = trigger_set(kind="threshold", eta=0.3, dark=100.0, window=1e-8)
    patterns = click_pattern_probabilities(st, dets)
    assert len(patterns) == 2 ** len(dets)
    assert patterns.min() >= 0.0
    assert patterns.sum() == pytest.approx(1.0, abs=1e-10)


def test_pnr_counts_are_binomial_under_loss():
    # a number-resolving detector's event, a reading of exactly one, is the
    # k = 1 term of Binomial(n, eta)
    eta = 0.58
    det = pnr_detector("d", ("c", "x"), eta=eta)
    for n in range(5):
        expect = math.comb(n, 1) * eta * (1 - eta) ** (n - 1) if n else 0.0
        assert click_probability(det, n) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("R", [0.3, 0.486, 0.57, 0.685])
def test_ideal_herald_reproduces_closed_form(R):
    T = 1.0 - R
    st = apply_circuit(n_pair_state(3), heralding_circuit(R))
    res = herald(st, trigger_set("pnr"), OUTPUT_ARMS)
    assert res.herald_probability == pytest.approx(T ** 4 * R ** 2 / 2.0,
                                                   abs=1e-12)
    assert res.preparation_efficiency == pytest.approx(1.0, abs=1e-12)
    dm = res.conditional_dm / np.trace(res.conditional_dm).real
    assert fidelity_to_phi_plus(dm) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("R,eta_t", [(0.486, 0.167), (0.685, 0.207),
                                     (0.5, 0.5)])
def test_threshold_efficiency_matches_formula(R, eta_t):
    st = apply_circuit(n_pair_state(3), heralding_circuit(R))
    res = herald(st, trigger_set("threshold", eta=eta_t), OUTPUT_ARMS)
    assert res.preparation_efficiency == pytest.approx(
        eff_theory(R, eta_t), abs=1e-10)


def test_trigger_class_decomposition():
    R = 0.486
    T = 1.0 - R
    st = uncut(apply_circuit, n_pair_state(3), heralding_circuit(R))
    d = decompose_s1(st, TRIGGER_MODES, OUTPUT_ARMS)
    total = d.alpha_sq + d.beta_sq + d.gamma_sq
    assert total == pytest.approx(1.0, abs=1e-10)
    # weight of the perfect four-photon trigger class
    assert d.alpha_sq == pytest.approx(T ** 4 * R ** 2 / 2.0, abs=1e-10)
    # among trigger-satisfying events, the proper fraction matches the
    # ideal-detection efficiency formula
    ratio = d.alpha_sq / (d.alpha_sq + d.beta_sq)
    assert ratio == pytest.approx(eff_theory(R, 1.0), abs=1e-10)


def test_sixfold_correlations_of_heralded_state():
    st = apply_circuit(n_pair_state(3), heralding_circuit(0.486))
    trig = trigger_set("pnr")
    outs = [threshold_detector(f"s{i}", m) for i, m in enumerate(
        [("c", "x"), ("c", "y"), ("d", "x"), ("d", "y")],
        start=1)]

    def correlation(basis):
        probs = {}
        for o1 in (0, 1):
            for o2 in (0, 1):
                probs[(o1, o2)] = sixfold_probability(
                    st, trig, outs, (basis, basis), (o1, o2),
                    output_arms=OUTPUT_ARMS)
        tot = sum(probs.values())
        same = probs[(0, 0)] + probs[(1, 1)]
        diff = probs[(0, 1)] + probs[(1, 0)]
        return (same - diff) / tot

    assert correlation("HV") == pytest.approx(1.0, abs=1e-10)
    assert correlation("DA") == pytest.approx(1.0, abs=1e-10)
    assert correlation("RL") == pytest.approx(-1.0, abs=1e-10)


def test_sixfold_scales_with_output_efficiency_squared():
    st = apply_circuit(n_pair_state(3), heralding_circuit(0.486))
    trig = trigger_set("threshold", eta=1.0)

    def total(eta_s):
        outs = [threshold_detector(f"s{i}", m, eta=eta_s)
                for i, m in enumerate(
                    [("c", "x"), ("c", "y"),
                     ("d", "x"), ("d", "y")], start=1)]
        return sum(sixfold_probability(st, trig, outs, ("HV", "HV"), (a, b),
                                       output_arms=OUTPUT_ARMS)
                   for a in (0, 1) for b in (0, 1))

    p_full = total(1.0)
    p_low = total(0.129)
    assert p_low / p_full == pytest.approx(0.129 ** 2, rel=1e-9)


def test_herald_requires_four_triggers():
    st = apply_circuit(n_pair_state(3), heralding_circuit(0.5))
    with pytest.raises(ConfigError):
        herald(st, trigger_set("pnr")[:3], OUTPUT_ARMS)


def test_detector_parameter_validation():
    with pytest.raises(ConfigError):
        threshold_detector("d", ("c", "x"), eta=1.3)
    with pytest.raises(ConfigError):
        threshold_detector("d", ("c", "x"), dark_rate=1e9, window=1.0)


@pytest.mark.parametrize("dark, window", [(-300.0, -1e-9), (-300.0, 0.0),
                                          (0.0, -1e-9), (float("nan"), 1e-9)])
def test_negative_dark_rate_or_window_rejected(dark, window):
    with pytest.raises(ConfigError, match="negative dark rate or window"):
        threshold_detector("d", ("c", "x"), dark_rate=dark, window=window)


@settings(max_examples=200, deadline=None)
@given(kind=strategies.sampled_from([THRESHOLD, NUMBER_RESOLVING]),
       n=strategies.integers(min_value=0, max_value=5),
       eta=strategies.floats(min_value=0.0, max_value=1.0),
       dark=strategies.floats(min_value=0.0, max_value=0.5, exclude_max=True))
def test_click_probability_matches_dilation_oracle(kind, n, eta, dark):
    det = DetectorSpec(id="d", mode=("c", "x"), kind=kind, coupling=eta,
                       dark_rate=dark, window=1.0)
    assert click_probability(det, n) == pytest.approx(
        oracle.click_probability(det, n), abs=1e-12)


@pytest.fixture(scope="module")
def paper_5050_states(paper_5050):
    """Post-circuit n = 3 and n = 4 states and the dephased source mixture
    of the paper_5050 config, and the n = 3 state of ROTATED_ARM_5050."""
    circuit = paper_5050.circuit()
    mixture = dephased_source(paper_5050.source, paper_5050.noise)
    return {
        "n3": apply_circuit(n_pair_state(3), circuit),
        "n4": apply_circuit(n_pair_state(4), circuit),
        "dephased": MixedState(tuple((w, apply_circuit(s, circuit))
                                     for w, s in mixture.branches)),
        "rotated_arm": apply_circuit(n_pair_state(3),
                                     parse(ROTATED_ARM_5050).circuit()),
    }


def lossy_dark_detectors(config, trigger_kind):
    """The config's detectors at eta_t = 0.7, eta_s = 0.6 and a dark-count
    probability of 0.02, so multi-photon and dark terms carry weight."""
    def lossy(det, eta, kind):
        return dataclasses.replace(det, kind=kind, coupling=eta,
                                   dark_rate=0.02, window=1.0)
    return ([lossy(d, 0.7, trigger_kind) for d in config.trigger_detectors()],
            [lossy(d, 0.6, THRESHOLD) for d in config.output_detectors()])


@pytest.mark.parametrize("kind", [THRESHOLD, NUMBER_RESOLVING])
@pytest.mark.parametrize("which", ["n3", "n4", "dephased", "rotated_arm"])
def test_closed_form_matches_dilation_oracle(paper_5050, paper_5050_states,
                                             which, kind):
    # rotated_arm reads output arm c on the relabelled modes c:u, c:v
    state = paper_5050_states[which]
    config = parse(ROTATED_ARM_5050) if which == "rotated_arm" else paper_5050
    triggers, outputs = lossy_dark_detectors(config, kind)

    got, want = (herald(state, triggers, OUTPUT_ARMS),
                 oracle.herald(state, triggers))
    assert got.herald_probability == pytest.approx(want.herald_probability,
                                                   abs=1e-12)
    assert got.preparation_efficiency == pytest.approx(
        want.preparation_efficiency, abs=1e-12)
    assert np.abs(got.conditional_dm - want.conditional_dm).max() <= 1e-12

    basis, outcome = ("DA", "RL"), (0, 1)
    assert sixfold_probability(state, triggers, outputs, basis, outcome,
                               output_arms=OUTPUT_ARMS) == \
        pytest.approx(oracle.sixfold_probability(state, triggers, outputs,
                                                 basis, outcome), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_sixfold_pnr_triggers_fire_as_in_herald(paper_5050, n):
    # ideal number-resolving triggers fire on exactly one photon in both
    # herald and sixfold_probability, so with ideal threshold outputs the
    # HV six-folds add up to the heralded one-photon-per-arm weight
    state = apply_circuit(n_pair_state(n), paper_5050.circuit())
    triggers = [pnr_detector(d.id, d.mode)
                for d in paper_5050.trigger_detectors()]
    outputs = [threshold_detector(d.id, d.mode)
               for d in paper_5050.output_detectors()]
    res = herald(state, triggers, OUTPUT_ARMS)
    total = sum(sixfold_probability(state, triggers, outputs, ("HV", "HV"),
                                    (a, b), output_arms=OUTPUT_ARMS)
                for a in (0, 1) for b in (0, 1))
    assert total == pytest.approx(
        res.herald_probability * res.preparation_efficiency, abs=1e-12)


def assert_herald_matches_loop(state, triggers, arms):
    got, want = herald(state, triggers, arms), loop_herald(state, triggers, arms)
    assert got.heralded and want.heralded
    np.testing.assert_allclose(
        [got.herald_probability, got.preparation_efficiency],
        [want.herald_probability, want.preparation_efficiency],
        rtol=1e-12, atol=0.0)
    assert np.abs(got.conditional_dm - want.conditional_dm).max() <= 1e-12


def as_kind(detectors, kind):
    return [dataclasses.replace(d, kind=kind) for d in detectors]


@pytest.mark.parametrize("kind", [THRESHOLD, NUMBER_RESOLVING])
@pytest.mark.parametrize("name, n", [
    ("paper_5050.exp", 3), ("paper_5050.exp", 4), ("paper_6040.exp", 3),
    ("paper_6040.exp", 4), ("paper_7030.exp", 3), ("paper_7030.exp", 4),
    ("relabelled", 3)])
def test_herald_and_trigger_classes_match_loop(name, n, kind):
    cfg = parse(RELABELLED_5050 if name == "relabelled" else fixture_text(name))
    state = uncut(apply_circuit, n_pair_state(n), cfg.circuit())
    arms = cfg.output_arms()[:2]
    assert_herald_matches_loop(state, as_kind(cfg.trigger_detectors(), kind),
                               arms)
    trigger_modes = tuple(d.mode for d in cfg.trigger_detectors())
    got = decompose_s1(state, trigger_modes, arms)
    want = loop_decompose_s1(state, trigger_modes, arms)
    np.testing.assert_allclose(tuple(got), tuple(want), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", [THRESHOLD, NUMBER_RESOLVING])
def test_herald_of_mixture_matches_loop(paper_5050, paper_5050_states, kind):
    mixture = paper_5050_states["dephased"]
    assert_herald_matches_loop(
        mixture, as_kind(paper_5050.trigger_detectors(), kind), OUTPUT_ARMS)
    for _, pure in mixture.branches:
        np.testing.assert_allclose(
            tuple(decompose_s1(pure, TRIGGER_MODES, OUTPUT_ARMS)),
            tuple(loop_decompose_s1(pure, TRIGGER_MODES, OUTPUT_ARMS)),
            rtol=1e-12, atol=0.0)


def herald_and_loop_trigger_classes(text):
    """`herald`'s (alpha^2, beta^2, gamma^2) of a config text, and
    `loop_decompose_s1`'s of the three-pair state substituted through the
    config's circuit."""
    config = parse(text)
    s1 = cli._herald_report(config)["s1"]
    state = uncut(apply_circuit, n_pair_state(3), config.circuit())
    want = loop_decompose_s1(
        state, tuple(d.mode for d in config.trigger_detectors()),
        config.output_arms())
    return (s1["alpha_sq"], s1["beta_sq"], s1["gamma_sq"]), tuple(want)


@pytest.mark.parametrize("text", [
    pytest.param(NARROW_5050, id="narrow"), pytest.param(WIDE_5050, id="wide"),
    pytest.param(UNEQUAL_5050, id="unequal"),
    pytest.param(PLATE_AT_ZERO_5050, id="plate_at_zero"),
    pytest.param(R_ZERO_5050, id="R=0"),
    pytest.param(fixture_text("paper_5050.exp").replace("R=0.486", "R=1"),
                 id="R=1")])
def test_herald_trigger_classes_match_loop(text):
    # `herald` reads them off its curve on ideal threshold triggers; each
    # source arm here feeds two triggers, where both definitions of
    # alpha^2 agree
    got, want = herald_and_loop_trigger_classes(text)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert min(got) >= 0.0
    assert math.isclose(sum(got), 1.0, rel_tol=0.0, abs_tol=1e-12)
    if parse(text).beam_splitter_R() == 1.0:  # no photon reaches a trigger
        assert got[:2] == (0.0, 0.0)


# paper_5050's splitters and efficiencies without dark counts, trigger arm
# e split once more, so that source arm a feeds three triggers and arm b one
THREE_ON_ONE_ARM = (fixture_text("paper_5050.exp")
                    .replace("hwp on=f angle=-22.5 out=xp,yp\npbs on=e\n",
                             "bs in=e refl=g trans=h R=0.5\npbs on=g\n"
                             "pbs on=h\n")
                    .replace(" dark=300 window=12e-9", "")
                    .replace("mode=e:x", "mode=g:x")
                    .replace("mode=e:y", "mode=g:y")
                    .replace("mode=f:xp", "mode=h:x")
                    .replace("mode=f:yp", "mode=f:x"))


def test_trigger_classes_where_one_source_arm_feeds_three_triggers():
    # a stated difference: `herald`'s alpha^2 is the qubit sector (one
    # photon per output arm), which no three-pair term reaches here (four
    # photons on arm a's side, two on arm b's); `decompose_s1` and its loop
    # count two output photons anywhere, here both in arm d
    config = parse(THREE_ON_ONE_ARM)
    assert [d for d in validate(config) if d.startswith("error")] == []
    report = cli._herald_report(config)
    assert report["heralded"] and report["preparation_efficiency"] == 0.0
    got, want = herald_and_loop_trigger_classes(THREE_ON_ONE_ARM)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, (0.0, 0.004362470401000005,
                                     0.995637529599), rtol=1e-12, atol=0.0)
    state = uncut(apply_circuit, n_pair_state(3), config.circuit())
    for old in (want, tuple(decompose_s1(
            state, tuple(d.mode for d in config.trigger_detectors()),
            config.output_arms()))):
        np.testing.assert_allclose(old, (0.0010303980588345985,
                                         0.0033320723421654116,
                                         0.9956375295990024), rtol=1e-12,
                                   atol=0.0)
    # both split the same fired weight alpha^2 + beta^2
    assert math.isclose(got[0] + got[1], want[0] + want[1], rel_tol=1e-12)


def test_beta_sq_near_full_reflection():
    # beta^2 (about 5e-26) is its own column of `herald`'s stack, not the
    # herald less alpha^2 (about 5e-21); the oracle keeps the terms below
    # DROP_TOL that beta^2 is made of at these ratios
    config = parse(fixture_text("paper_5050.exp")
                   .replace("R=0.486", "R=0.99999"))
    s1 = cli._herald_report(config)["s1"]
    [state] = uncut(pair_power_states, [(3, 0)], config.circuit())
    trigger_modes = tuple(d.mode for d in config.trigger_detectors())
    want = decompose_s1(state, trigger_modes, config.output_arms())
    np.testing.assert_allclose((s1["alpha_sq"], s1["beta_sq"], s1["gamma_sq"]),
                               tuple(want), rtol=1e-13, atol=0.0)
    assert 4e-26 < s1["beta_sq"] < 6e-26


def test_herald_reads_each_arms_own_labels(paper_5050):
    # a local rotation on an output arm cannot change the probability of
    # one photon per arm, whatever the arm's polarization labels are
    rotated = parse(ROTATED_ARM_5050)
    got, want = (herald(apply_circuit(n_pair_state(3), cfg.circuit()),
                        cfg.trigger_detectors(), cfg.output_arms())
                 for cfg in (rotated, paper_5050))
    assert got.preparation_efficiency > 0.25
    np.testing.assert_allclose(
        [got.herald_probability, got.preparation_efficiency],
        [want.herald_probability, want.preparation_efficiency],
        rtol=1e-12, atol=0.0)


def test_herald_rejects_output_layout_without_a_qubit():
    state = apply_circuit(n_pair_state(3), heralding_circuit(0.486))
    with pytest.raises(ConfigError, match=r"two output arms.*\['c'\]"):
        herald(state, trigger_set(), ("c",))
    with pytest.raises(ConfigError, match=r"\['c', 'd', 'e'\]"):
        herald(state, trigger_set(), ("c", "d", "e"))
    three_labels = from_terms({
        ((("c", pol), 1), (("d", "x"), 1)): 0.5
        for pol in ("u", "x", "y")})
    with pytest.raises(ConfigError, match=r"arm 'c' carries \['u', 'x', 'y'\]"):
        herald(three_labels, trigger_set(), OUTPUT_ARMS)


def test_herald_on_an_arm_no_photon_reaches():
    # at R = 0 the output arms carry no mode at all: nothing is heralded
    # into them, which is not a layout error
    res = herald(apply_circuit(n_pair_state(3), heralding_circuit(0.0)),
                 trigger_set("threshold"), OUTPUT_ARMS)
    assert res.heralded and res.preparation_efficiency == 0.0
