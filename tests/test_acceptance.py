"""End-to-end acceptance checks, one stated criterion per test.

Each test emits a single PASS/FAIL line (bypassing capture) so a run of
this file reads as a checklist.  Two checks assert published anchor values
that the implementation honestly cannot reach; they are marked strict-xfail
and report FAIL rather than being weakened.
"""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar

from heraldsim import fixture_path
from heraldsim.dsl import parse
from heraldsim.elements import apply_circuit
from heraldsim.source import (
    SpdcParams,
    coupling_from_rate,
    dephased_source,
    n_pair_state,
    pair_probability,
)
from heraldsim.detect import (
    fidelity_to_phi_plus,
    herald,
    threshold_detector,
)
from heraldsim.analysis import (
    Estimate,
    chsh_werner_threshold,
    eff_exp,
    eff_theory,
    four_pair_correction,
    violates_chsh,
)
from heraldsim.mc import precompute_outcome_tables, run_experiment

from conftest import (BOOSTED_CONFIG, OUTPUT_ARMS, TRIGGER_MODES,
                      fixture_text, heralding_circuit, pnr_detector)
from fock_oracle import max_photons


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line per criterion on the real stdout."""

    def _report(criterion, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] criterion {criterion}: {status} ({detail})",
                  file=sys.stdout, flush=True)

    return _report


def trigger_set(kind, eta=1.0):
    make = pnr_detector if kind == "pnr" else threshold_detector
    return [make(f"t{i}", m, eta=eta)
            for i, m in enumerate(TRIGGER_MODES, start=1)]


def test_criterion_1_ideal_herald_closed_form(report):
    worst_prob = 0.0
    worst_fid = 0.0
    for R in (0.3, 0.486, 0.57, 0.685):
        T = 1.0 - R
        st = apply_circuit(n_pair_state(3), heralding_circuit(R))
        res = herald(st, trigger_set("pnr"), OUTPUT_ARMS)
        dm = res.conditional_dm / np.trace(res.conditional_dm).real
        worst_prob = max(worst_prob,
                         abs(res.herald_probability - T ** 4 * R ** 2 / 2.0))
        worst_fid = max(worst_fid, abs(fidelity_to_phi_plus(dm) - 1.0))
    ok = worst_prob < 1e-12 and worst_fid < 1e-12
    report(1, ok, f"max |dP|={worst_prob:.2e}, max |1-F|={worst_fid:.2e}")
    assert ok


def test_criterion_2_threshold_efficiency_oracle_grid(report):
    worst = 0.0
    for R in np.linspace(0.3, 0.7, 5):
        st = apply_circuit(n_pair_state(3), heralding_circuit(float(R)))
        for eta in np.linspace(0.1, 1.0, 5):
            res = herald(st, trigger_set("threshold", eta=float(eta)),
                         OUTPUT_ARMS)
            worst = max(worst, abs(res.preparation_efficiency
                                   - eff_theory(float(R), float(eta))))
    ok = worst < 1e-10
    report(2, ok, f"max formula deviation over 5x5 grid = {worst:.2e}")
    assert ok


def test_criterion_3_efficiency_anchors(report):
    checks = [
        (eff_theory(0.486, 0.1823), 0.2595),
        (eff_exp(37, 9710, 0.129).value, 0.229),
        (eff_exp(14, 1347, 0.15).value, 0.462),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst < 1e-3
    report(3, ok, f"attainable anchors, max deviation {worst:.2e} "
                  "(two stated anchors checked separately)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated anchor 0.336 contradicts the quoted formula, which gives "
           "0.3520; see the decisions ledger")
def test_criterion_3_stated_anchor_at_0_570(report):
    got = eff_theory(0.570, 0.1823)
    report(3, abs(got - 0.336) < 1e-3,
           f"stated anchor 0.336 vs formula {got:.4f}")
    assert got == pytest.approx(0.336, abs=1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="stated anchor 0.492 contradicts the quoted formula, which gives "
           "0.4974; see the decisions ledger")
def test_criterion_3_stated_anchor_at_0_685(report):
    got = eff_theory(0.685, 0.1823)
    report(3, abs(got - 0.492) < 1e-3,
           f"stated anchor 0.492 vs formula {got:.4f}")
    assert got == pytest.approx(0.492, abs=1e-3)


def test_criterion_4_pair_statistics(report):
    r = coupling_from_rate(0.047)
    p3 = pair_probability(3, r)
    p4 = pair_probability(4, r)
    ratio = p3 / p4
    ok = (5.5e-5 <= p3 <= 5.9e-5 and 1.6e-6 <= p4 <= 1.9e-6
          and 31.0 <= ratio <= 35.0)
    report(4, ok, f"p3={p3:.3e}, p4={p4:.3e}, p3/p4={ratio:.1f}")
    assert ok


def test_criterion_5_four_pair_correction_band(report):
    r = coupling_from_rate(0.047)
    shift = four_pair_correction(SpdcParams(r=r, n_max=4), 0.486)
    ok = 0.03 <= abs(shift) <= 0.06
    report(5, ok, f"relative shift {shift:+.4f}")
    assert ok


def test_criterion_6_herald_probability_maximum(report):
    res = minimize_scalar(lambda t: -(t ** 4 * (1.0 - t) ** 2 / 2.0),
                          bounds=(0.01, 0.99), method="bounded",
                          options={"xatol": 1e-12})
    t_star = res.x
    p_star = -res.fun
    ok = abs(t_star - 2.0 / 3.0) < 1e-6 and abs(p_star - 0.01097) < 5e-4
    report(6, ok, f"T*={t_star:.6f}, P*={p_star:.6f}")
    assert ok


def test_criterion_7_dark_count_ratio(report):
    det = threshold_detector("s1", ("c", "x"), eta=0.15, dark_rate=300.0,
                             window=12e-9)
    ratio = det.dark_probability / det.eta
    ok = abs(ratio - 2.4e-5) < 1e-9 and 1e-5 <= ratio <= 1e-4
    report(7, ok, f"n_d*t/eta = {ratio:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="faithful simulation gives ~9.4e-4: misrouted three-pair events "
           "completed by a single trigger dark count dominate and are not "
           "suppressed by detector efficiency; see the decisions ledger")
def test_criterion_7_dark_assisted_sixfold_fraction(report):
    text = fixture_text("paper_5050.exp")
    with_dark = precompute_outcome_tables(parse(text))[0]
    no_dark = precompute_outcome_tables(
        parse(text.replace("dark=300", "dark=0")))[0]
    p_on = with_dark.sixfold_probability_per_pulse()
    p_off = no_dark.sixfold_probability_per_pulse()
    fraction = (p_on - p_off) / p_on
    ok = fraction < 1e-4
    report(7, ok, f"dark-assisted six-fold fraction {fraction:.2e}, "
                  "bound 1e-4")
    assert ok


def chsh_value(dm, angles):
    def setting(theta):
        return np.array([[math.cos(theta), math.sin(theta)],
                         [math.sin(theta), -math.cos(theta)]])

    a1, a2, b1, b2 = angles

    def corr(ta, tb):
        return float(np.real(np.trace(dm @ np.kron(setting(ta),
                                                   setting(tb)))))

    return corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2)


def test_criterion_8_chsh_threshold_and_fidelity_properties(report):
    phi = np.zeros((4, 1))
    phi[0, 0] = phi[3, 0] = 1.0 / math.sqrt(2.0)
    proj = phi @ phi.T

    def werner(f):
        return ((4.0 * f - 1.0) / 3.0 * proj
                + (1.0 - f) / 3.0 * np.eye(4))

    def best(f):
        res = minimize(lambda a: -chsh_value(werner(f), a),
                       [0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8],
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12})
        return -res.fun

    root = brentq(lambda f: best(f) - 2.0, 0.70, 0.85, xtol=1e-10)
    thr = chsh_werner_threshold()
    ok_thr = abs(thr - root) < 1e-6 and abs(thr - 0.780330) < 1e-6
    ok_vio, n_sig = violates_chsh(Estimate(value=0.87, sigma=0.029))
    ok_vio = ok_vio and n_sig >= 3.0

    ideal = run_experiment(parse(BOOSTED_CONFIG))
    ok_ideal = abs(ideal.fidelity.value - 1.0) <= max(
        3.0 * ideal.fidelity.sigma, 1e-9)

    noisy_cfg = parse(BOOSTED_CONFIG.replace("visibility=1.0",
                                             "visibility=0.91"))
    noisy = run_experiment(noisy_cfg)
    mix = dephased_source(noisy_cfg.source, noisy_cfg.noise)
    circuit = noisy_cfg.circuit()
    rho = np.zeros((4, 4), dtype=complex)
    for w, st in mix.branches:
        if max_photons(st) < 6:
            continue
        res = herald(apply_circuit(st, circuit),
                     noisy_cfg.trigger_detectors(), OUTPUT_ARMS)
        rho += w * res.herald_probability * res.conditional_dm
    rho /= np.trace(rho).real
    exact = fidelity_to_phi_plus(rho)
    ok_noisy = abs(noisy.fidelity.value - exact) <= 3.0 * noisy.fidelity.sigma

    ok = ok_thr and ok_vio and ok_ideal and ok_noisy
    report(8, ok,
           f"threshold {thr:.6f} (oracle {root:.6f}), 0.87+-0.029 at "
           f"{n_sig:.2f} sigma, MC F(V=1)={ideal.fidelity.value:.4f}, "
           f"MC F(V=0.91)={noisy.fidelity.value:.4f} vs exact {exact:.4f}")
    assert ok


def test_criterion_9_property_suites_present(report):
    # the property suites themselves live in the sibling test modules; this
    # check pins the headline invariants once more in one place
    st = apply_circuit(n_pair_state(3), heralding_circuit(0.486))
    norm_ok = abs(st.norm_sq() - 1.0) < 1e-10

    two = apply_circuit(n_pair_state(2), heralding_circuit(0.486))
    res2 = herald(two, trigger_set("pnr"), OUTPUT_ARMS)
    suppression_ok = res2.herald_probability * res2.preparation_efficiency < 1e-12

    ok = norm_ok and suppression_ok
    report(9, ok, "norm conservation and two-pair suppression spot checks; "
                  "full property suites run in the sibling modules")
    assert ok
