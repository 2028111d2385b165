"""Closed-form estimators: efficiencies, fidelity, CHSH bound, corrections."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar

from heraldsim.fock import ConfigError
from heraldsim.source import SpdcParams, coupling_from_rate
from heraldsim.analysis import (
    Estimate,
    chsh_werner_threshold,
    correlation_from_counts,
    eff_exp,
    eff_theory,
    fidelity_phi_plus,
    four_pair_correction,
    herald_curves,
    violates_chsh,
)
from heraldsim.detect import (click_probability, fidelity_to_phi_plus,
                              threshold_detector)

from conftest import (OUTPUT_ARMS, TRIGGER_MODES, heralding_elements,
                      pnr_detector)


def test_eff_theory_formula():
    for R, eta in [(0.486, 0.1823), (0.5, 0.5), (0.3, 1.0)]:
        T = 1.0 - R
        expect = R ** 2 / (1.0 - eta * T / 2.0) ** 2
        assert eff_theory(R, eta) == pytest.approx(expect, rel=1e-12)
    assert eff_theory(0.486, 0.1823) == pytest.approx(0.2595, abs=1e-3)


def test_eff_theory_limits():
    assert eff_theory(0.5, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert eff_theory(1.0, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_eff_exp_on_published_counts():
    low = eff_exp(37, 9710, 0.129)
    high = eff_exp(14, 1347, 0.15)
    assert low.value == pytest.approx(0.229, abs=1e-3)
    assert high.value == pytest.approx(0.462, abs=1e-3)
    # Poisson error propagation on both count rates
    assert low.sigma == pytest.approx(
        low.value * math.sqrt(1.0 / 37 + 1.0 / 9710), rel=1e-10)


def test_eff_exp_validates_counts():
    with pytest.raises(ConfigError):
        eff_exp(10, 0, 0.1)
    with pytest.raises(ConfigError):
        eff_exp(10, 100, 0.0)


def test_dark_count_ratio():
    # dark clicks on vacuum against clicks from one photon: n_d t / eta to
    # leading order in the dark probability
    det = threshold_detector("s1", ("c", "x"), eta=0.15,
                             dark_rate=300.0, window=12e-9)
    assert det.dark_probability / det.eta == pytest.approx(2.4e-5, rel=1e-12)
    ratio = click_probability(det, 0) / click_probability(det, 1)
    assert ratio == pytest.approx(2.4e-5, rel=1e-4)


def chsh_value(dm, angles):
    """CHSH expectation of a two-qubit state for four analyzer angles,
    measuring in the equatorial x-z plane of each qubit."""

    def setting(theta):
        return np.array([[math.cos(theta), math.sin(theta)],
                         [math.sin(theta), -math.cos(theta)]])

    a1, a2, b1, b2 = angles

    def corr(ta, tb):
        op = np.kron(setting(ta), setting(tb))
        return float(np.real(np.trace(dm @ op)))

    return (corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2))


def best_chsh(dm):
    best = -4.0
    for seed_angles in ([0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8],
                        [0.1, 0.9, 0.4, 1.2]):
        res = minimize(lambda a: -chsh_value(dm, a), seed_angles,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def werner_phi_plus(f):
    phi = np.zeros((4, 1))
    phi[0, 0] = phi[3, 0] = 1.0 / math.sqrt(2.0)
    proj = phi @ phi.T
    return (4.0 * f - 1.0) / 3.0 * proj + (1.0 - f) / 3.0 * np.eye(4)


def test_chsh_threshold_against_angle_optimization():
    # independent oracle: find the Werner fidelity where the best CHSH
    # value over analyzer angles crosses 2
    root = brentq(lambda f: best_chsh(werner_phi_plus(f)) - 2.0,
                  0.70, 0.85, xtol=1e-10)
    assert chsh_werner_threshold() == pytest.approx(root, abs=1e-6)
    assert chsh_werner_threshold() == pytest.approx(
        (1.0 + 3.0 / math.sqrt(2.0)) / 4.0, abs=1e-12)


def test_published_fidelity_violates_chsh_at_three_sigma():
    ok, n_sigma = violates_chsh(Estimate(value=0.87, sigma=0.029))
    assert ok
    assert n_sigma == pytest.approx(3.09, abs=0.02)
    assert n_sigma >= 3.0


def test_no_violation_below_threshold():
    ok, n_sigma = violates_chsh(Estimate(value=0.75, sigma=0.01))
    assert not ok


def test_fidelity_from_correlations_dual_path():
    # the correlation estimator must agree with the direct overlap formula
    for f in (1.0, 0.92, 0.80):
        dm = werner_phi_plus(f)
        w = (4.0 * f - 1.0) / 3.0
        corr = {"xx": (w, 0.0), "yy": (-w, 0.0), "zz": (w, 0.0)}
        est = fidelity_phi_plus(corr)
        assert est.value == pytest.approx(fidelity_to_phi_plus(dm), abs=1e-10)
        assert est.value == pytest.approx(f, abs=1e-10)


def test_correlation_from_counts():
    counts = {"HH": 40, "HV": 10, "VH": 10, "VV": 40}
    e, sigma = correlation_from_counts(counts)
    assert e == pytest.approx(0.6, abs=1e-12)
    assert sigma == pytest.approx(math.sqrt((1.0 - 0.36) / 100.0), rel=1e-10)


def test_four_pair_correction_magnitude():
    r = coupling_from_rate(0.047)
    shift = four_pair_correction(SpdcParams(r=r, n_max=4), 0.486)
    assert shift == pytest.approx(-0.04683271904288216, abs=1e-12)
    # with an explicit low trigger efficiency the same inefficiency that
    # suppresses extra photons filters the four-pair class, so the shift
    # is much smaller
    weak = four_pair_correction(SpdcParams(r=r, n_max=4), 0.486, 0.167)
    assert abs(weak) < abs(shift)


def test_four_pair_correction_grows_with_pumping():
    shifts = [abs(four_pair_correction(SpdcParams(r=r, n_max=4), 0.486))
              for r in (0.10, 0.158, 0.22)]
    assert shifts[0] < shifts[1] < shifts[2]


def test_four_pair_correction_needs_four_pair_sector():
    with pytest.raises(ConfigError):
        four_pair_correction(SpdcParams(r=0.1, n_max=3), 0.486)


def heralding_curve(make_trigger, eta=1.0):
    """The three-pair herald through `heralding_elements` as a curve in R."""
    triggers = [make_trigger(f"t{i}", m, eta=eta)
                for i, m in enumerate(TRIGGER_MODES, start=1)]
    return herald_curves([((3, 0), triggers)], heralding_elements,
                         OUTPUT_ARMS)


@pytest.mark.parametrize("make_trigger", [threshold_detector, pnr_detector])
def test_ideal_heralded_weight_is_one_monomial(make_trigger):
    # ideal triggers herald the one-photon-per-arm part, one photon per
    # trigger mode: two reflections and four transmissions, so herald
    # probability x efficiency is T^4 R^2 / 2 (criterion 6), the monomial
    # (2R)^1 (2T)^2 per splitter times 1/128
    curve = heralding_curve(make_trigger)
    traces = np.trace(curve.states()[:, 0], axis1=1, axis2=2).real
    [only] = np.flatnonzero(np.abs(traces) > 1e-15)
    assert list(curve.monomials[only]) == [1, 2, 1, 2]
    assert traces[only] == pytest.approx(1.0 / 128.0, rel=1e-14)

    def heralded(R):
        [res] = curve.heralds(R)
        return res.herald_probability * res.preparation_efficiency
    for R in (0.2, 1.0 / 3.0, 0.5, 0.9):
        assert heralded(R) == pytest.approx((1 - R) ** 4 * R ** 2 / 2,
                                            rel=1e-13)
    best = minimize_scalar(lambda R: -heralded(R), bounds=(0.01, 0.99),
                           method="bounded", options={"xatol": 1e-12})
    assert 1.0 - best.x == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_curve_efficiency_matches_formula_on_criterion_2_grid():
    # dark-free threshold triggers: the curve's efficiency is eff_theory
    worst = 0.0
    for eta in np.linspace(0.1, 1.0, 5):
        curve = heralding_curve(threshold_detector, float(eta))
        for R in np.linspace(0.3, 0.7, 5):
            [res] = curve.heralds(float(R))
            worst = max(worst, abs(res.preparation_efficiency
                                   - eff_theory(float(R), float(eta))))
    assert worst < 1e-10
