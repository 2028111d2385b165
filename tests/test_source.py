"""Multi-pair downconversion source model and its dephasing noise."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from heraldsim.config import source_cells
from heraldsim.fock import ConfigError, substitute_modes
from heraldsim.source import (
    SOURCE_MODES,
    SourceNoise,
    SpdcParams,
    coupling_from_rate,
    dephased_source,
    n_pair_state,
    pair_probability,
)
from heraldsim.elements import ModeTransform

import fock_oracle
from conftest import detector_map, truncation_deficit
from fock_oracle import add, apply_creation, make_vacuum, max_photons


def test_pair_probability_form():
    r = 0.2
    th2 = math.tanh(r) ** 2
    ch4 = math.cosh(r) ** 4
    for n in range(0, 6):
        assert pair_probability(n, r) == pytest.approx(
            (n + 1) * th2 ** n / ch4, rel=1e-12)


def test_pair_probabilities_sum_to_one():
    r = 0.35
    total = sum(pair_probability(n, r) for n in range(0, 200))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p1", [0.01, 0.03, 0.047, 0.1])
def test_coupling_round_trip(p1):
    r = coupling_from_rate(p1)
    assert pair_probability(1, r) == pytest.approx(p1, abs=1e-10)


def test_coupling_matches_brentq_reference():
    # the closed form against a root search on the increasing branch, which
    # ends at tanh^2(r) = 1/3
    r_peak = math.atanh(math.sqrt(1.0 / 3.0))
    for p1 in np.linspace(0.001, 0.29, 60):
        reference = brentq(lambda r: pair_probability(1, r) - p1, 0.0, r_peak,
                           xtol=1e-300, rtol=8.9e-16, maxiter=500)
        assert coupling_from_rate(float(p1)) == pytest.approx(reference,
                                                              rel=1e-12)


def test_coupling_rejects_unreachable_rate():
    with pytest.raises(ConfigError, match="achievable maximum 0.296296"):
        coupling_from_rate(0.30)
    assert pair_probability(1, coupling_from_rate(8.0 / 27.0)) == \
        pytest.approx(8.0 / 27.0, rel=1e-15)


def test_library_rejects_nan_like_the_dsl():
    with pytest.raises(ConfigError, match="p1=nan"):
        coupling_from_rate(float("nan"))
    with pytest.raises(ConfigError, match="r=nan"):
        SpdcParams(r=float("nan"))


def test_single_pair_is_polarization_singlet():
    st = n_pair_state(1)
    key_xy = tuple(sorted(((("a", "x"), 1), (("b", "y"), 1))))
    key_yx = tuple(sorted(((("a", "y"), 1), (("b", "x"), 1))))
    s = 1.0 / math.sqrt(2.0)
    assert st.terms[key_xy] == pytest.approx(s)
    assert st.terms[key_yx] == pytest.approx(-s)
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_singlet_invariant_under_bilateral_rotation():
    theta = math.radians(30.0)
    c, s = math.cos(theta), math.sin(theta)
    cols = {}
    for spatial in ("a", "b"):
        cols[(spatial, "x")] = ((c + 0j, (spatial, "x")),
                                    (s + 0j, (spatial, "y")))
        cols[(spatial, "y")] = ((-s + 0j, (spatial, "x")),
                                    (c + 0j, (spatial, "y")))
    rot = ModeTransform(cols)
    for n in (1, 2):
        st = n_pair_state(n)
        out = substitute_modes(st, rot)
        # the same state up to a global phase, amplitude by amplitude
        st, out = st.terms, out.terms
        key = next(iter(st))
        phase = out[key] / st[key]
        assert abs(abs(phase) - 1.0) < 1e-10
        for k in set(st) | set(out):
            assert abs(out.get(k, 0.0)
                       - phase * st.get(k, 0.0)) < 1e-10


def test_pair_power_norm():
    # brute-force norm of the unnormalized n-pair creation polynomial
    for n in (1, 2, 3):
        raw = make_vacuum()
        for _ in range(n):
            raw = add(apply_creation(apply_creation(raw, ("a", "x")),
                                     ("b", "y")),
                      apply_creation(apply_creation(raw, ("a", "y")),
                                     ("b", "x")), -1.0)
        assert raw.norm_sq() == pytest.approx(
            (n + 1) * math.factorial(n) ** 2, rel=1e-12)
        assert n_pair_state(n).norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_spdc_state_coefficients():
    # at unit visibility the source holds n pairs with weight p_n
    params = SpdcParams(r=0.158, n_max=4)
    mix = dephased_source(params, SourceNoise(visibility=1.0))
    weights = [w for w, _ in mix.branches]
    assert weights == pytest.approx(
        [pair_probability(n, params.r) for n in range(5)], rel=1e-12)
    assert [max_photons(st) for _, st in mix.branches] == [0, 2, 4, 6, 8]


def test_truncation_deficit_small_at_paper_rate():
    r = coupling_from_rate(0.047)
    deficit = truncation_deficit(SpdcParams(r=r, n_max=4))
    assert 0.0 < deficit < 1e-7


def test_dephasing_branch_weights():
    params = SpdcParams(r=0.15, n_max=3)
    cells = source_cells(params, SourceNoise(visibility=0.91))
    p = [pair_probability(n, params.r) for n in range(4)]
    assert [(n, j) for n, j, _ in cells] == [
        (n, j) for n in range(4) for j in range(n + 1)]
    assert [w / p[1] for n, j, w in cells if n == 1] == pytest.approx(
        [0.955, 0.045], abs=1e-12)
    for n in (1, 2, 3):
        assert sum(w for m, _, w in cells if m == n) / p[n] == pytest.approx(
            1.0, abs=1e-12)
    # no flips at visibility 1; nothing past a p_n of 0.0
    assert [(n, j) for n, j, _ in source_cells(
        params, SourceNoise(visibility=1.0))] == [(n, 0) for n in range(4)]
    assert source_cells(SpdcParams(r=0.0, n_max=50),
                        SourceNoise(visibility=0.5)) == [(0, 0, 1.0)]


def test_dephased_source_normalized():
    params = SpdcParams(r=0.15, n_max=3)
    mix = dephased_source(params, SourceNoise(visibility=0.91))
    total = sum(w * st.norm_sq() for w, st in mix.branches)
    assert total == pytest.approx(1.0 - truncation_deficit(params), abs=1e-10)


def test_dephased_source_reduces_to_pure_at_unit_visibility():
    params = SpdcParams(r=0.15, n_max=3)
    mix = dephased_source(params, SourceNoise(visibility=1.0))
    # no flipped pairs: one branch per pair number n, the pure n-pair state
    assert len(mix.branches) == params.n_max + 1
    for n, (w, st) in enumerate(mix.branches):
        assert w == pytest.approx(pair_probability(n, params.r), rel=1e-12)
        st, ref = st.terms, n_pair_state(n).terms
        assert set(st) == set(ref)
        for key, amp in ref.items():
            assert st[key] == pytest.approx(amp, abs=1e-12)


def test_visibility_bounds_checked():
    with pytest.raises(ConfigError):
        SourceNoise(visibility=1.5)


def assert_same_state(got, want):
    got, want = got.terms, want.terms
    assert set(got) == set(want)
    assert max(abs(got[k] - a) for k, a in want.items()) < 1e-12


@pytest.mark.parametrize("R, angle, basis", [(0.486, -22.5, ("DA", "DA")),
                                             (0.3, 17.0, ("RL", "HV"))])
def test_branches_match_pair_operator_oracle(R, angle, basis):
    # each branch built from the compiled pair operators is the oracle's
    # pair-by-pair source state substituted term by term; without a map the
    # same function gives the oracle's source states themselves
    params, noise = SpdcParams(r=0.3, n_max=4), SourceNoise(visibility=0.8)
    transform = detector_map(R, angle, basis)
    reference = fock_oracle.dephased_branches(params, noise)
    built = dephased_source(params, noise, transform).branches
    assert len(built) == len(reference) == 15
    for (w, got), (w_ref, source) in zip(built, reference):
        assert w == w_ref
        assert_same_state(got, fock_oracle.substitute_modes(source, transform))
    for (_, got), (_, source) in zip(dephased_source(params, noise).branches,
                                     reference):
        assert set(got.modes) <= set(SOURCE_MODES)
        assert_same_state(got, source)
