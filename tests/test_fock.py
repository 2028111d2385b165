"""Fock-state algebra: packed keys, substitutions, branching, and the
array route against the term-by-term oracle."""

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies

from heraldsim import mc
from heraldsim.dsl import parse
from heraldsim.fock import TruncationError, substitute_modes
from heraldsim.elements import ModeTransform, beam_splitter, half_wave_plate
from heraldsim.mc import occupation_probabilities
from heraldsim.source import SOURCE_MODES

import fock_oracle
from conftest import detector_map, fixture_text
from dilation_oracle import branch_on_modes, loss_channel
from fock_oracle import (add, apply_creation, canonical_key, from_terms,
                         make_vacuum, max_photons, normalized)


def n_photon_state(m, n, max_photons=10):
    st = make_vacuum()
    for _ in range(n):
        st = apply_creation(st, m, max_photons=max_photons)
    return st


def test_creation_operator_matrix_elements():
    # (a+)^n |0> has amplitude sqrt(n!) on |n>
    m = ("a", "x")
    for n in range(1, 7):
        st = n_photon_state(m, n)
        key = ((m, n),)
        assert math.isclose(abs(st.terms[key]), math.sqrt(math.factorial(n)),
                            rel_tol=1e-12)
        assert list(st.terms) == [key]


def test_creation_truncation_guard():
    m = ("a", "x")
    st = n_photon_state(m, 3, max_photons=3)
    with pytest.raises(TruncationError):
        apply_creation(st, m, max_photons=3)


def test_vacuum_normalized():
    vac = make_vacuum()
    assert vac.norm_sq() == pytest.approx(1.0)
    assert max_photons(vac) == 0


def test_inner_product_orthonormality():
    # |u + v|^2 = |u|^2 + |v|^2 + 2 Re<u, v> and |u + iv|^2 adds 2 Im<u, v>,
    # so distinct Fock states are orthonormal iff every sum has norm^2 2
    a, b = ("a", "x"), ("a", "y")
    one = n_photon_state(a, 1)
    other = n_photon_state(b, 1)
    two = normalized(n_photon_state(a, 2))
    for u in (one, two):
        assert u.norm_sq() == pytest.approx(1.0)
    for u, v in ((one, other), (one, two), (two, other)):
        for phase in (1.0, 1j):
            assert add(u, v, phase).norm_sq() == pytest.approx(2.0)


def test_hong_ou_mandel_cancellation():
    # one photon in each input of a balanced splitter: coincidence term vanishes
    st = make_vacuum()
    st = apply_creation(st, ("a", "x"))
    st = apply_creation(st, ("b", "x"))
    s = 1.0 / math.sqrt(2.0)
    c, e = ("c", "x"), ("e", "x")
    splitter = ModeTransform({("a", "x"): ((s, c), (s, e)),
                              ("b", "x"): ((-s, c), (s, e))})
    out = substitute_modes(st, splitter)
    coincidence = ((("c", "x"), 1), (("e", "x"), 1))
    amp = out.terms.get(tuple(sorted(coincidence)), 0.0)
    assert abs(amp) < 1e-12
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_substitution_preserves_norm_many_photons():
    # an isometric substitution must conserve probability, also for states
    # spread over many modes and photon numbers
    st = make_vacuum()
    layout = [("a", "x", 3), ("a", "y", 2), ("b", "x", 2), ("b", "y", 1)]
    for spatial, pol, n in layout:
        for _ in range(n):
            st = apply_creation(st, (spatial, pol), max_photons=8)
    st = normalized(st)
    bs = beam_splitter(0.37, "a", reflected_out="c", transmitted_out="e")
    hw = half_wave_plate(-22.5, "b", ("xp", "yp"))
    out = substitute_modes(st, bs.extended(st.occupied_modes()))
    out = substitute_modes(out, hw.extended(out.occupied_modes()))
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_projection_probabilities_partition():
    st = make_vacuum()
    st = apply_creation(st, ("a", "x"))
    st = apply_creation(st, ("a", "x"))
    st = apply_creation(st, ("a", "y"))
    st = normalized(st)
    bs = beam_splitter(0.3, "a", reflected_out="c", transmitted_out="e")
    out = substitute_modes(st, bs.extended(st.occupied_modes()))
    # the two x photons split binomially between c.x and e.x
    occ, probs = occupation_probabilities(out, [("c", "x")])
    assert occ.ravel().tolist() == [0, 1, 2]
    expect = [math.comb(2, n) * 0.3 ** n * 0.7 ** (2 - n) for n in range(3)]
    assert probs == pytest.approx(expect, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_loss_branching_is_binomial():
    eta = 0.62
    n = 3
    m = ("a", "x")
    st = normalized(n_photon_state(m, n))
    lost = substitute_modes(st, loss_channel(m, eta).extended(st.occupied_modes()))
    env = [k for k in lost.occupied_modes() if k != m]
    mix = branch_on_modes(lost, env)
    weights = sorted(w for w, _ in mix.branches)
    expect = sorted(math.comb(n, j) * (1 - eta) ** j * eta ** (n - j)
                    for j in range(n + 1))
    assert len(weights) == n + 1
    for w, e in zip(weights, expect):
        assert w == pytest.approx(e, abs=1e-12)


def test_branch_weights_sum_to_norm():
    st = make_vacuum()
    for m in (("a", "x"), ("a", "x"), ("b", "y")):
        st = apply_creation(st, m)
    st = normalized(st)
    lost = substitute_modes(
        st, loss_channel(("a", "x"), 0.4).extended(st.occupied_modes()))
    env = [m for m in lost.occupied_modes() if m[0].startswith("~")]
    mix = branch_on_modes(lost, env)
    assert sum(w for w, _ in mix.branches) == pytest.approx(1.0, abs=1e-12)


@strategies.composite
def small_states(draw):
    """At most 4 photons per term on at most 4 source modes, amplitudes of
    modulus 0.1 to 1 with any phase."""
    modes = draw(strategies.lists(strategies.sampled_from(SOURCE_MODES),
                                  min_size=1, max_size=4, unique=True))
    terms = {}
    for _ in range(draw(strategies.integers(1, 6))):
        photons = draw(strategies.lists(strategies.sampled_from(modes),
                                        max_size=4))
        size = draw(strategies.floats(0.1, 1.0))
        phase = draw(strategies.floats(0.0, 2.0 * math.pi))
        terms[canonical_key(collections.Counter(photons))] = size * complex(
            math.cos(phase), math.sin(phase))
    return from_terms(terms)


@settings(max_examples=150, deadline=None)
@given(state=small_states(), R=strategies.floats(0.05, 0.95),
       angle=strategies.floats(5.0, 40.0), flip=strategies.booleans(),
       basis=strategies.tuples(*[strategies.sampled_from(["HV", "DA", "RL"])]
                               * 2))
def test_substitution_matches_term_by_term_oracle(state, R, angle, flip,
                                                  basis):
    transform = detector_map(R, -angle if flip else angle, basis)
    got = substitute_modes(state, transform)
    want = fock_oracle.substitute_modes(state, transform)
    got, want = got.terms, want.terms
    assert set(got) == set(want)
    assert max(abs(got[k] - a) for k, a in want.items()) < 1e-12


def test_terms_view_round_trips_packed_keys():
    # the term at DROP_TOL's order is dropped on construction
    state = from_terms({
        ((("a", "x"), 2), (("b", "y"), 1)): 0.6,
        ((("a", "y"), 3),): 0.8j, (): 1e-13})
    assert state.modes == (("a", "x"), ("a", "y"), ("b", "y"))
    assert state.rows == ((2, 0, 1), (0, 3, 0)) and len(state) == 2
    assert dict(state.terms) == {
        ((("a", "x"), 2), (("b", "y"), 1)): 0.6,
        ((("a", "y"), 3),): 0.8j}
    with pytest.raises(TypeError):
        state.terms[()] = 1.0
    with pytest.raises(TypeError):
        state.amps[0] = 0.0


def test_packed_key_overflow_is_a_truncation_error():
    # the Fock core's keys are Python integers of any size: one photon on
    # each of 63 modes packs in base 2 to 2^63, and a substitution spreading
    # 3 photons over 32 output modes packs in base 4 to 4^32 = 2^64
    modes = [(f"m{i}", "x") for i in range(63)]
    wide = from_terms({((m, 1),): 1.0 for m in modes})
    assert wide.occupied_modes() == set(modes)
    state = from_terms({((("a", "x"), 3),): 1.0})
    spread = ModeTransform({("a", "x"): tuple(
        (1 / math.sqrt(32) + 0j, (f"o{i}", "x")) for i in range(32))})
    got = substitute_modes(state, spread)
    assert len(got) == math.comb(34, 3)
    assert got.norm_sq() == pytest.approx(1.0, abs=1e-12)
    got, want = got.terms, fock_oracle.substitute_modes(state, spread).terms
    assert set(got) == set(want)
    assert max(abs(got[k] - a) for k, a in want.items()) < 1e-12
    # the click tables' keys are int64: paper_5050's 8 detector modes hold
    # up to 2 nmax photons in base 2 nmax + 1, which reaches 2^63 at nmax 117
    config = parse(fixture_text("paper_5050.exp"))
    fits, overflows = (dataclasses.replace(config, source=dataclasses.replace(
        config.source, n_max=n_max)) for n_max in (116, 117))
    mc._check_key_bound(fits, fits.circuit())
    with pytest.raises(TruncationError,
                       match="8 modes holding up to 234 photons "):
        mc.precompute_outcome_tables(overflows)
