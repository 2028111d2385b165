"""The exact path's pair sectors against the circuit-substitution route.

`herald`, `sweep` and `four_pair_correction` build their three- and
four-pair sectors with `source.pair_power_states` from the pair operators
taken through the composed circuit.  The reference kept here is the route
they replaced: the normalized n-pair source state substituted through the
circuit with `apply_circuit`, then heralded.
"""

import math

import numpy as np
import pytest

from heraldsim import source
from heraldsim.analysis import four_pair_correction
from heraldsim.detect import herald, threshold_detector
from heraldsim.dsl import parse
from heraldsim.elements import TRIGGER_MODES, apply_circuit, heralding_circuit
from heraldsim.source import (SpdcParams, coupling_from_rate, n_pair_state,
                              pair_power_states, pair_probability)

from conftest import RELABELLED_5050, fixture_text

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
    res3 = herald(reference_sector(3, heralding_circuit(R)), triggers)
    if p4 == 0.0:
        return 0.0
    res4 = herald(reference_sector(4, heralding_circuit(R)), triggers)
    good = (p3 * res3.herald_probability * res3.preparation_efficiency
            + p4 * res4.herald_probability * res4.preparation_efficiency)
    trig = p3 * res3.herald_probability + p4 * res4.herald_probability
    if trig == 0.0 or res3.preparation_efficiency == 0.0:
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
        assert set(got.terms) == set(want.terms)
        assert max(abs(got.terms[k] - a) for k, a in want.terms.items()) \
            < 1e-12
        res, ref = herald(got, triggers, arms), herald(want, triggers, arms)
        assert res.heralded == ref.heralded
        for name in ("herald_probability", "preparation_efficiency"):
            assert math.isclose(getattr(res, name), getattr(ref, name),
                                rel_tol=1e-12, abs_tol=0.0), (n, name)


@pytest.mark.parametrize("R", [0.3, 0.486, 1.0])
@pytest.mark.parametrize("eta_t", [0.167, 1.0])
def test_four_pair_correction_matches_substitution_route(R, eta_t):
    params = parse(fixture_text("paper_5050.exp")).source
    assert math.isclose(four_pair_correction(params, R, eta_t),
                        reference_four_pair_correction(params, R, eta_t),
                        rel_tol=1e-12, abs_tol=0.0)


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


def test_memoized_source_norms_match_closed_form():
    powers = tuple((k, n - k) for n in range(7) for k in range(n + 1))
    scales = source._source_scales(powers)
    for (k, j), scale in zip(powers, scales):
        assert math.isclose(1.0 / scale ** 2, closed_form_norm_sq(k, j),
                            rel_tol=1e-14), (k, j)
    # one power at a time, as n_pair_state asks for them
    for k, j in powers:
        assert math.isclose(1.0 / source._source_scales(((k, j),))[0] ** 2,
                            closed_form_norm_sq(k, j), rel_tol=1e-14)


def test_closed_form_norm_of_n_pairs():
    # P-^n alone: (n + 1) (n!)^2, the n-pair normalization
    for n in range(7):
        assert closed_form_norm_sq(n, 0) == (n + 1) * math.factorial(n) ** 2


@pytest.mark.parametrize("with_map", [False, True])
def test_repeated_call_is_bit_identical(with_map):
    powers = [(3, 0), (2, 1), (4, 0), (1, 3)]
    transform = heralding_circuit(0.486) if with_map else None
    source._source_scales.cache_clear()
    first = pair_power_states(powers, transform)
    assert source._source_scales.cache_info().misses == 1
    second = pair_power_states(powers, transform)
    assert source._source_scales.cache_info().hits == 1
    for a, b in zip(first, second):
        assert a.modes == b.modes and a.base == b.base
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.amps, b.amps)
