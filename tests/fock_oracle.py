"""Reference route for the Fock-state algebra, kept as the oracle for the
packed-array `heraldsim.fock.substitute_modes` and the pair-polynomial
branches of `heraldsim.source.pair_power_states`.

States are plain {FockKey: amplitude} dicts walked term by term: creation
operators act one photon at a time, a substitution expands each term's
column powers by the multinomial theorem and merges equal keys in a dict,
and source branches apply the pair operators a_x b_y -/+ a_y b_x one pair
at a time.  Nothing here is shared with the array route beyond reading
`PureState.terms` and building a `PureState` from a dict.
"""

from __future__ import annotations

import math
from typing import Iterator

from heraldsim.elements import ModeTransform
from heraldsim.fock import (DROP_TOL, ConfigError, FockKey, Mode, PureState,
                            TruncationError, mode_str)
from heraldsim.source import pair_probability

MAX_PHOTONS = 8


def canonical_key(occupations: dict[Mode, int]) -> FockKey:
    """Sorted ((spatial, pol), count) pairs of the occupied modes."""
    return tuple(sorted((m, n) for m, n in occupations.items() if n > 0))


def photons(key: FockKey) -> int:
    return sum(n for _, n in key)


def max_photons(state: PureState) -> int:
    """The largest photon number of any of the state's terms."""
    return max(map(photons, state.terms), default=0)


def make_vacuum() -> PureState:
    return PureState((), ((),), (1.0 + 0.0j,))


def from_terms(terms: dict[FockKey, complex]) -> PureState:
    """The `PureState` of a {FockKey: amplitude} map, dropping terms at or
    below DROP_TOL."""
    terms = {k: a for k, a in terms.items() if abs(a) > DROP_TOL}
    modes = tuple(sorted({m for key in terms for m, _ in key}))
    counts = [dict(key) for key in terms]
    return PureState(modes,
                     tuple(tuple(c.get(m, 0) for m in modes) for c in counts),
                     tuple(map(complex, terms.values())))


def add(u: PureState, v: PureState, factor: complex = 1.0) -> PureState:
    """u + factor v."""
    terms = dict(u.terms)
    for key, amp in v.terms.items():
        terms[key] = terms.get(key, 0.0) + factor * amp
    return from_terms(terms)


def normalized(state: PureState) -> PureState:
    scale = 1.0 / math.sqrt(state.norm_sq())
    return from_terms({k: a * scale for k, a in state.terms.items()})


def apply_creation(state: PureState, m: Mode,
                   max_photons: int = MAX_PHOTONS) -> PureState:
    """Apply a creation operator: |n> -> sqrt(n+1) |n+1> on the given mode."""
    terms: dict[FockKey, complex] = {}
    for key, amp in state.terms.items():
        if photons(key) + 1 > max_photons:
            raise TruncationError(
                f"creation on {mode_str(m)} exceeds truncation {max_photons}")
        occ = dict(key)
        n = occ.get(m, 0)
        occ[m] = n + 1
        new_key = canonical_key(occ)
        terms[new_key] = terms.get(new_key, 0.0) + amp * math.sqrt(n + 1)
    return from_terms(terms)


def pair_operator(state: PureState, sign: float,
                  max_photons: int = MAX_PHOTONS) -> PureState:
    """Apply a_x b_y + sign * a_y b_x (creation operators)."""
    first = apply_creation(apply_creation(state, ("a", "x"), max_photons),
                           ("b", "y"), max_photons)
    second = apply_creation(apply_creation(state, ("a", "y"), max_photons),
                            ("b", "x"), max_photons)
    return add(first, second, sign)


def pair_power_state(n_singlet: int, n_flipped: int) -> PureState:
    """Normalized state from n_singlet singlet-pair operators and n_flipped
    phase-flipped ones applied to vacuum."""
    state, top = make_vacuum(), 2 * (n_singlet + n_flipped)
    for _ in range(n_singlet):
        state = pair_operator(state, -1.0, top)
    for _ in range(n_flipped):
        state = pair_operator(state, +1.0, top)
    return normalized(state)


def dephased_branches(params, noise) -> list[tuple[float, PureState]]:
    """The source mixture, branch by branch, in the order of
    `heraldsim.source.dephased_source`: j of n pairs flipped with weight
    p_n C(n,j) (1-f)^(n-j) f^j, each pair flipped with chance
    f = (1-V)/2."""
    f = (1.0 - noise.visibility) / 2.0
    branches = []
    for n in range(params.n_max + 1):
        p_n = pair_probability(n, params.r)
        if p_n <= 0.0:
            continue
        for j in range(n + 1):
            w = math.comb(n, j) * (1.0 - f) ** (n - j) * f ** j
            if w > 0.0:
                branches.append((p_n * w, pair_power_state(n - j, j)))
    return branches


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All ways to write n as an ordered sum of k non-negative integers."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _power_expansion(column: tuple[tuple[complex, Mode], ...],
                     n: int) -> list[tuple[complex, tuple[tuple[Mode, int], ...]]]:
    """Multinomial expansion of (sum_j c_j b_j^dag)^n as monomial powers."""
    out = []
    for split in _compositions(n, len(column)):
        coef = float(math.factorial(n))
        powers = []
        for (c, m), kj in zip(column, split):
            coef /= math.factorial(kj)
            if kj:
                coef = coef * c ** kj
                powers.append((m, kj))
        out.append((coef, tuple(powers)))
    return out


def substitute_modes(state: PureState, transform: ModeTransform) -> PureState:
    """Linear substitution of creation operators, term by term: each basis
    state is re-expanded as a product of substituted creation-operator
    monomials on vacuum, with sqrt(n!) conversion factors so amplitudes stay
    in the orthonormal Fock basis."""
    columns = transform.columns
    # a monomial is one int with its exponents over `out_modes` as digits in
    # base photons+1; no exponent reaches the base, so products add the ints
    out_modes = sorted({om for col in columns.values() for _, om in col})
    base = max_photons(state) + 1
    place = {om: base ** i for i, om in enumerate(out_modes)}
    cache: dict[tuple[Mode, int], list[tuple[complex, int]]] = {}
    unpacked: dict[int, tuple[FockKey, float]] = {}
    out: dict[FockKey, complex] = {}
    for key, amp in state.terms.items():
        partial: dict[int, complex] = {0: amp}
        for m, n in key:
            col = columns.get(m)
            if col is None:
                raise ConfigError(
                    f"transform has no column for occupied mode {mode_str(m)}")
            exp = cache.get((m, n))
            if exp is None:
                exp = [(c / math.sqrt(math.factorial(n)),
                        sum(p * place[om] for om, p in powers))
                       for c, powers in _power_expansion(col, n)]
                cache[(m, n)] = exp
            nxt: dict[int, complex] = {}
            for acc, acc_coef in partial.items():
                for coef, packed in exp:
                    nxt[acc + packed] = nxt.get(acc + packed, 0.0) + acc_coef * coef
            partial = nxt
        for packed, coef in partial.items():
            entry = unpacked.get(packed)
            if entry is None:
                powers = tuple((om, p) for om in out_modes
                               if (p := packed // place[om] % base))
                entry = unpacked[packed] = (powers, math.sqrt(
                    math.prod(math.factorial(p) for _, p in powers)))
            out_key, scale = entry
            out[out_key] = out.get(out_key, 0.0) + coef * scale
    return from_terms(out)
