"""Sparse algebra of multi-mode bosonic Fock states.

A mode is a (spatial, polarization) label pair.  States are stored as sparse
maps from occupation patterns to complex amplitudes in the orthonormal Fock
basis, so norms and probabilities are direct sums of |amplitude|^2.  All
values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:
    from .elements import ModeTransform

Mode = tuple[str, str]
# Occupation pattern: sorted ((spatial, pol), count) pairs, counts > 0.
FockKey = tuple[tuple[Mode, int], ...]

DROP_TOL = 1e-12
DEFAULT_MAX_PHOTONS = 8


class FockError(Exception):
    pass


class ConfigError(FockError):
    """Invalid configuration (duplicate modes, unmapped modes, bad ranges)."""


class TruncationError(FockError):
    """Photon-number truncation exceeded."""


def mode(spatial: str, pol: str) -> Mode:
    return (spatial, pol)


def mode_str(m: Mode) -> str:
    return f"{m[0]}.{m[1]}"


def canonical_key(occupations: Mapping[Mode, int]) -> FockKey:
    for m, n in occupations.items():
        if n < 0:
            raise ConfigError(f"negative occupation for mode {mode_str(m)}")
    return tuple(sorted((m, n) for m, n in occupations.items() if n > 0))


def key_photons(key: FockKey) -> int:
    return sum(n for _, n in key)


class PureState:
    """Sparse superposition of Fock basis states with complex amplitudes."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[FockKey, complex] | None = None):
        clean: dict[FockKey, complex] = {}
        if terms:
            for key, amp in terms.items():
                if abs(amp) > DROP_TOL:
                    clean[key] = complex(amp)
        self.terms = clean

    @classmethod
    def from_occupations(cls, occupations: Mapping[Mode, int],
                         amplitude: complex = 1.0) -> "PureState":
        return cls({canonical_key(occupations): amplitude})

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def scaled(self, factor: complex) -> "PureState":
        return PureState({k: a * factor for k, a in self.terms.items()})

    def normalized(self) -> "PureState":
        n2 = self.norm_sq()
        if n2 == 0.0:
            return PureState()
        return self.scaled(1.0 / math.sqrt(n2))

    def add(self, other: "PureState") -> "PureState":
        terms = dict(self.terms)
        for key, amp in other.terms.items():
            terms[key] = terms.get(key, 0.0) + amp
        return PureState(terms)

    def occupied_modes(self) -> set[Mode]:
        out: set[Mode] = set()
        for key in self.terms:
            out.update(m for m, _ in key)
        return out

    def max_photons(self) -> int:
        return max((key_photons(k) for k in self.terms), default=0)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"PureState({len(self.terms)} terms, norm^2={self.norm_sq():.6g})"


VACUUM_KEY: FockKey = ()


def make_vacuum() -> PureState:
    return PureState({VACUUM_KEY: 1.0})


def apply_creation(state: PureState, m: Mode,
                   max_photons: int = DEFAULT_MAX_PHOTONS) -> PureState:
    """Apply a creation operator: |n> -> sqrt(n+1) |n+1> on the given mode."""
    terms: dict[FockKey, complex] = {}
    for key, amp in state.terms.items():
        if key_photons(key) + 1 > max_photons:
            raise TruncationError(
                f"creation on {mode_str(m)} exceeds truncation {max_photons}")
        occ = dict(key)
        n = occ.get(m, 0)
        occ[m] = n + 1
        new_key = canonical_key(occ)
        terms[new_key] = terms.get(new_key, 0.0) + amp * math.sqrt(n + 1)
    return PureState(terms)


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
    k = len(column)
    for split in _compositions(n, k):
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
    """Linear substitution of creation operators.

    Each occupied input mode must have a column in the transform.  Basis
    states are re-expanded as products of substituted creation-operator
    monomials acting on vacuum, with sqrt(n!) conversion factors applied so
    amplitudes stay in the orthonormal Fock basis.
    """
    columns = transform.columns
    # a monomial is one int with its exponents over `out_modes` as digits in
    # base photons+1; no exponent reaches the base, so products add the ints
    out_modes = sorted({om for col in columns.values() for _, om in col})
    base = state.max_photons() + 1
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
    return PureState(out)


@dataclass(frozen=True)
class MixedState:
    """Probabilistic mixture of pure states (weights may be sub-normalized)."""

    branches: tuple[tuple[float, PureState], ...]

    @classmethod
    def pure(cls, state: PureState, weight: float = 1.0) -> "MixedState":
        return cls(((weight, state),))


def as_mixed(state: PureState | MixedState) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState.pure(state)
