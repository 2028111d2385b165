"""Multi-mode bosonic Fock states and creation-operator polynomials.

A mode is a (spatial, polarization) label pair.  A `PureState` is a sorted
mode tuple, one row of photon counts per term and the terms' complex
amplitudes in the orthonormal Fock basis.  A `Polynomial` key is a Python
int holding a monomial's exponents as digits in a base above every photon
number involved, the first mode least significant: multiplying monomials
adds their keys, so a linear substitution of creation operators is
polynomial multiplication on {key: coefficient} dicts.  A key is decoded
into its row once, on the vacuum.  Norms and probabilities are sums of
|amplitude|^2.  States are not modified after construction.  Nothing here
imports numpy: `mc` builds its branches with an array-backed twin of
`Polynomial`, whose int64 keys it keeps below 2^63 itself.
"""

from __future__ import annotations

import itertools
import math
import types
from typing import Iterable, Mapping, NamedTuple, Sequence

from .elements import ConfigError, Mode, ModeTransform

# Occupation pattern: sorted ((spatial, pol), count) pairs, counts > 0.
FockKey = tuple[tuple[Mode, int], ...]

DROP_TOL = 1e-12


class TruncationError(Exception):
    """Photon-number truncation exceeded."""


def mode_str(m: Mode) -> str:
    return f"{m[0]}.{m[1]}"


def places(base: int, n_modes: int) -> list[int]:
    """Place value of each mode's digit in a packed key."""
    return [base ** i for i in range(n_modes)]


class Polynomial(dict):
    """Creation-operator polynomial sum_k c_k prod_m (a_m^dag)^p_km as
    {key: c_k}, the exponents p_km packed into the key by `places`."""

    @classmethod
    def merged(cls, pairs: Iterable[tuple[int, complex]]) -> "Polynomial":
        """Sum the coefficients of equal keys."""
        out = cls()
        for key, c in pairs:
            out[key] = out.get(key, 0.0) + c
        return out

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({0: 1.0 + 0.0j})

    @classmethod
    def linear(cls, column: tuple[tuple[complex, Mode], ...],
               place: Mapping[Mode, int]) -> "Polynomial":
        return cls.merged((place[m], c) for c, m in column)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.merged(itertools.chain(self.items(), other.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({key: -c for key, c in self.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = Polynomial()
        for k, c in self.items():
            for key, coef in other.items():
                key += k
                out[key] = out.get(key, 0.0) + c * coef
        return out

    def on_vacuum(self, modes: tuple[Mode, ...], base: int) -> "PureState":
        """The state P|0> on `modes` (keys in `base`, ascending): a monomial
        prod_m (a_m^dag)^p_m makes sqrt(prod_m p_m!) |p>, its key decoded
        into the row p.  Terms at or below DROP_TOL are dropped."""
        place = places(base, len(modes))
        root = [math.sqrt(math.factorial(p)) for p in range(base)]
        rows, amps = [], []
        for key in sorted(self):
            row = tuple([key // p % base for p in place])
            amp = self[key] * math.prod(map(root.__getitem__, row))
            if abs(amp) > DROP_TOL:
                rows.append(row)
                amps.append(amp)
        return PureState(modes, tuple(rows), tuple(amps))

    def unit_state(self, modes: tuple[Mode, ...], base: int) -> "PureState":
        """`on_vacuum` divided by its norm."""
        state = self.on_vacuum(modes, base)
        norm = math.sqrt(state.norm_sq())
        return PureState(modes, state.rows, tuple(a / norm for a in state.amps))


class PureState:
    """Fock basis superposition: per term, a row of photon counts on the
    sorted `modes` and a complex amplitude; tuples, or arrays in `mc`."""

    __slots__ = ("modes", "rows", "amps")

    def __init__(self, modes: tuple[Mode, ...],
                 rows: Sequence[Sequence[int]], amps: Sequence[complex]):
        self.modes, self.rows, self.amps = modes, rows, amps

    @property
    def terms(self) -> Mapping[FockKey, complex]:
        """Read-only {FockKey: amplitude} view, built on each read."""
        return types.MappingProxyType({
            tuple((m, n) for m, n in zip(self.modes, row) if n): amp
            for row, amp in zip(self.rows, self.amps)})

    def columns(self, modes: Sequence[Mode]) -> list[int]:
        """Each of `modes`' index in a row with a 0 appended: in `self.modes`,
        or the 0 for a mode the state lacks or `modes` lists earlier."""
        index = {m: j for j, m in enumerate(self.modes)}
        return [index.pop(m, len(self.modes)) for m in modes]

    def norm_sq(self) -> float:
        return sum(amp.real ** 2 + amp.imag ** 2 for amp in self.amps)

    def occupied_modes(self) -> set[Mode]:
        return {m for m, n in zip(self.modes, map(any, zip(*self.rows))) if n}

    def __len__(self) -> int:
        return len(self.rows)


def make_vacuum() -> PureState:
    return PureState((), ((),), (1.0 + 0.0j,))


def substitute_modes(state: PureState, transform: ModeTransform) -> PureState:
    """Linear substitution of creation operators.

    Each occupied input mode must have a column in the transform.  The term
    prod_m (a_m^dag)^n_m / sqrt(n_m!) |0> becomes the product over its
    photons of their modes' columns as linear forms, over
    sqrt(prod_m n_m!); equal keys are merged and the result is put back on
    the orthonormal Fock basis.
    """
    occupied = [i for i, n in enumerate(map(any, zip(*state.rows))) if n]
    for i in occupied:
        if state.modes[i] not in transform.columns:
            raise ConfigError("transform has no column for occupied mode "
                              f"{mode_str(state.modes[i])}")
    columns = {i: transform.columns[state.modes[i]] for i in occupied}
    out_modes = tuple(sorted({om for col in columns.values()
                              for _, om in col}))
    base = max(map(sum, state.rows), default=0) + 1
    place = dict(zip(out_modes, places(base, len(out_modes))))
    linear = {i: Polynomial.linear(col, place) for i, col in columns.items()}
    terms = []
    for row, amp in zip(state.rows, state.amps):
        term = Polynomial({0: amp / math.sqrt(math.prod(
            map(math.factorial, row)))})
        for i in occupied:
            for _ in range(row[i]):
                term = term * linear[i]
        terms.append(term.items())
    return Polynomial.merged(itertools.chain.from_iterable(terms)).on_vacuum(
        out_modes, base)


class MixedState(NamedTuple):
    """Probabilistic mixture of pure states (weights may be sub-normalized)."""

    branches: tuple[tuple[float, PureState], ...]


def as_mixed(state: PureState | MixedState) -> MixedState:
    return state if isinstance(state, MixedState) else MixedState(((1.0, state),))
