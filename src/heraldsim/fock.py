"""Multi-mode bosonic Fock states as packed integer arrays.

A mode is a (spatial, polarization) label pair.  A `PureState` is a sorted
mode tuple, one int64 key per term and the terms' complex amplitudes in the
orthonormal Fock basis.  A key writes the term's photon counts as digits in
base `base` over the mode tuple, the first mode least significant.  While
the base exceeds every photon number involved, multiplying creation-operator
monomials adds their keys, so a linear substitution of creation operators is
polynomial multiplication on arrays: broadcast key sums, with equal keys
merged by `np.unique` and `bincount`.  Norms and probabilities are sums of
|amplitude|^2.  States are not modified after construction.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .elements import ConfigError, Mode, ModeTransform

# Occupation pattern: sorted ((spatial, pol), count) pairs, counts > 0.
FockKey = tuple[tuple[Mode, int], ...]

DROP_TOL = 1e-12


class TruncationError(Exception):
    """Photon-number truncation exceeded."""


def mode_str(m: Mode) -> str:
    return f"{m[0]}.{m[1]}"


def places(base: int, n_modes: int) -> np.ndarray:
    """Place value of each mode's digit in a packed key."""
    if base ** n_modes >= 2 ** 63:
        raise TruncationError(
            f"{n_modes} modes holding up to {base - 1} photons overflow a "
            "64-bit packed key")
    return base ** np.arange(n_modes, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Creation-operator polynomial sum_k coefs[k] prod_m (a_m^dag)^p_km,
    the exponents p_km packed into `keys` as in `PureState`."""

    keys: np.ndarray
    coefs: np.ndarray

    @classmethod
    def merged(cls, keys: np.ndarray, coefs: np.ndarray) -> "Polynomial":
        """Sum the coefficients of equal keys."""
        out, inverse = np.unique(keys, return_inverse=True)
        return cls(out, np.bincount(inverse, coefs.real, len(out))
                   + 1j * np.bincount(inverse, coefs.imag, len(out)))

    @classmethod
    def linear(cls, column: tuple[tuple[complex, Mode], ...],
               place: Mapping[Mode, int]) -> "Polynomial":
        return cls.merged(np.array([place[m] for _, m in column], np.int64),
                          np.array([c for c, _ in column], complex))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.merged(np.concatenate([self.keys, other.keys]),
                                 np.concatenate([self.coefs, other.coefs]))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.keys, -self.coefs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.merged((self.keys[:, None] + other.keys).ravel(),
                                 (self.coefs[:, None] * other.coefs).ravel())

    def on_vacuum(self, modes: tuple[Mode, ...], base: int) -> "PureState":
        """The state P|0> on `modes` (keys in `base`): a monomial
        prod_m (a_m^dag)^p_m makes sqrt(prod_m p_m!) |p>.  Terms at or
        below DROP_TOL are dropped."""
        digits = self.keys[:, None] // places(base, len(modes)) % base
        amps = self.coefs * np.prod(
            np.sqrt([math.factorial(p) for p in range(base)])[digits], axis=1)
        keep = np.abs(amps) > DROP_TOL
        return PureState(modes, base, self.keys[keep], amps[keep])


ONE = Polynomial(np.zeros(1, np.int64), np.ones(1, complex))


class PureState:
    """Superposition of Fock basis states: packed keys over the sorted
    `modes` in a `base` above every term's photon number, and the terms'
    complex amplitudes."""

    __slots__ = ("modes", "base", "keys", "amps")

    def __init__(self, modes: tuple[Mode, ...], base: int, keys: np.ndarray,
                 amps: np.ndarray):
        keys.flags.writeable = amps.flags.writeable = False
        self.modes, self.base, self.keys, self.amps = modes, base, keys, amps

    @property
    def terms(self) -> Mapping[FockKey, complex]:
        """Read-only {FockKey: amplitude} view, built on each read."""
        return types.MappingProxyType({
            tuple((m, n) for m, n in zip(self.modes, row) if n): amp
            for row, amp in zip(self.counts().tolist(), self.amps.tolist())})

    def counts(self) -> np.ndarray:
        """Photon counts, one row per term and one column per mode."""
        return self.keys[:, None] // places(self.base, len(self.modes)) % self.base

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def occupied_modes(self) -> set[Mode]:
        return {m for m, n in zip(self.modes, self.counts().any(axis=0)) if n}

    def __len__(self) -> int:
        return len(self.keys)


def make_vacuum() -> PureState:
    return PureState((), 1, np.zeros(1, np.int64), np.ones(1, complex))


def substitute_modes(state: PureState, transform: ModeTransform) -> PureState:
    """Linear substitution of creation operators.

    Each occupied input mode must have a column in the transform.  The term
    prod_m (a_m^dag)^n_m / sqrt(n_m!) |0> becomes the product over its modes
    of the powers L_m^n_m / sqrt(n_m!) of their columns' linear forms, each
    power computed once and applied as a broadcast key sum; equal keys are
    merged once and the result is put back on the orthonormal Fock basis.
    """
    counts = state.counts()
    occupied = [i for i in range(len(state.modes)) if counts[:, i].any()]
    for i in occupied:
        if state.modes[i] not in transform.columns:
            raise ConfigError("transform has no column for occupied mode "
                              f"{mode_str(state.modes[i])}")
    columns = [transform.columns[state.modes[i]] for i in occupied]
    out_modes = tuple(sorted({om for col in columns for _, om in col}))
    base = int(counts.sum(axis=1).max(initial=0)) + 1
    place = dict(zip(out_modes, places(base, len(out_modes)).tolist()))
    rows = np.arange(len(state))
    keys, coefs = np.zeros(len(state), np.int64), state.amps
    for i, col in zip(occupied, columns):
        linear, power, parts = Polynomial.linear(col, place), ONE, []
        photons = counts[rows, i]
        for p in range(int(photons.max()) + 1):
            # the partial products whose term holds p photons in this mode
            power = power * linear if p else ONE
            sel = np.flatnonzero(photons == p)
            parts.append((np.repeat(rows[sel], len(power.keys)),
                          (keys[sel, None] + power.keys).ravel(),
                          (coefs[sel, None] * power.coefs).ravel()
                          / math.sqrt(math.factorial(p))))
        rows, keys, coefs = (np.concatenate(part) for part in zip(*parts))
    return Polynomial.merged(keys, coefs).on_vacuum(out_modes, base)


@dataclass(frozen=True)
class MixedState:
    """Probabilistic mixture of pure states (weights may be sub-normalized)."""

    branches: tuple[tuple[float, PureState], ...]


def as_mixed(state: PureState | MixedState) -> MixedState:
    return state if isinstance(state, MixedState) else MixedState(((1.0, state),))
