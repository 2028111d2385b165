"""Multi-pair SPDC source states and the imperfect-visibility noise model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import ConfigError, MixedState, PureState, apply_creation, make_vacuum


@dataclass(frozen=True)
class SpdcParams:
    r: float
    n_max: int = 4

    def __post_init__(self):
        if self.r < 0:
            raise ConfigError(f"coupling r={self.r} must be >= 0")
        if self.n_max < 1:
            raise ConfigError(f"n_max={self.n_max} must be >= 1")


@dataclass(frozen=True)
class SourceNoise:
    visibility: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ConfigError(f"visibility {self.visibility} outside [0, 1]")


def pair_probability(n: int, r: float) -> float:
    """p_n = (n+1) tanh^{2n}(r) / cosh^4(r)."""
    if n < 0:
        raise ConfigError("pair count must be >= 0")
    if r == 0.0:
        return 1.0 if n == 0 else 0.0
    return (n + 1) * math.tanh(r) ** (2 * n) / math.cosh(r) ** 4


def coupling_from_rate(p1: float) -> float:
    """Invert p_1(r) = 2 tanh^2(r)/cosh^4(r) on its increasing branch: with
    x = tanh^2(r), p_1 = 2x(1-x)^2 rises on [0, 1/3] to 8/27.  The cubic's
    smallest root by the trigonometric formula, then one Newton step for the
    relative precision its cancellation loses at small p_1."""
    if p1 < 0:
        raise ConfigError(f"p1={p1} must be >= 0")
    if p1 > 8.0 / 27.0:
        raise ConfigError(f"p1={p1} exceeds achievable maximum {8.0 / 27.0:.6g}")
    x = (2.0 + 2.0 * math.cos(
        (math.acos(min(6.75 * p1 - 1.0, 1.0)) + 2.0 * math.pi) / 3.0)) / 3.0
    slope = 2.0 * (1.0 - x) * (1.0 - 3.0 * x)
    if slope > 0.0:  # zero at the peak; the tangent never crosses past it
        x -= (2.0 * x * (1.0 - x) ** 2 - p1) / slope
    return math.atanh(math.sqrt(x))


_MODE_AX = ("a", "x")
_MODE_AY = ("a", "y")
_MODE_BX = ("b", "x")
_MODE_BY = ("b", "y")


def _apply_pair_operator(state: PureState, sign: float,
                         max_photons: int) -> PureState:
    """Apply a_x b_y + sign * a_y b_x (creation operators)."""
    first = apply_creation(apply_creation(state, _MODE_AX, max_photons),
                           _MODE_BY, max_photons)
    second = apply_creation(apply_creation(state, _MODE_AY, max_photons),
                            _MODE_BX, max_photons)
    return first.add(second.scaled(sign))


def _pair_power_state(n_singlet: int, n_flipped: int,
                      max_photons: int) -> PureState:
    """Normalized state from n_singlet singlet-pair ops and n_flipped
    phase-flipped ones applied to vacuum."""
    state = make_vacuum()
    for _ in range(n_singlet):
        state = _apply_pair_operator(state, -1.0, max_photons)
    for _ in range(n_flipped):
        state = _apply_pair_operator(state, +1.0, max_photons)
    return state.normalized()


def n_pair_state(n: int) -> PureState:
    """Normalized n-pair state: (a_x b_y - a_y b_x)^n |vac> up to norm.

    The unnormalized operator-power expansion has norm^2 = (n+1)(n!)^2.
    """
    if n == 0:
        return make_vacuum()
    return _pair_power_state(n, 0, max_photons=2 * n)


def truncation_deficit(params: SpdcParams) -> float:
    return 1.0 - sum(pair_probability(n, params.r)
                     for n in range(params.n_max + 1))


def dephased_branch_weights(n: int, visibility: float) -> list[float]:
    """Weight of the branch with j phase-flipped pairs out of n.

    Each emitted pair is ideal with probability V and H/V-dephased with
    probability 1-V; a dephased pair is an equal mixture of the singlet and
    its one-arm sigma_z flip, so the flip probability per pair is (1-V)/2.
    """
    p_flip = (1.0 - visibility) / 2.0
    return [math.comb(n, j) * (1.0 - p_flip) ** (n - j) * p_flip ** j
            for j in range(n + 1)]


def dephased_source(params: SpdcParams, noise: SourceNoise) -> MixedState:
    """Incoherent mixture over (pair number, number of flipped pairs).

    The one-pair branch reproduces diagonal-basis visibility V exactly.
    """
    branches = []
    for n in range(params.n_max + 1):
        p_n = pair_probability(n, params.r)
        if p_n <= 0.0:
            continue
        for j, w in enumerate(dephased_branch_weights(n, noise.visibility)):
            if w <= 0.0:
                continue
            branches.append((p_n * w, _pair_power_state(n - j, j, 2 * n)))
    return MixedState(tuple(branches))
