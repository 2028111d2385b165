"""Experiment configuration: the source and its branches (`source_cells`),
circuit declarations, detectors and their click model
(`click_probability`), run settings.  It imports no numpy, so a config
reads and checks without it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .elements import (SOURCE_MODES, ConfigError, Mode, ModeTransform,
                       beam_splitter, compose, half_wave_plate)

# the lowest pulse count and seed; both lie below COUNT_END because numpy's
# Philox key and multinomial count are int64
COUNT_LOW = {"pulses": 1, "seed": 0}
COUNT_END = 2 ** 63

THRESHOLD = "threshold"
NUMBER_RESOLVING = "pnr"


@dataclass(frozen=True)
class SpdcParams:
    r: float
    n_max: int = 4

    def __post_init__(self):
        if not self.r >= 0:
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


def source_cells(params: SpdcParams, noise: SourceNoise
                 ) -> list[tuple[int, int, float]]:
    """(n, j, weight) of each nonzero source branch P-^(n-j) P+^j |0>: n
    pairs, j flipped, each with chance f = (1-V)/2, as a dephased pair (1-V)
    is the singlet or its sigma_z flip: weight p_n C(n,j) (1-f)^(n-j) f^j."""
    f = (1.0 - noise.visibility) / 2.0
    cells = []
    for n in range(params.n_max + 1):
        # stop at the first p_n that is 0.0: p1 <= 8/27 keeps tanh^2 r <=
        # 1/3, so p_(n+1)/p_n <= 2/3 and no later p_n is nonzero
        if (p_n := pair_probability(n, params.r)) == 0.0:
            break
        for j in range(n + 1):
            if (w := math.comb(n, j) * (1.0 - f) ** (n - j) * f ** j) > 0.0:
                cells.append((n, j, p_n * w))
    return cells


def coupling_from_rate(p1: float) -> float:
    """Invert p_1(r) = 2 tanh^2(r)/cosh^4(r) on its increasing branch: with
    x = tanh^2(r), p_1 = 2x(1-x)^2 rises on [0, 1/3] to 8/27.  The cubic's
    smallest root by the trigonometric formula, then one Newton step for the
    relative precision its cancellation loses at small p_1."""
    if not p1 >= 0:
        raise ConfigError(f"p1={p1} must be >= 0")
    if p1 > 8.0 / 27.0:
        raise ConfigError(f"p1={p1} exceeds achievable maximum {8.0 / 27.0:.6g}")
    x = (2.0 + 2.0 * math.cos(
        (math.acos(min(6.75 * p1 - 1.0, 1.0)) + 2.0 * math.pi) / 3.0)) / 3.0
    slope = 2.0 * (1.0 - x) * (1.0 - 3.0 * x)
    if slope > 0.0:  # zero at the peak; the tangent never crosses past it
        x -= (2.0 * x * (1.0 - x) ** 2 - p1) / slope
    return math.atanh(math.sqrt(x))


@dataclass(frozen=True)
class DetectorSpec:
    id: str
    mode: Mode
    kind: str = THRESHOLD
    coupling: float = 1.0   # detection efficiency eta
    dark_rate: float = 0.0  # counts / second
    window: float = 0.0     # coincidence window, seconds

    def __post_init__(self):
        if self.kind not in (THRESHOLD, NUMBER_RESOLVING):
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        if not (0.0 <= self.coupling <= 1.0):
            raise ConfigError(f"detector {self.id}: efficiency outside [0, 1]")
        if not (self.dark_rate >= 0.0 and self.window >= 0.0):
            raise ConfigError(f"detector {self.id}: negative dark rate or window")
        if not (0.0 <= self.dark_probability < 1.0):
            raise ConfigError(f"detector {self.id}: dark probability outside [0, 1)")

    @property
    def eta(self) -> float:
        return self.coupling

    @property
    def dark_probability(self) -> float:
        return self.dark_rate * self.window


def click_probability(det: DetectorSpec, n: int) -> float:
    """Probability that `det` registers its event when n photons reach it.

    A threshold detector's event is any click: 1 - (1-eta)^n (1-d).  A
    number-resolving detector's event is a reading of exactly one photon:
    n eta (1-eta)^(n-1) (1-d) + (1-eta)^n d.
    """
    eta, d = det.eta, det.dark_probability
    if det.kind == THRESHOLD:
        # on vacuum the dark probability itself, not 1 - (1 - d)
        return 1.0 - (1.0 - eta) ** n * (1.0 - d) if n else d
    one_detected = n * eta * (1.0 - eta) ** (n - 1) if n else 0.0
    return one_detected * (1.0 - d) + (1.0 - eta) ** n * d


def threshold_detector(id: str, mode: Mode, eta: float = 1.0,
                       dark_rate: float = 0.0, window: float = 0.0
                       ) -> DetectorSpec:
    return DetectorSpec(id=id, mode=mode, kind=THRESHOLD, coupling=eta,
                        dark_rate=dark_rate, window=window)


@dataclass(frozen=True)
class BsDecl:
    input: str
    reflected_out: str
    transmitted_out: str
    R: float


@dataclass(frozen=True)
class HwpDecl:
    target: str
    angle_deg: float
    out_pols: tuple[str, str]


@dataclass(frozen=True)
class PbsDecl:
    target: str


ElementDecl = BsDecl | HwpDecl | PbsDecl


def element_transform(decl: ElementDecl) -> ModeTransform | None:
    """The transform a declared element applies.  A polarizing splitter
    only separates modes the (spatial, polarization) algebra already keeps
    apart, so it has none."""
    if isinstance(decl, BsDecl):
        return beam_splitter(decl.R, decl.input, decl.reflected_out,
                             decl.transmitted_out)
    if isinstance(decl, HwpDecl):
        return half_wave_plate(decl.angle_deg, decl.target, decl.out_pols)
    if isinstance(decl, PbsDecl):
        return None
    raise ConfigError(f"unknown element declaration {decl!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    source: SpdcParams
    noise: SourceNoise
    elements: tuple[ElementDecl, ...]
    detectors: tuple[DetectorSpec, ...]
    herald_ids: tuple[str, ...]
    bases: tuple[tuple[str, str], ...] = ()
    pulses: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        for name, low in COUNT_LOW.items():
            if not low <= getattr(self, name) < COUNT_END:
                raise ConfigError(f"{name}={getattr(self, name)} outside "
                                  f"[{low}, 2^63)")

    def transforms(self, R: float | None = None
                   ) -> tuple[ModeTransform, ...]:
        """The declared elements' transforms in propagation order; with `R`,
        every beam splitter's at R instead of its declared ratio."""
        decls = (dataclasses.replace(d, R=R)
                 if R is not None and isinstance(d, BsDecl) else d
                 for d in self.elements)
        return tuple(filter(None, map(element_transform, decls)))

    def circuit(self) -> ModeTransform:
        """The declared elements composed on the source modes."""
        return compose(self.transforms(), SOURCE_MODES)

    def trigger_detectors(self) -> list[DetectorSpec]:
        by_id = {d.id: d for d in reversed(self.detectors)}  # first wins
        if missing := [i for i in self.herald_ids if i not in by_id]:
            raise ConfigError(f"no detector with id {missing[0]!r}")
        return [by_id[i] for i in self.herald_ids]

    def output_detectors(self) -> list[DetectorSpec]:
        return [d for d in self.detectors if d.id not in self.herald_ids]

    def output_arms(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(d.mode[0] for d in self.output_detectors()))

    def beam_splitter_R(self) -> float:
        for decl in self.elements:
            if isinstance(decl, BsDecl):
                return decl.R
        raise ConfigError("config declares no beam splitter")

    def mean_trigger_eta(self) -> float:
        triggers = self.trigger_detectors()
        return sum(d.eta for d in triggers) / len(triggers)

    def mean_output_eta(self) -> float:
        outs = self.output_detectors()
        if not outs:
            raise ConfigError("config declares no output detectors")
        return sum(d.eta for d in outs) / len(outs)

    def digest(self) -> str:
        """Structural digest; changes iff the canonical serialization does."""
        import hashlib

        from .dsl import serialize
        return hashlib.sha256(serialize(self).encode()).hexdigest()
