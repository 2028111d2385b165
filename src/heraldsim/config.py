"""Experiment configuration: circuit declarations, detectors, run settings."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .detect import DetectorSpec
from .elements import (SOURCE_MODES, ModeTransform, beam_splitter, compose,
                       half_wave_plate)
from .fock import ConfigError
from .source import SourceNoise, SpdcParams

# the lowest pulse count and seed; both lie below COUNT_END because numpy's
# Philox key and multinomial count are int64
COUNT_LOW = {"pulses": 1, "seed": 0}
COUNT_END = 2 ** 63


@dataclass(frozen=True)
class BsDecl:
    input: str
    reflected_out: str
    transmitted_out: str
    R: float
    kind: str = "bs"


@dataclass(frozen=True)
class HwpDecl:
    target: str
    angle_deg: float
    out_pols: tuple[str, str]
    kind: str = "hwp"


@dataclass(frozen=True)
class PbsDecl:
    target: str
    kind: str = "pbs"


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

    def detector_by_id(self, det_id: str) -> DetectorSpec:
        for det in self.detectors:
            if det.id == det_id:
                return det
        raise ConfigError(f"no detector with id {det_id!r}")

    def trigger_detectors(self) -> list[DetectorSpec]:
        return [self.detector_by_id(i) for i in self.herald_ids]

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
        from .dsl import serialize
        return hashlib.sha256(serialize(self).encode()).hexdigest()
