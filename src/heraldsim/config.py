"""Experiment configuration: circuit declarations, detectors, run settings."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .detect import DetectorSpec
from .elements import CircuitSpec, beam_splitter, half_wave_plate
from .fock import ConfigError, Mode
from .source import SourceNoise, SpdcParams


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
        if self.pulses <= 0:
            raise ConfigError("pulses must be > 0")

    def circuit(self) -> CircuitSpec:
        """The declared elements in propagation order.  A polarizing splitter
        only separates modes the (spatial, polarization) algebra already
        keeps apart, so it adds no transform."""
        transforms = []
        for decl in self.elements:
            if isinstance(decl, BsDecl):
                transforms.append(beam_splitter(
                    decl.R, decl.input, decl.reflected_out,
                    decl.transmitted_out))
            elif isinstance(decl, HwpDecl):
                transforms.append(half_wave_plate(
                    decl.angle_deg, decl.target, decl.out_pols))
            elif not isinstance(decl, PbsDecl):
                raise ConfigError(f"unknown element declaration {decl!r}")
        return CircuitSpec(tuple(transforms))

    def detector_by_id(self, det_id: str) -> DetectorSpec:
        for det in self.detectors:
            if det.id == det_id:
                return det
        raise ConfigError(f"no detector with id {det_id!r}")

    def trigger_detectors(self) -> list[DetectorSpec]:
        return [self.detector_by_id(i) for i in self.herald_ids]

    def output_detectors(self) -> list[DetectorSpec]:
        herald = set(self.herald_ids)
        return [d for d in self.detectors if d.id not in herald]

    def output_arms(self) -> tuple[str, ...]:
        arms = []
        for det in self.output_detectors():
            if det.mode[0] not in arms:
                arms.append(det.mode[0])
        return tuple(arms)

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


def initial_modes() -> set[Mode]:
    """Modes the SPDC source emits into."""
    return {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
