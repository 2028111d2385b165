"""Seeded workload inputs: `.exp` configs derived from the bundled fixtures.

Each config keeps its fixture's layout (elements, detector modes, dark
counts, bases) and draws R, the detection efficiencies, p1, the visibility
and the Monte Carlo seed from a generator seeded by (workload, seed), so
the same seed always yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from heraldsim import fixture_path
from heraldsim.config import BsDecl, ExperimentConfig
from heraldsim.detect import NUMBER_RESOLVING
from heraldsim.dsl import parse, serialize, validate
from heraldsim.source import SourceNoise, coupling_from_rate

FIXTURES = ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp")

# Brighter than the published settings, like the test suite's boosted
# config: at the fixtures' efficiencies a pulse heralds with probability
# ~1e-9, so 1e7 pulses would hold no six-fold and the count checks would
# have no power.  The enumeration cost does not depend on these values.
RANGES = {
    "R": (0.40, 0.60),
    "eta_t": (0.60, 0.90),
    "eta_s": (0.50, 0.80),
    "p1": (0.15, 0.25),
    "visibility": (0.85, 0.98),
}

MC_PULSES = {"mc_pulse": 10_000_000, "mc_aggregate": 1_000_000_000}
SMOKE_MC_PULSES = {"mc_pulse": 20_000, "mc_aggregate": 10_000_000}


def derive(fixture: str, rng: random.Random, pnr_triggers: bool = False,
           pulses: int | None = None) -> ExperimentConfig:
    """One config with the fixture's layout and seeded parameters."""
    base = parse(fixture_path(fixture).read_text(encoding="utf-8"))
    draw = {name: round(rng.uniform(lo, hi), 4)
            for name, (lo, hi) in RANGES.items()}
    elements = tuple(dataclasses.replace(e, R=draw["R"])
                     if isinstance(e, BsDecl) else e for e in base.elements)
    detectors = []
    for det in base.detectors:
        if det.id in base.herald_ids:
            det = dataclasses.replace(
                det, coupling=draw["eta_t"],
                kind=NUMBER_RESOLVING if pnr_triggers else det.kind)
        else:
            det = dataclasses.replace(det, coupling=draw["eta_s"])
        detectors.append(det)
    return dataclasses.replace(
        base,
        source=dataclasses.replace(base.source,
                                   r=coupling_from_rate(draw["p1"])),
        noise=SourceNoise(visibility=draw["visibility"]),
        elements=elements, detectors=tuple(detectors),
        pulses=pulses or base.pulses, seed=rng.randrange(2 ** 31))


def workload_configs(workload: str, seed: int,
                     smoke: bool = False) -> list[ExperimentConfig]:
    rng = random.Random(f"{workload}:{seed}")
    pulses = (SMOKE_MC_PULSES if smoke else MC_PULSES).get(workload)
    if workload == "exact":
        return [derive(FIXTURES[0], rng), derive(FIXTURES[1], rng),
                derive(FIXTURES[2], rng, pnr_triggers=True)]
    if workload == "mc_pulse":
        return [derive(FIXTURES[0], rng, pulses=pulses)]
    if workload == "mc_aggregate":
        return [derive(f, rng, pulses=pulses) for f in FIXTURES]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, out_dir: Path,
                 smoke: bool = False) -> list[Path]:
    """Serialize the workload's configs; every file must validate cleanly."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, config in enumerate(workload_configs(workload, seed, smoke)):
        path = out_dir / f"{workload}_{i}.exp"
        path.write_text(serialize(config), encoding="utf-8")
        diagnostics = validate(parse(path.read_text(encoding="utf-8")))
        if diagnostics:
            raise ValueError(f"{path.name}: generated config does not "
                             f"validate cleanly: {diagnostics}")
        paths.append(path)
    return paths
