import math

import pytest

from heraldsim import fixture_path
from heraldsim.dsl import parse
from heraldsim.elements import (beam_splitter, compose, half_wave_plate,
                                measurement_rotation)
from heraldsim.source import SOURCE_MODES


# Small circuit with bright pumping and ideal detectors; trigger rates are
# high enough for Monte Carlo statistics within a few million pulses.
BOOSTED_CONFIG = """
source spdc p1=0.25 nmax=3 visibility=1.0
bs in=a refl=c trans=e R=0.5
bs in=b refl=d trans=f R=0.5
hwp on=f angle=-22.5 out=xp,yp
pbs on=e
pbs on=f
detector id=t1 mode=e:x
detector id=t2 mode=e:y
detector id=t3 mode=f:xp
detector id=t4 mode=f:yp
detector id=s1 mode=c:x
detector id=s2 mode=c:y
detector id=s3 mode=d:x
detector id=s4 mode=d:y
herald t1 t2 t3 t4
basis HV HV
basis DA DA
basis RL RL
pulses 2000000
seed 7
"""


def fixture_text(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


# paper_5050 with the trigger-arm polarizations relabelled: the same physics
RELABELLED_5050 = (fixture_text("paper_5050.exp").replace("out=xp,yp", "out=u,v")
                   .replace("mode=f:xp", "mode=f:u").replace("mode=f:yp", "mode=f:v"))

# paper_5050 with a wave plate on output arm c that relabels its modes u, v:
# a local rotation, so the one-photon-per-arm herald is the same
ROTATED_ARM_5050 = (fixture_text("paper_5050.exp").replace(
    "hwp on=f angle=-22.5 out=xp,yp\n",
    "hwp on=f angle=-22.5 out=xp,yp\nhwp on=c angle=10 out=u,v\n")
    .replace("mode=c:x", "mode=c:u").replace("mode=c:y", "mode=c:v"))


@pytest.fixture(scope="session")
def paper_5050():
    return parse(fixture_text("paper_5050.exp"))


@pytest.fixture(scope="session")
def boosted_config():
    return parse(BOOSTED_CONFIG)


def close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def detector_map(R, angle, basis):
    """A composed source -> detector map: both splitters at R, a plate at
    `angle` on trigger arm f and the measurement rotations of output arms c
    and d."""
    return compose((
        beam_splitter(R, "a", reflected_out="c", transmitted_out="e"),
        beam_splitter(R, "b", reflected_out="d", transmitted_out="f"),
        half_wave_plate(angle, "f"),
        measurement_rotation("c", basis[0]),
        measurement_rotation("d", basis[1])), SOURCE_MODES)
