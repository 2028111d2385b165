import math

import pytest

from heraldsim import fixture_path
from heraldsim.config import NUMBER_RESOLVING, DetectorSpec
from heraldsim.dsl import parse
from heraldsim.elements import (beam_splitter, compose, half_wave_plate,
                                measurement_rotation)
from heraldsim.source import SOURCE_MODES, pair_probability


# The published heralding layout, written out here independently of the
# fixtures: source arm a splits into output c and trigger e, arm b into
# output d and trigger f, and a wave plate at -22.5 deg turns trigger arm f
# into the diagonal labels xp, yp.  The polarizing splitters that follow
# only separate modes the (spatial, polarization) algebra keeps apart.
POL_DIAG = ("xp", "yp")
TRIGGER_MODES = (("e", "x"), ("e", "y"), ("f", "xp"), ("f", "yp"))
OUTPUT_ARMS = ("c", "d")


def heralding_elements(R):
    """The published layout's transforms with both splitters at R."""
    return (beam_splitter(R, "a", reflected_out="c", transmitted_out="e"),
            beam_splitter(R, "b", reflected_out="d", transmitted_out="f"),
            half_wave_plate(-22.5, "f", POL_DIAG))


def heralding_circuit(R):
    """`heralding_elements(R)` composed on the source modes."""
    return compose(heralding_elements(R), SOURCE_MODES)


def pnr_detector(id, mode, eta=1.0):
    """A dark-free number-resolving detector."""
    return DetectorSpec(id=id, mode=mode, kind=NUMBER_RESOLVING, coupling=eta)


def truncation_deficit(params):
    """The source weight above nmax: 1 - sum of p_n for n <= nmax."""
    return 1.0 - sum(pair_probability(n, params.r)
                     for n in range(params.n_max + 1))


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

# the boosted config with number-resolving triggers t2 and t4, and with
# those two lossy and dark as well (eta 0.7, dark-count probability 0.02)
PNR_BOOSTED = (BOOSTED_CONFIG.replace("mode=e:y\n", "mode=e:y kind=pnr\n")
               .replace("mode=f:yp\n", "mode=f:yp kind=pnr\n"))
LOSSY_PNR_BOOSTED = PNR_BOOSTED.replace(
    "kind=pnr\n", "kind=pnr eta=0.7 dark=0.02 window=1\n")


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

# paper_5050 with triggers that click on dark counts alone, and with both
# splitters at R=0: the four-pair correction is undefined on both
DARK_TRIGGERS_5050 = fixture_text("paper_5050.exp").replace("eta=0.167",
                                                           "eta=0")
R_ZERO_5050 = fixture_text("paper_5050.exp").replace("R=0.486", "R=0")

# paper_5050 with number-resolving triggers
PNR_5050 = "\n".join(
    line.replace("kind=threshold", "kind=pnr")
    if line.startswith("detector id=t") else line
    for line in fixture_text("paper_5050.exp").splitlines()) + "\n"

# paper_5050 with its second splitter at R = 0.8, a valid config
UNEQUAL_5050 = fixture_text("paper_5050.exp").replace(
    "bs in=b refl=d trans=f R=0.486", "bs in=b refl=d trans=f R=0.8")

# paper_5050 with its trigger-arm plate at 0 deg: a valid layout that is not
# the published one, so a four-pair correction taken through the published
# circuit would be silently wrong here
PLATE_AT_ZERO_5050 = fixture_text("paper_5050.exp").replace("angle=-22.5",
                                                            "angle=0")

# paper_5050 with trigger arm e behind a 99% splitter whose dumped port x0
# feeds a chain of six 50:50 splitters: 22 post-circuit modes holding up to
# 8 photons, past a 64-bit packed key; NARROW_5050 is it without the chain
NARROW_5050 = (fixture_text("paper_5050.exp")
               .replace("bs in=b ", "bs in=e refl=e2 trans=x0 R=0.99\nbs in=b ")
               .replace("pbs on=e\n", "pbs on=e2\n")
               .replace("mode=e:", "mode=e2:"))
WIDE_5050 = NARROW_5050.replace("pbs on=e2\n", "pbs on=e2\n" + "".join(
    f"bs in=x{i} refl=y{i} trans=x{i + 1} R=0.5\n" for i in range(6)))


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
        half_wave_plate(angle, "f", POL_DIAG),
        measurement_rotation("c", basis[0]),
        measurement_rotation("d", basis[1])), SOURCE_MODES)
