"""Closed-form estimators: efficiencies, fidelity, CHSH threshold, errors,
the four-pair correction, and heralds as curves in the splitter ratio.

Error bars use first-order propagation on independent Poisson counts.
`herald_curves` builds source sectors once, with `source.pair_power_states`
through a circuit it takes as a function of the splitter ratio and builds
at R = 1/2, as `detect.HeraldCurve`s; `four_pair_sectors` builds the
four-pair correction's two on a config's own layout.  Nothing is cached: a
caller holds the curves it evaluates, as `sweep` holds them for every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from . import fixture_path
from .config import ExperimentConfig
from .detect import DetectorSpec, HeraldCurve, herald_curve, threshold_detector
from .dsl import parse
from .elements import SOURCE_MODES, ModeTransform, compose, path_exponents
from .fock import ConfigError
from .source import SpdcParams, pair_power_states, pair_probability


@dataclass(frozen=True)
class Estimate:
    """An estimated quantity and its standard error."""

    value: float
    sigma: float


def eff_theory(R: float, eta_t: float) -> float:
    """Preparation efficiency R^2 / (1 - eta_t T / 2)^2 with T = 1 - R."""
    if not (0.0 <= R <= 1.0 and 0.0 <= eta_t <= 1.0):
        raise ConfigError("R and eta_t must lie in [0, 1]")
    T = 1.0 - R
    return R ** 2 / (1.0 - eta_t * T / 2.0) ** 2


def eff_exp(n_s: int, n_t: int, eta_s: float) -> Estimate:
    """Experimental efficiency n_s / (n_t eta_s^2) with Poisson errors."""
    if n_t <= 0:
        raise ConfigError("cannot estimate efficiency with n_t = 0")
    if not (0.0 < eta_s <= 1.0):
        raise ConfigError(f"eta_s={eta_s} outside (0, 1]")
    value = n_s / (n_t * eta_s ** 2)
    if n_s == 0:
        return Estimate(0.0, 0.0)
    sigma = value * math.sqrt(1.0 / n_s + 1.0 / n_t)
    return Estimate(value, sigma)


def correlation_from_counts(counts: Mapping[str, int]) -> tuple[float, float]:
    """Expectation value (N_same - N_diff)/N_total and its standard error,
    from counts keyed by two-letter outcome labels ("HV", "+-", ...)."""
    n_same = sum(c for (a, b), c in counts.items() if a == b)
    n_diff = sum(c for (a, b), c in counts.items() if a != b)
    total = n_same + n_diff
    if total <= 0:
        raise ConfigError("no counts; correlation undefined")
    e = (n_same - n_diff) / total
    sigma = math.sqrt(max(1.0 - e * e, 0.0) / total)
    return e, sigma


def fidelity_phi_plus(corr: Mapping[str, tuple[float, float]]) -> Estimate:
    """F = (1 + <xx> - <yy> + <zz>) / 4 for the Phi+ target state, from
    {"xx": (value, sigma), "yy": ..., "zz": ...}."""
    (xx, s_xx), (yy, s_yy), (zz, s_zz) = corr["xx"], corr["yy"], corr["zz"]
    value = 0.25 * (1.0 + xx - yy + zz)
    sigma = 0.25 * math.sqrt(s_xx ** 2 + s_yy ** 2 + s_zz ** 2)
    return Estimate(value, sigma)


def chsh_werner_threshold() -> float:
    """Fidelity above which a Werner state violates CHSH: (1 + 3/sqrt(2))/4."""
    return 0.25 * (1.0 + 3.0 / math.sqrt(2.0))


def violates_chsh(estimate: Estimate) -> tuple[bool, float]:
    """Whether F exceeds the Werner CHSH bound, and by how many sigmas."""
    excess = estimate.value - chsh_werner_threshold()
    if estimate.sigma == 0.0:
        return excess > 0.0, math.inf if excess > 0.0 else -math.inf
    return excess > 0.0, excess / estimate.sigma


def herald_curves(powers: list[tuple[int, int]],
                  elements: Callable[[float], tuple[ModeTransform, ...]],
                  trigger_detectors: list[DetectorSpec],
                  output_arms: tuple[str, ...]) -> list[HeraldCurve]:
    """The source branch P-^k P+^j |0> of each (k, j) of `powers` after the
    circuit `elements(R)` (a config's `transforms`), built here with every
    splitter at R = 1/2, heralded on `trigger_detectors` as a curve in the
    splitters' ratios."""
    transforms = elements(0.5)
    exponents = path_exponents(transforms)
    return [herald_curve(state, trigger_detectors, output_arms, exponents)
            for state in pair_power_states(powers,
                                           compose(transforms, SOURCE_MODES))]


def four_pair_sectors(config: ExperimentConfig, eta_t: float
                      ) -> tuple[HeraldCurve, ...]:
    """The three- and four-pair sectors through the config's circuit, as
    curves in R for `four_pair_shift`: heralded on dark-free threshold
    triggers of efficiency eta_t on its trigger modes, read on its arms."""
    triggers = [threshold_detector(d.id, d.mode, eta=eta_t)
                for d in config.trigger_detectors()]
    return tuple(herald_curves([(3, 0), (4, 0)], config.transforms,
                               triggers, config.output_arms()))


def four_pair_shift(params: SpdcParams, sectors: tuple[HeraldCurve, ...],
                    R: float) -> float:
    """Relative efficiency shift from adding the four-pair sector: the
    three- and four-pair `sectors` evaluated at R, weighted by p_3 and p_4."""
    p3 = pair_probability(3, params.r)
    p4 = pair_probability(4, params.r)
    if p4 == 0.0:
        return 0.0
    res3, res4 = (curve.at(R) for curve in sectors)
    eff3 = res3.preparation_efficiency
    good = (p3 * res3.herald_probability * res3.preparation_efficiency
            + p4 * res4.herald_probability * res4.preparation_efficiency)
    trig = p3 * res3.herald_probability + p4 * res4.herald_probability
    if trig == 0.0 or eff3 == 0.0:
        return 0.0
    eff34 = good / trig
    return (eff34 - eff3) / eff3


def four_pair_correction(params: SpdcParams, R: float,
                         eta_t: float = 1.0) -> float:
    """Relative efficiency shift from adding the four-pair emission sector
    in the published layout: `four_pair_shift` of `four_pair_sectors` of
    the bundled `paper_5050.exp`, built on each call.  Only that fixture's
    circuit, trigger modes and output arms are used; its source and
    detector settings are not.  The default eta_t=1 classifies triggers by
    arrival (at least one photon per trigger mode), which reproduces the
    quoted ~4.5% size of the effect; at low trigger efficiency the
    four-pair and three-pair herald classes happen to have similar
    one-pair-per-arm fractions and the shift is much smaller.
    """
    if params.n_max < 4:
        raise ConfigError("four-pair correction requires n_max >= 4")
    layout = parse(fixture_path("paper_5050.exp").read_text(encoding="utf-8"))
    return four_pair_shift(params, four_pair_sectors(layout, eta_t), R)
