"""Closed-form estimators: efficiencies, fidelity, CHSH threshold, errors,
the four-pair correction, and heralds as curves in the splitter ratio.

Error bars use first-order propagation on independent Poisson counts.
`herald_curves` of `exact_sectors` is the one exact route of `herald` and
`sweep`: one `detect.CurveStack` of the config's three-pair sector and, at
nmax >= 4, of the four-pair correction's two sectors (`four_pair_sectors`),
which `four_pair_shift` weights by the caller's p_3 and p_4.  The curves
scale with the splitter paths of `dsl.walk`, the walk `validate` makes.
Nothing is cached: a caller holds the stack it evaluates.  `detect` is
imported only inside `herald_curves`, so `montecarlo`, which reads the
estimators here, never loads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import fixture_path
from .config import DetectorSpec, ExperimentConfig, threshold_detector
from .dsl import parse, walk
from .elements import SOURCE_MODES, compose
from .fock import ConfigError
from .source import SpdcParams, pair_power_states, pair_probability

if TYPE_CHECKING:
    from .detect import CurveStack


class Estimate(NamedTuple):
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


def eff_exp_binomial_sigma(value: float, n_s: int, n_t: int) -> float:
    """`eff_exp`'s standard error with n_s a binomial subset of n_t,
    value sqrt(1/n_s - 1/n_t): 0 where n_s is 0 or n_t."""
    return value * math.sqrt(1.0 / n_s - 1.0 / n_t) if 0 < n_s < n_t else 0.0


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


def herald_curves(sectors: list[tuple[tuple[int, int], list[DetectorSpec]]],
                  config: ExperimentConfig) -> CurveStack:
    """Per (power (k, j), triggers) of `sectors`, curve i of the stack: the
    source branch P-^k P+^j |0> after the config's circuit, heralded on
    `triggers` and read on its output arms.  Every distinct branch is built
    once, in one `pair_power_states` call, with every splitter at R = 1/2;
    `dsl.walk`'s splitter paths make the curves, and its first error, if
    any, is raised."""
    from .detect import curve_stack
    errors, paths = walk(config)
    if errors:
        raise ConfigError(errors[0])
    powers = list(dict.fromkeys(power for power, _ in sectors))
    states = dict(zip(powers, pair_power_states(
        powers, compose(config.transforms(0.5), SOURCE_MODES))))
    return curve_stack([(states[power], triggers) for power, triggers
                        in sectors], config.output_arms(), paths)


def four_pair_sectors(config: ExperimentConfig, eta_t: float
                      ) -> list[tuple[tuple[int, int], list[DetectorSpec]]]:
    """The four-pair correction's three- and four-pair sectors, as
    `herald_curves` takes them: heralded on dark-free threshold triggers of
    efficiency eta_t on the config's trigger modes."""
    triggers = [threshold_detector(d.id, d.mode, eta=eta_t)
                for d in config.trigger_detectors()]
    return [((3, 0), triggers), ((4, 0), triggers)]


def exact_sectors(config: ExperimentConfig
                  ) -> list[tuple[tuple[int, int], list[DetectorSpec]]]:
    """The three-pair sector on the config's own triggers and, at
    nmax >= 4, the `four_pair_sectors` at the triggers' mean efficiency.
    Stacked, `(qubit, other), *sectors = stack.at(*R)`, the correction
    `four_pair_shift((p3, p4), *sectors)`."""
    sectors = [((3, 0), config.trigger_detectors())]
    if config.source.n_max >= 4:
        sectors += four_pair_sectors(config, config.mean_trigger_eta())
    return sectors


def four_pair_shift(weights: tuple[float, float], three: tuple[float, float],
                    four: tuple[float, float]) -> float | None:
    """Relative efficiency shift from adding the four-pair sector: the
    efficiency of the sectors' (qubit, non-qubit) weights `three` and `four`
    at one R, summed with `weights` = (p_3, p_4), against the three-pair
    sector's.  None where it is undefined: the sectors never herald, or
    the three-pair sector has no qubit weight."""
    p3, p4 = weights
    (q3, o3), (q4, o4) = three, four
    trig = p3 * (q3 + o3) + p4 * (q4 + o4)
    if trig == 0.0 or q3 == 0.0:
        return None
    # (p3 q3 + p4 q4) / trig over q3 / (q3 + o3), less 1; +0.0 where p4 is 0
    return p4 * (q4 * o3 - q3 * o4) / (q3 * trig) if p4 else 0.0


def four_pair_correction(params: SpdcParams, R: float,
                         eta_t: float = 1.0) -> float | None:
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
    weights = tuple(pair_probability(n, params.r) for n in (3, 4))
    return four_pair_shift(weights, *herald_curves(
        four_pair_sectors(layout, eta_t), layout).at(R))
