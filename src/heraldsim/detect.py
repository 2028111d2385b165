"""Detector semantics and heralding.

Every detector measures its mode in the photon-number basis, so loss in
front of it is binomial thinning of the photons that arrive (a beam
splitter into an unobserved mode, traced out, leaves nothing else).
`click_probability` is that model in closed form: detection efficiency eta
and dark-count probability d map the n photons reaching a detector to the
probability that it registers its event.  Threshold under-counting (the
beta-class escape patterns) follows from weighting each exact post-circuit
occupation pattern with it.  Every read-out of a post-circuit state (herald,
trigger classes, click patterns, six-folds) goes through `occupations`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# detector declarations live in `config`; importable from here as before
from .config import (NUMBER_RESOLVING, THRESHOLD, DetectorSpec, pnr_detector,
                     threshold_detector)
from .elements import (POL_H, POL_V, ConfigError, Mode, ModeTransform,
                       compose, measurement_rotation)
from .fock import MixedState, PureState, as_mixed, places, substitute_modes


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


def occupations(state: PureState | MixedState, modes: list[Mode]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one read-out of a post-circuit state: per term, its branch index,
    its photon counts on `modes` (a mode listed twice counts in its first
    column, a mode not listed in none), and its amplitude times the square
    root of its branch weight."""
    column: dict[Mode, int] = {}
    for i, m in enumerate(modes):
        column.setdefault(m, i)
    branches = as_mixed(state).branches
    rows, amps = [], []
    for weight, pure in branches:
        # state mode -> read-out column, applied to the key digits
        at = np.array([column.get(m, -1) for m in pure.modes], np.int64)
        to_column = (at[:, None] == np.arange(len(modes))).astype(np.int64)
        rows.append(pure.counts() @ to_column)
        amps.append(pure.amps * math.sqrt(weight))
    branch = np.repeat(np.arange(len(branches)),
                       [len(pure) for _, pure in branches])
    return branch, np.concatenate(rows), np.concatenate(amps)


def occupation_probabilities(state: PureState | MixedState, modes: list[Mode]
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct photon counts on `modes` in `state`, one int row each
    (columns as `modes`, rows in lexicographic order), and their
    probabilities."""
    _, counts, amps = occupations(state, modes)
    base = int(counts.max(initial=0)) + 1
    # packed with the first column most significant: sorted keys are the
    # rows in lexicographic order
    place = places(base, len(modes))[::-1]
    keys, inverse = np.unique(counts @ place, return_inverse=True)
    return keys[:, None] // place % base, np.bincount(
        inverse, weights=np.abs(amps) ** 2, minlength=len(keys))


def _event_probabilities(det: DetectorSpec, counts: np.ndarray) -> np.ndarray:
    """`click_probability(det, n)` for every photon count n in `counts`."""
    table = [click_probability(det, n)
             for n in range(int(counts.max(initial=0)) + 1)]
    return np.array(table)[counts]


def click_pattern_probabilities(state: PureState | MixedState,
                                detectors: list[DetectorSpec]) -> np.ndarray:
    """Probability over the 2^k click patterns (bit i = detector i
    registered its `click_probability` event)."""
    occ, p_occ = occupation_probabilities(state, [d.mode for d in detectors])
    acc = p_occ[:, None]
    for i, det in enumerate(detectors):
        c = _event_probabilities(det, occ[:, i])[:, None]
        acc = np.concatenate([acc * (1.0 - c), acc * c], axis=1)
    return acc.sum(axis=0)


def sixfold_rule(trigger_detectors: list[DetectorSpec],
                 output_detectors: list[DetectorSpec],
                 output_arms: tuple[str, ...], basis: tuple[str, str]
                 ) -> tuple[tuple[ModeTransform, ...], np.ndarray, np.ndarray]:
    """One basis setting's six-fold read-out on the click patterns of the
    triggers then the output detectors (bit i = detector i clicked).  Each
    of the two output arms needs exactly two detectors; sorted by label,
    the first registers the basis's first outcome (H, + or R) after the
    arm's rotation, also returned.  Per pattern: whether every trigger
    clicked, and the outcome 2 o_0 + o_1 (o_a = 0 if arm a's first
    clicked), or -1 unless every trigger and one detector per arm clicked."""
    if len(output_arms) != 2:
        raise ConfigError("six-fold counting needs exactly two output arms; "
                          f"the output detectors sit on arms {list(output_arms)}")
    n_trig = len(trigger_detectors)
    patterns = np.arange(1 << (n_trig + len(output_detectors)))
    all_triggers = (1 << n_trig) - 1
    is_trigger = (patterns & all_triggers) == all_triggers
    outcome, valid, rotations = np.zeros_like(patterns), is_trigger, []
    for arm, arm_basis in zip(output_arms, basis):
        ports = sorted((d.mode[1], i) for i, d in enumerate(output_detectors)
                       if d.mode[0] == arm)
        if len(ports) != 2:
            ids = [output_detectors[i].id for _, i in ports]
            raise ConfigError("six-fold counting needs exactly two detectors "
                              f"on output arm {arm!r}; it has {ids}")
        rotations.append(measurement_rotation(
            arm, arm_basis, tuple(pol for pol, _ in ports)))
        first, second = (patterns >> (n_trig + i) & 1 for _, i in ports)
        valid = valid & (first != second)
        outcome = 2 * outcome + second
    return tuple(rotations), is_trigger, np.where(valid, outcome, -1)


@dataclass(frozen=True)
class HeraldDecomposition:
    """Weights of the perfect-trigger, deficient-output and no-trigger
    classes of the post-circuit three-pair state."""

    alpha_sq: float
    beta_sq: float
    gamma_sq: float


@dataclass(frozen=True)
class HeraldResult:
    herald_probability: float
    conditional_dm: np.ndarray  # 4x4 over (c,d) polarization, trace = prep eff
    preparation_efficiency: float
    heralded: bool


def _output_arm_modes(state: PureState | MixedState,
                      output_arms: tuple[str, ...]) -> list[Mode]:
    """Each output arm's two polarization modes in `state`, sorted by label
    as `sixfold_rule` sorts an arm's detectors.  An arm no photon reaches
    (R = 0) gets x and y, which hold nothing."""
    if len(output_arms) != 2:
        raise ConfigError("heralding needs exactly two output arms; the "
                          f"output detectors sit on arms {list(output_arms)}")
    modes = {m for _, pure in as_mixed(state).branches for m in pure.modes}
    arm_modes = []
    for arm in output_arms:
        labels = sorted(pol for spatial, pol in modes if spatial == arm)
        if labels and len(labels) != 2:
            raise ConfigError(f"heralding reads one qubit per output arm from "
                              f"two polarization labels; arm {arm!r} carries "
                              f"{labels}")
        arm_modes += [(arm, pol) for pol in labels or (POL_H, POL_V)]
    return arm_modes


@dataclass(frozen=True)
class HeraldCurve:
    """A herald as a function of the circuit's splitter ratios.

    A term of the state built with every splitter at R = 1/2 whose photons
    were reflected A_s and transmitted B_s times at splitter s has, at
    ratios R_s, its probability times prod_s (2 R_s)^A_s (2 T_s)^B_s.  Per
    distinct monomial (row (A_1, B_1, A_2, B_2, ...) of `monomials`) the
    curve keeps the herald weight sum p_click |amp|^2 and the unnormalized
    conditional state sum_g p_g v_g v_g^dag, so evaluating it is a weighted
    sum."""

    monomials: np.ndarray  # (K, 2 S) int
    weights: np.ndarray    # (K,)
    rhos: np.ndarray       # (K, 4, 4) complex

    def at(self, *R: float) -> HeraldResult:
        """The herald with splitter s at ratio R[s], or with every splitter
        at R[0] when one ratio is given."""
        ratios = R * (self.monomials.shape[1] // 2) if len(R) == 1 else R
        base = np.array([b for r in ratios
                         for b in (2.0 * r, 2.0 * (1.0 - r))])
        factors = np.prod(base ** self.monomials, axis=1)
        herald_p = float(factors @ self.weights)
        if herald_p <= 0.0:
            return HeraldResult(0.0, np.zeros((4, 4), dtype=complex), 0.0,
                                False)
        rho = (factors @ self.rhos.reshape(len(factors), 16)).reshape(4, 4)
        return HeraldResult(herald_p, rho / herald_p,
                            float(np.trace(rho).real) / herald_p, True)


def herald_curve(state: PureState | MixedState,
                 trigger_detectors: list[DetectorSpec],
                 output_arms: tuple[str, ...],
                 exponents: Mapping[Mode, tuple[int, ...]]) -> HeraldCurve:
    """Condition on all four trigger detectors firing, as a curve in the
    splitter ratios.

    Each term of `state`, the post-circuit state, is weighted by the product
    of the triggers' `click_probability`, and scales with the splitter
    ratios by the monomial its photons' `exponents` (`path_exponents` of
    the circuit, every splitter at R = 1/2; a mode it does not list does
    not scale) add up to.  The terms of one source branch with the same
    trigger counts and monomial are one coherent output state (in a tree
    circuit an output arm's two modes share one path, so the monomial
    splits none); its part with one photon per output arm, on either of the
    arm's two polarization modes (`_output_arm_modes`), and nothing else is
    a vector over the qubit basis (first, first), (first, second), (second,
    first), (second, second), and scales as a unit.  The weighted sum of
    their outer products over the herald probability is the conditional
    density matrix; its trace is the preparation efficiency.
    """
    if len(trigger_detectors) != 4:
        raise ConfigError("heralding requires exactly four trigger detectors")
    arm_modes = _output_arm_modes(state, output_arms)
    read = [d.mode for d in trigger_detectors] + arm_modes
    # every other mode of the state too, for the photons' exponents
    modes = read + sorted({m for _, pure in as_mixed(state).branches
                           for m in pure.modes} - set(read))
    branch, counts, amps = occupations(state, modes)
    width = len(next(iter(exponents.values()), ()))
    per_mode = np.array([exponents.get(m, (0,) * width) for m in modes],
                        np.int64).reshape(len(modes), width)
    monomials, term_k = np.unique(counts @ per_mode, axis=0,
                                  return_inverse=True)
    term_k = term_k.ravel()
    p_click = np.prod([_event_probabilities(det, counts[:, i])
                       for i, det in enumerate(trigger_detectors)], axis=0)
    weight = p_click * np.abs(amps) ** 2

    x0, y0, x1, y1 = counts[:, 4:8].T
    qubit = (x0 + y0 == 1) & (x1 + y1 == 1) & (counts[:, 8:].sum(axis=1) == 0)
    groups, group = np.unique(
        np.column_stack([term_k[qubit], branch[qubit], counts[qubit, :4]]),
        axis=0, return_inverse=True)
    group = group.ravel()
    vectors = np.zeros((len(groups), 4), dtype=complex)
    vectors[group, 2 * y0[qubit] + y1[qubit]] = amps[qubit]
    group_p = np.zeros(len(groups))
    group_p[group] = p_click[qubit]
    by_monomial = [(term_k == k, groups[:, 0] == k)
                   for k in range(len(monomials))]
    return HeraldCurve(monomials, np.array(
        [np.sum(weight[terms]) for terms, _ in by_monomial]), np.array(
        [np.einsum("g,gi,gj->ij", group_p[sel], vectors[sel],
                   vectors[sel].conj()) for _, sel in by_monomial]))


def herald(state: PureState | MixedState,
           trigger_detectors: list[DetectorSpec],
           output_arms: tuple[str, ...]) -> HeraldResult:
    """Condition on all four trigger detectors firing: `herald_curve` of
    `state` with no splitter exponents, so exact for the state as built."""
    return herald_curve(state, trigger_detectors, output_arms, {}).at()


def decompose_s1(state: PureState, trigger_modes: tuple[Mode, ...],
                 output_arms: tuple[str, str]) -> HeraldDecomposition:
    """Classify the lossless post-circuit state into trigger classes.

    alpha^2: exactly one photon per trigger mode and two output photons,
    whatever their polarization labels;
    beta^2: at least one photon at every trigger mode, deficient output;
    gamma^2: everything else (no complete trigger).
    """
    arm_modes = sorted(m for m in state.occupied_modes() if m[0] in output_arms)
    _, counts, amps = occupations(state, list(trigger_modes) + arm_modes)
    p = np.abs(amps) ** 2
    trig = counts[:, :len(trigger_modes)]
    fired = (trig >= 1).all(axis=1)
    alpha = (trig == 1).all(axis=1) & (
        counts[:, len(trigger_modes):].sum(axis=1) == 2)
    return HeraldDecomposition(float(p[alpha].sum()),
                               float(p[fired & ~alpha].sum()),
                               float(p[~fired].sum()))


def sixfold_probability(state: PureState | MixedState,
                        trigger_detectors: list[DetectorSpec],
                        output_detectors: list[DetectorSpec],
                        basis: tuple[str, str],
                        outcome: tuple[int, int] = (0, 0), *,
                        output_arms: tuple[str, str]) -> float:
    """Probability of a six-fold coincidence for one outcome pair.

    Output arms of `state`, the post-circuit state, are rotated into the
    measurement basis before detection.  Triggers fire as in `herald`.
    `outcome` selects which detector clicks in each arm as in
    `sixfold_rule`, and the other output detectors stay silent,
    matching coincidence-logic counting.  An output port's event is any
    reading of one or more photons, a threshold detector's click.
    """
    rotations, _, outcomes = sixfold_rule(trigger_detectors, output_detectors,
                                          output_arms, basis)
    rotated = MixedState(tuple(
        (w, substitute_modes(pure, compose(rotations, pure.occupied_modes())))
        for w, pure in as_mixed(state).branches))
    # the least pattern of the outcome: no output detector off the arms clicks
    pattern = np.flatnonzero(outcomes == 2 * outcome[0] + outcome[1])[0]
    any_reading = [dataclasses.replace(d, kind=THRESHOLD)
                   for d in output_detectors]
    return float(click_pattern_probabilities(
        rotated, list(trigger_detectors) + any_reading)[pattern])


def fidelity_to_phi_plus(dm: np.ndarray) -> float:
    """Tr(rho |Phi+><Phi+|) on the (c,d) polarization qubit sector."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return float(np.real(phi.conjugate() @ dm @ phi))
