"""Detector semantics and heralding.

Every detector measures its mode in the photon-number basis, so loss in
front of it is binomial thinning of the photons that arrive (a beam
splitter into an unobserved mode, traced out, leaves nothing else).
`click_probability` is that model in closed form: detection efficiency eta
and dark-count probability d map the n photons reaching a detector to the
probability that it registers its event.  Threshold under-counting (the
beta-class escape patterns) follows from weighting each exact post-circuit
occupation pattern with it.  Every read-out of a post-circuit state (herald,
trigger classes, click patterns, six-folds) goes through `occupations`.  A
herald is one type, `CurveStack`: curves in the splitter ratios built by
`curve_stack` in one pass, evaluated by `at` or, states too, `heralds`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# detector declarations live in `config`; importable from here as before
from .config import (NUMBER_RESOLVING, THRESHOLD, DetectorSpec,
                     threshold_detector)
from .elements import (POL_H, POL_V, ConfigError, Mode, ModeTransform,
                       compose, measurement_rotation)
from .fock import (MixedState, PureState, TruncationError, as_mixed,
                   substitute_modes)


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
    column = {m: i for i, m in reversed(list(enumerate(modes)))}
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


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative int array in lexicographic order,
    and each row's index among them, by one sort of packed keys."""
    sizes = rows.max(axis=0, initial=0) + 1
    if math.prod(sizes.tolist()) >= 2 ** 63:
        raise TruncationError(f"rows below {sizes.tolist()} overflow a "
                              "64-bit packed key")
    place = (np.cumprod(sizes[::-1]) // sizes[::-1])[::-1]  # mixed radix
    keys, inverse = np.unique(rows @ place, return_inverse=True)
    return keys[:, None] // place % sizes, inverse


def occupation_probabilities(state: PureState | MixedState, modes: list[Mode]
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct photon counts on `modes` in `state`, one int row each
    (columns as `modes`, rows in lexicographic order), and their
    probabilities."""
    _, counts, amps = occupations(state, modes)
    rows, inverse = _unique_rows(counts)
    return rows, np.bincount(inverse, weights=np.abs(amps) ** 2,
                             minlength=len(rows))


def _event_probabilities(det: DetectorSpec, counts: np.ndarray) -> np.ndarray:
    """`click_probability(det, n)` for every photon count n in `counts`."""
    table = [click_probability(det, n)
             for n in range(int(counts.max(initial=0)) + 1)]
    return np.array(table)[counts]


def click_pattern_probabilities(state: PureState | MixedState,
                                detectors: list[DetectorSpec]) -> np.ndarray:
    """Probability over the 2^k click patterns (bit i = detector i
    registered its `click_probability` event), detectors taken last to
    first: each splits every row's patterns j into 2 j + bit, then the
    rows that agree on the detectors still to come, adjacent in
    lexicographic order, merge."""
    occ, acc = occupation_probabilities(state, [d.mode for d in detectors])
    acc = acc[:, None]
    for i in reversed(range(len(detectors))):
        c = _event_probabilities(detectors[i], occ[:, i])[:, None]
        acc = np.stack([acc * (1.0 - c), acc * c], axis=2).reshape(
            len(occ), -1)
        starts = np.flatnonzero(np.r_[True, (occ[1:, :i] != occ[:-1, :i])
                                      .any(axis=1)])
        acc, occ = np.add.reduceat(acc, starts, axis=0), occ[starts]
    return acc[0]


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
class CurveStack:
    """Heralds as curves in a circuit's splitter ratios (`curve_stack`): per
    distinct monomial row (A_1, B_1, A_2, B_2, ...) and curve i, the herald
    weight and conditional-state trace in columns 2 i and 2 i + 1 of
    `table`, the unnormalized conditional state in `rhos[:, i]`, and each
    row's exponent sums over the splitters (sum_s A_s, sum_s B_s)."""

    monomials: np.ndarray  # (K, 2 S) int
    table: np.ndarray      # (K, 2 C)
    rhos: np.ndarray       # (K, C, 4, 4) complex
    sums: np.ndarray       # (2, K) float, integer-valued

    def _factors(self, *R: float) -> np.ndarray:
        """Each monomial row's factor prod_s (2 R_s)^A_s (2 T_s)^B_s with
        splitter s at ratio R[s]; one ratio R puts every splitter at R,
        (2 R)^sum A (2 T)^sum B."""
        if len(R) == 1:
            reflect, transmit = 2.0 * R[0], 2.0 * (1.0 - R[0])
            return reflect ** self.sums[0] * transmit ** self.sums[1]
        base = np.array([b for r in R for b in (2.0 * r, 2.0 * (1.0 - r))])
        return (base ** self.monomials).prod(axis=1)

    def at(self, *R: float) -> list[tuple[float, float]]:
        """Each curve's (herald probability, preparation efficiency), 0
        where it does not herald, at the ratios of `_factors`: one product
        over `table`."""
        values = (self._factors(*R) @ self.table).tolist()
        return [(h, t / h if h > 0.0 else 0.0)
                for h, t in zip(values[0::2], values[1::2])]

    def heralds(self, *R: float) -> list[HeraldResult]:
        """Each curve's herald at the ratios of `at`, with its state."""
        factors = self._factors(*R)
        return [HeraldResult(h, rho / h, float(np.trace(rho).real) / h, True)
                if h > 0.0 else HeraldResult(0.0, np.zeros_like(rho), 0.0,
                                             False)
                for h, rho in zip((factors @ self.table[:, 0::2]).tolist(),
                                  np.tensordot(factors, self.rhos, axes=1))]


def curve_stack(curves: Sequence[tuple[PureState | MixedState,
                                       list[DetectorSpec]]],
                output_arms: tuple[str, ...],
                exponents: Mapping[Mode, tuple[int, ...]]) -> CurveStack:
    """Each (post-circuit state, four triggers) of `curves` conditioned on
    all four triggers firing, as curves in the splitter ratios on one
    monomial table, in one pass over all their terms.

    A term, built with every splitter at R = 1/2, scales at ratios R_s by
    prod_s (2 R_s)^A_s (2 T_s)^B_s, its photons' `exponents` summed (an
    unlisted mode does not scale), and is weighted by its triggers'
    `click_probability`.  A curve's terms of one branch, trigger counts and
    monomial are one coherent state; its part with one photon per output
    arm (`_output_arm_modes`) and nothing else is a qubit vector v_g over
    (first, first), (first, second), (second, first), (second, second), and
    sum_g p_g v_g v_g^dag over the herald probability is the conditional
    state, whose trace is the preparation efficiency."""
    width = len(next(iter(exponents.values()), ()))
    parts = []
    for state, triggers in curves:
        if len(triggers) != 4:
            raise ConfigError("heralding requires exactly four trigger "
                              "detectors")
        read = [d.mode for d in triggers] + _output_arm_modes(state,
                                                              output_arms)
        # every other mode of the state too, for the photons' exponents
        modes = read + sorted({m for _, pure in as_mixed(state).branches
                               for m in pure.modes} - set(read))
        branch, counts, amps = occupations(state, modes)
        per_mode = np.array([exponents.get(m, (0,) * width) for m in modes],
                            np.int64).reshape(len(modes), width)
        p_click = np.prod([_event_probabilities(det, counts[:, i])
                           for i, det in enumerate(triggers)], axis=0)
        x0, y0, x1, y1 = counts[:, 4:8].T
        qubit = (x0 + y0 == 1) & (x1 + y1 == 1) & ~counts[:, 8:].any(axis=1)
        parts.append((counts @ per_mode,
                      np.column_stack([branch, counts[:, :4]]), amps, p_click,
                      np.where(qubit, 2 * y0 + y1, -1)))
    curve = np.repeat(np.arange(len(parts)), [len(p[2]) for p in parts])
    rows, keys, amps, p_click, index = map(np.concatenate, zip(*parts))
    monomials, term_k = _unique_rows(rows)
    # one cell per (monomial, curve), curve fastest
    cells, cell = len(monomials) * len(parts), term_k * len(parts) + curve
    weight, qubit = p_click * np.abs(amps) ** 2, index >= 0
    table = np.column_stack([
        np.bincount(cell, weights=weight, minlength=cells),
        np.bincount(cell[qubit], weights=weight[qubit], minlength=cells)])
    # one group per (cell, branch, trigger counts): v_g scaled by sqrt(p_g)
    groups, group = _unique_rows(np.column_stack([cell, keys])[qubit])
    vectors = np.zeros((len(groups), 4), dtype=complex)
    vectors[group, index[qubit]] = (amps * np.sqrt(p_click))[qubit]
    rhos = np.zeros((cells, 4, 4), dtype=complex)
    np.add.at(rhos, groups[:, 0],
              vectors[:, :, None] * vectors[:, None, :].conj())
    return CurveStack(monomials, table.reshape(len(monomials), -1),
                      rhos.reshape(len(monomials), len(parts), 4, 4),
                      monomials.reshape(len(monomials), width // 2, 2)
                      .sum(axis=1).T.astype(float))


def herald(state: PureState | MixedState,
           trigger_detectors: list[DetectorSpec],
           output_arms: tuple[str, ...]) -> HeraldResult:
    """Condition on all four trigger detectors firing: `curve_stack` of
    `state` alone, without splitter exponents."""
    return curve_stack([(state, trigger_detectors)], output_arms,
                       {}).heralds()[0]


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
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return float(np.real(phi @ dm @ phi))
