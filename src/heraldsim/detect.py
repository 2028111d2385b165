"""Detector semantics and heralding.

Every detector measures its mode in the photon-number basis, so loss in
front of it is binomial thinning of the photons that arrive (a beam
splitter into an unobserved mode, traced out, leaves nothing else).
`click_probability` is that model in closed form: detection efficiency eta
and dark-count probability d map the n photons reaching a detector to the
probability that it registers its event.  Threshold under-counting (the
beta-class escape patterns) follows from weighting each exact post-circuit
occupation pattern with it.  The exact read-outs of a post-circuit state
(herald, trigger classes) remap the columns of its photon-count rows in
`occupations`, on Python numbers; the click patterns and six-folds in its
array twin in `mc`.  A herald is one type, `CurveStack`: curves in the
splitter ratios built by `curve_stack` in one pass, evaluated by `at` or,
with the conditional states, `heralds`.  Only the functions that return
arrays (`states`, `heralds`, `herald`, `sixfold_probability`) load numpy,
inside their bodies, so `herald` and `sweep` run without it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

# detector declarations live in `config`; importable from here as before
from .config import (NUMBER_RESOLVING, THRESHOLD, DetectorSpec,
                     threshold_detector)
from .elements import POL_H, POL_V, ConfigError, Mode, compose
from .fock import MixedState, PureState, as_mixed, substitute_modes

if TYPE_CHECKING:
    import numpy as np


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
                ) -> list[tuple[int, tuple[int, ...], complex]]:
    """The exact read-out of a post-circuit state: per term, its branch
    index, its photon counts on `modes` (a mode listed twice counts in its
    first column, a mode not listed in none), and its amplitude times the
    square root of its branch weight.  `mc.occupation_probabilities` is
    its array twin."""
    out = []
    for b, (weight, pure) in enumerate(as_mixed(state).branches):
        pick, scale = pure.columns(modes), math.sqrt(weight)
        for row, amp in zip(pure.rows, pure.amps):
            padded = (*row, 0)
            out.append((b, tuple([padded[j] for j in pick]), amp * scale))
    return out


class HeraldDecomposition(NamedTuple):
    """Weights of the perfect-trigger, deficient-output and no-trigger
    classes of the post-circuit three-pair state."""

    alpha_sq: float
    beta_sq: float
    gamma_sq: float


class HeraldResult(NamedTuple):
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


class CurveStack(NamedTuple):
    """Heralds as curves in a circuit's splitter ratios (`curve_stack`): per
    distinct monomial (A_1, B_1, A_2, B_2, ...) of `monomials` and curve i,
    the qubit-sector and non-qubit weights in columns 2 i and 2 i + 1 of
    `columns`; per curve, the same summed per distinct exponent sum
    (sum_s A_s, sum_s B_s) of `sums`, over the run [lo, hi) of `sums` that
    holds its nonzero weights, in `spans`; and per qubit term its monomial
    index, curve, coherent group, qubit index and amplitude, for `states`."""

    monomials: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[float, ...], ...]
    sums: tuple[tuple[int, int], ...]
    spans: tuple[tuple[int, int, tuple[float, ...], tuple[float, ...]], ...]
    qubits: tuple[tuple[int, int, tuple, int, complex], ...]

    def _factors(self, *R: float) -> list[float]:
        """Each monomial's factor prod_s (2 R_s)^A_s (2 T_s)^B_s with
        splitter s at ratio R[s]; one ratio R puts every splitter at R."""
        if len(R) == 1:
            R *= max(map(len, self.monomials), default=0) // 2
        base = [b for r in R for b in (2.0 * r, 2.0 * (1.0 - r))]
        return [math.prod(b ** e for b, e in zip(base, row, strict=True))
                for row in self.monomials]

    def at(self, *R: float) -> list[tuple[float, float]]:
        """Each curve's (qubit, non-qubit) weights at the ratios of
        `_factors`, whose sum is its herald probability; one ratio R weighs
        the rows of `sums` by (2 R)^sum A (2 T)^sum B."""
        if len(R) == 1:
            reflect, transmit = 2.0 * R[0], 2.0 * (1.0 - R[0])
            factors = [reflect ** a * transmit ** b for a, b in self.sums]
            spans = self.spans
        else:
            factors = self._factors(*R)
            spans = [(0, len(factors), *pair)
                     for pair in zip(self.columns[::2], self.columns[1::2])]
        mul = operator.mul
        return [(sum(map(mul, factors[lo:hi], qubit)),
                 sum(map(mul, factors[lo:hi], other)))
                for lo, hi, qubit, other in spans]

    def states(self) -> np.ndarray:
        """The unnormalized conditional state sum_g p_g v_g v_g^dag per
        monomial and curve, a (K, C, 4, 4) array built on each call."""
        import numpy as np
        vectors: dict[tuple, np.ndarray] = {}
        for k, curve, group, index, amp in self.qubits:
            vectors.setdefault((k, curve, group), np.zeros(4, complex))[
                index] = amp
        rhos = np.zeros((len(self.monomials), len(self.columns) // 2, 4, 4),
                        dtype=complex)
        for (k, curve, _), v in vectors.items():
            rhos[k, curve] += np.outer(v, v.conj())
        return rhos

    def heralds(self, *R: float) -> list[HeraldResult]:
        """Each curve's herald at the ratios of `_factors`, with its state;
        its probability and efficiency are those of `at`'s weights."""
        import numpy as np
        rhos = np.tensordot(np.array(self._factors(*R), float), self.states(),
                            axes=1)
        return [HeraldResult(q + o, rho / (q + o), q / (q + o), True)
                if q + o > 0.0 else HeraldResult(0.0, np.zeros_like(rho), 0.0,
                                                 False)
                for (q, o), rho in zip(self.at(*R), rhos)]


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
    (first, first), (first, second), (second, first), (second, second).
    Their weight is the qubit weight, the other terms' the non-qubit
    weight, and sum_g p_g v_g v_g^dag over both is the conditional state."""
    width = len(next(iter(exponents.values()), ()))
    top = max((sum(row) for state, _ in curves for _, pure in
               as_mixed(state).branches for row in pure.rows), default=0) + 1
    # a monomial packed as digits in a radix above each of its exponents,
    # so a term's packed monomial is its photons' packed exponents summed
    radix = (top - 1) * max(itertools.chain(*exponents.values(), [0])) + 1
    cells: dict[int, list[float]] = {}
    qubits = []
    for curve, (state, triggers) in enumerate(curves):
        if len(triggers) != 4:
            raise ConfigError("heralding requires exactly four trigger "
                              "detectors")
        read = [d.mode for d in triggers] + _output_arm_modes(state,
                                                              output_arms)
        # every other mode of the state too, for the photons' exponents
        modes = read + sorted({m for _, pure in as_mixed(state).branches
                               for m in pure.modes} - set(read))
        packed = [sum(e * radix ** s
                      for s, e in enumerate(exponents.get(m, ())))
                  for m in modes]
        events = [[click_probability(det, n) for n in range(top)]
                  for det in triggers]
        for branch, counts, amp in occupations(state, modes):
            p_click = math.prod(map(list.__getitem__, events, counts))
            if p_click == 0.0:  # adds nothing to any curve
                continue
            weight = p_click * abs(amp) ** 2
            monomial = sum(map(operator.mul, counts, packed))
            cell = cells.setdefault(monomial, [0.0] * (2 * len(curves)))
            x0, y0, x1, y1 = counts[4:8]
            qubit = x0 + y0 == 1 == x1 + y1 and not any(counts[8:])
            cell[2 * curve + (not qubit)] += weight
            if qubit:
                qubits.append((monomial, curve, (branch, *counts[:4]),
                               2 * y0 + y1, amp * math.sqrt(p_click)))
    order = sorted(cells)
    monomials = [tuple(m // radix ** s % radix for s in range(width))
                 for m in order]
    sums: dict[tuple[int, int], list[float]] = {}
    for row, m in zip(monomials, order):
        key = sum(row[::2]), sum(row[1::2])
        sums[key] = list(map(operator.add, cells[m],
                             sums.get(key, [0.0] * len(cells[m]))))
    # by total A + B: a curve whose photons all meet the same number of
    # splitters fills one run
    groups = sorted(sums, key=lambda ab: (sum(ab), ab))
    spans = []
    for curve in range(len(curves)):
        qubit, other = ([sums[g][2 * curve + i] for g in groups]
                        for i in (0, 1))
        used = [g for g, w in enumerate(map(max, qubit, other)) if w] or [0, -1]
        lo, hi = used[0], used[-1] + 1
        spans.append((lo, hi, tuple(qubit[lo:hi]), tuple(other[lo:hi])))
    index = {m: k for k, m in enumerate(order)}
    columns = (tuple(cells[m][i] for m in order)
               for i in range(2 * len(curves)))
    return CurveStack(tuple(monomials), tuple(columns), tuple(groups),
                      tuple(spans),
                      tuple((index[m], *rest) for m, *rest in qubits))


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
    n = len(trigger_modes)
    weights = [0.0, 0.0, 0.0]  # alpha^2, beta^2, gamma^2
    for _, counts, amp in occupations(state, list(trigger_modes) + arm_modes):
        fired = all(counts[:n])
        alpha = fired and set(counts[:n]) <= {1} and sum(counts[n:]) == 2
        weights[0 if alpha else 1 if fired else 2] += abs(amp) ** 2
    return HeraldDecomposition(*weights)


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
    `mc.sixfold_rule`, and the other output detectors stay silent,
    matching coincidence-logic counting.  An output port's event is any
    reading of one or more photons, a threshold detector's click.  The
    pattern table is `mc`'s, so this loads numpy.
    """
    from .mc import click_pattern_probabilities, sixfold_rule
    rotations, _, outcomes = sixfold_rule(trigger_detectors, output_detectors,
                                          output_arms, basis)
    rotated = MixedState(tuple(
        (w, substitute_modes(pure, compose(rotations, pure.occupied_modes())))
        for w, pure in as_mixed(state).branches))
    # the least pattern of the outcome: no output detector off the arms clicks
    pattern = outcomes.tolist().index(2 * outcome[0] + outcome[1])
    any_reading = [dataclasses.replace(d, kind=THRESHOLD)
                   for d in output_detectors]
    return float(click_pattern_probabilities(
        rotated, list(trigger_detectors) + any_reading)[pattern])


def fidelity_to_phi_plus(dm: np.ndarray) -> float:
    """Tr(rho |Phi+><Phi+|) on the (c,d) polarization qubit sector: half
    the sum of the corners of rho."""
    return float((dm[0][0] + dm[0][3] + dm[3][0] + dm[3][3]).real) / 2.0
