"""Detector semantics and heralding.

Every detector measures its mode in the photon-number basis, so loss in
front of it is binomial thinning of the photons that arrive (a beam
splitter into an unobserved mode, traced out, leaves nothing else).
`click_probability` is that model in closed form: detection efficiency eta
and dark-count probability d map the n photons reaching a detector to the
probability that it registers its event.  Threshold under-counting (the
beta-class escape patterns) follows from weighting each exact post-circuit
occupation pattern with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import (OUTPUT_ARMS, TRIGGER_MODES, CircuitSpec, apply_circuit,
                       measurement_rotation)
from .fock import (ConfigError, FockKey, MixedState, Mode, PureState,
                   as_mixed, key_occupation)

THRESHOLD = "threshold"
NUMBER_RESOLVING = "pnr"


@dataclass(frozen=True)
class DetectorSpec:
    id: str
    mode: Mode
    kind: str = THRESHOLD
    coupling: float = 1.0   # detection efficiency eta
    dark_rate: float = 0.0  # counts / second
    window: float = 0.0     # coincidence window, seconds

    def __post_init__(self):
        if self.kind not in (THRESHOLD, NUMBER_RESOLVING):
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        if not (0.0 <= self.coupling <= 1.0):
            raise ConfigError(f"detector {self.id}: efficiency outside [0, 1]")
        if not (0.0 <= self.dark_probability < 1.0):
            raise ConfigError(f"detector {self.id}: dark probability outside [0, 1)")

    @property
    def eta(self) -> float:
        return self.coupling

    @property
    def dark_probability(self) -> float:
        return self.dark_rate * self.window


def threshold_detector(id: str, mode: Mode, eta: float = 1.0,
                       dark_rate: float = 0.0, window: float = 0.0
                       ) -> DetectorSpec:
    return DetectorSpec(id=id, mode=mode, kind=THRESHOLD, coupling=eta,
                        dark_rate=dark_rate, window=window)


def pnr_detector(id: str, mode: Mode, eta: float = 1.0) -> DetectorSpec:
    return DetectorSpec(id=id, mode=mode, kind=NUMBER_RESOLVING, coupling=eta)


def click_probability(det: DetectorSpec, n: int) -> float:
    """Probability that `det` registers its event when n photons reach it.

    A threshold detector's event is any click: 1 - (1-eta)^n (1-d).  A
    number-resolving detector's event is a reading of exactly one photon:
    n eta (1-eta)^(n-1) (1-d) + (1-eta)^n d.
    """
    eta, d = det.eta, det.dark_probability
    if det.kind == THRESHOLD:
        # on vacuum the dark probability itself, not 1 - (1 - d)
        return 1.0 - _silent_probability(det, n) if n else d
    one_detected = n * eta * (1.0 - eta) ** (n - 1) if n else 0.0
    return one_detected * (1.0 - d) + (1.0 - eta) ** n * d


def _silent_probability(det: DetectorSpec, n: int) -> float:
    """Probability that `det` reads nothing: all n photons lost, no dark count."""
    return (1.0 - det.eta) ** n * (1.0 - det.dark_probability)


def occupation_probabilities(state: PureState | MixedState, modes: list[Mode]
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct photon counts on `modes` in `state`, one int row each
    (columns as `modes`), and their probabilities."""
    rows, probs = [], []
    for weight, pure in as_mixed(state).branches:
        for key, amp in pure.terms.items():
            occ = dict(key)
            rows.append([occ.get(m, 0) for m in modes])
            probs.append(weight * abs(amp) ** 2)
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(modes))
    occ, inverse = np.unique(rows, axis=0, return_inverse=True)
    return occ, np.bincount(inverse.ravel(), weights=probs, minlength=len(occ))


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


QUBIT_BASIS = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]


def _qubit_index(key: FockKey, arms: tuple[str, str]) -> int | None:
    """Index into QUBIT_BASIS if the key is exactly one photon per arm."""
    pols = {arms[0]: None, arms[1]: None}
    for (spatial, pol), n in key:
        if spatial not in pols or n != 1 or pols[spatial] is not None:
            return None
        pols[spatial] = "x" if pol == "x" else ("y" if pol == "y" else None)
        if pols[spatial] is None:
            return None
    pc, pd = pols[arms[0]], pols[arms[1]]
    if pc is None or pd is None:
        return None
    return QUBIT_BASIS.index((pc, pd))


def herald(state: PureState | MixedState,
           trigger_detectors: list[DetectorSpec],
           output_arms: tuple[str, str] = OUTPUT_ARMS) -> HeraldResult:
    """Condition on all four trigger detectors firing.

    Groups the terms of `state`, the post-circuit state, by the photons
    reaching each trigger, weights each group by the product of the
    triggers' `click_probability`, and accumulates the conditional output
    state.  The conditional density matrix is restricted to the
    one-photon-per-arm sector of the output modes; its trace (after
    normalization by the herald probability) is the preparation efficiency.
    """
    if len(trigger_detectors) != 4:
        raise ConfigError("heralding requires exactly four trigger detectors")
    trig_modes = [d.mode for d in trigger_detectors]
    trig_set = set(trig_modes)

    herald_p = 0.0
    good_p = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    for weight, pure in as_mixed(state).branches:
        groups: dict[tuple[int, ...], dict[FockKey, complex]] = {}
        for key, amp in pure.terms.items():
            occ = tuple(key_occupation(key, m) for m in trig_modes)
            rest = tuple((m, n) for m, n in key if m not in trig_set)
            bucket = groups.setdefault(occ, {})
            bucket[rest] = bucket.get(rest, 0.0) + amp
        for occ, rest_terms in groups.items():
            p_click = math.prod(click_probability(det, n)
                                for det, n in zip(trigger_detectors, occ))
            if p_click == 0.0:
                continue
            group_w = weight * p_click
            herald_p += group_w * sum(abs(a) ** 2 for a in rest_terms.values())
            vec = np.zeros(4, dtype=complex)
            for key, amp in rest_terms.items():
                idx = _qubit_index(key, output_arms)
                if idx is not None:
                    vec[idx] = amp
            vnorm = float(np.vdot(vec, vec).real)
            if vnorm > 0.0:
                good_p += group_w * vnorm
                rho += group_w * np.outer(vec, vec.conjugate())

    if herald_p <= 0.0:
        return HeraldResult(herald_probability=0.0,
                            conditional_dm=np.zeros((4, 4), dtype=complex),
                            preparation_efficiency=0.0, heralded=False)
    return HeraldResult(herald_probability=herald_p,
                        conditional_dm=rho / herald_p,
                        preparation_efficiency=good_p / herald_p,
                        heralded=True)


def decompose_s1(state: PureState,
                 trigger_modes: tuple[Mode, ...] = TRIGGER_MODES,
                 output_arms: tuple[str, str] = OUTPUT_ARMS
                 ) -> HeraldDecomposition:
    """Classify the lossless post-circuit state into trigger classes.

    alpha^2: exactly one photon per trigger mode and two output photons;
    beta^2: at least one photon at every trigger mode, deficient output;
    gamma^2: everything else (no complete trigger).
    """
    alpha_sq = beta_sq = gamma_sq = 0.0
    arms = set(output_arms)
    for key, amp in state.terms.items():
        p = abs(amp) ** 2
        trig = [key_occupation(key, m) for m in trigger_modes]
        out_photons = sum(n for (spatial, _), n in key if spatial in arms)
        if all(n == 1 for n in trig) and out_photons == 2:
            alpha_sq += p
        elif all(n >= 1 for n in trig):
            beta_sq += p
        else:
            gamma_sq += p
    return HeraldDecomposition(alpha_sq, beta_sq, gamma_sq)


def sixfold_probability(state: PureState | MixedState,
                        trigger_detectors: list[DetectorSpec],
                        output_detectors: list[DetectorSpec],
                        basis: tuple[str, str],
                        outcome: tuple[int, int] = (0, 0),
                        output_arms: tuple[str, str] = OUTPUT_ARMS) -> float:
    """Probability of a six-fold coincidence for one outcome pair.

    Output arms of `state`, the post-circuit state, are rotated into the
    measurement basis before detection.  Triggers fire as in `herald`.
    `outcome` selects which detector clicks in each arm (0 = the x-labeled
    port: H, + or R), and the complementary output detectors must not click,
    matching coincidence-logic counting.  The event is a product of
    per-detector events: one factor per detector and pattern.
    """
    rotation = CircuitSpec(tuple(measurement_rotation(arm, b)
                                 for arm, b in zip(output_arms, basis)))
    rotated = MixedState(tuple((weight, apply_circuit(pure, rotation))
                               for weight, pure in as_mixed(state).branches))
    detectors = list(trigger_detectors) + list(output_detectors)
    occ, p_occ = occupation_probabilities(rotated, [d.mode for d in detectors])

    n_trig = len(trigger_detectors)
    by_arm: dict[str, list[int]] = {arm: [] for arm in output_arms}
    for i, det in enumerate(output_detectors):
        by_arm[det.mode[0]].append(n_trig + i)
    wanted = []
    for arm_i, arm in enumerate(output_arms):
        ports = sorted(by_arm[arm], key=lambda i: detectors[i].mode[1])
        wanted.append(ports[outcome[arm_i]])

    counts = range(int(occ.max(initial=0)) + 1)
    total = p_occ
    for i, det in enumerate(detectors):
        if i < n_trig:
            factor = [click_probability(det, n) for n in counts]
        elif i in wanted:  # any reading of one or more
            factor = [1.0 - _silent_probability(det, n) for n in counts]
        else:
            factor = [_silent_probability(det, n) for n in counts]
        total = total * np.array(factor)[occ[:, i]]
    return float(total.sum())


def fidelity_to_phi_plus(dm: np.ndarray) -> float:
    """Tr(rho |Phi+><Phi+|) on the (c,d) polarization qubit sector."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return float(np.real(phi.conjugate() @ dm @ phi))
