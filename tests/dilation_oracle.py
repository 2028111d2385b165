"""Reference route for detector loss, kept as the oracle for
`heraldsim.detect.click_probability`.

Loss in front of a detector is a beam splitter of transmission eta into a
fresh environment mode, applied to the whole state by one substitution.
The environment modes are then traced out: probabilities of surviving
photon counts sum |amplitude|^2 over the environment occupations, and the
herald keeps one incoherent branch per environment occupation.  Readings
are assigned to the photons that survive: an ideal threshold detector
clicks on one or more, a number-resolving detector counts them, and a dark
count adds a click (or one count) with probability d.  Nothing here is
shared with the closed form beyond the state algebra and the detector
specs.
"""

from __future__ import annotations

import math
from itertools import product as iproduct
from typing import Iterator

import numpy as np

from heraldsim.detect import THRESHOLD, DetectorSpec, HeraldResult
from heraldsim.elements import ModeTransform, measurement_rotation
from heraldsim.fock import (ConfigError, FockKey, MixedState, Mode, PureState,
                            as_mixed, mode_str, substitute_modes)

from conftest import OUTPUT_ARMS
from fock_oracle import from_terms

ENV_PREFIX = "~"
QUBIT_BASIS = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]


def key_occupation(key: FockKey, m: Mode) -> int:
    return dict(key).get(m, 0)


def qubit_index(key: FockKey, arms: tuple[str, str]) -> int | None:
    """Index into QUBIT_BASIS if the key is exactly one x- or y-polarized
    photon per output arm and nothing else."""
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


def env_mode_for(m: Mode) -> Mode:
    """Deterministic fresh environment label for loss on a physical mode."""
    return (f"{ENV_PREFIX}{m[0]}:{m[1]}", m[1])


def is_env_mode(m: Mode) -> bool:
    return m[0].startswith(ENV_PREFIX)


def loss_channel(m: Mode, eta: float) -> ModeTransform:
    """Loss as a beam splitter into a fresh environment mode (dilation)."""
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"loss transmission {eta} outside [0, 1] for {mode_str(m)}")
    columns = {m: ((math.sqrt(eta) + 0.0j, m),
                   (math.sqrt(1.0 - eta) + 0.0j, env_mode_for(m)))}
    return ModeTransform(columns)


def branch_on_modes(state: PureState, env_modes) -> MixedState:
    """Trace out environment modes into an incoherent mixture.

    One branch per environment occupation pattern; branch weight is the
    marginal probability and branch states are renormalized.  Total weight
    equals the input norm^2.
    """
    env = set(env_modes)
    branches = []
    for env_part, terms in sorted(_group_by_env(state, env).items()):
        weight = sum(abs(a) ** 2 for a in terms.values())
        if weight <= 0.0:
            continue
        scale = 1.0 / math.sqrt(weight)
        branches.append((weight, from_terms(
            {k: a * scale for k, a in terms.items()})))
    return MixedState(tuple(branches))


def _group_by_env(state: PureState, env: set[Mode]
                  ) -> dict[FockKey, dict[FockKey, complex]]:
    """Terms of `state` by their environment occupations: for each pattern,
    the unnormalized state of the other modes."""
    groups: dict[FockKey, dict[FockKey, complex]] = {}
    for key, amp in state.terms.items():
        env_part = tuple((m, n) for m, n in key if m in env)
        sys_part = tuple((m, n) for m, n in key if m not in env)
        bucket = groups.setdefault(env_part, {})
        bucket[sys_part] = bucket.get(sys_part, 0.0) + amp
    return groups


def dilate(state: PureState | MixedState, detectors: list[DetectorSpec]
           ) -> Iterator[tuple[float, PureState]]:
    """Insert a loss channel with transmission eta before each detector,
    keeping the environment modes in each branch's pure state.  The channels
    act on distinct modes, so they commute and are applied as one
    substitution."""
    losses: dict = {}
    for det in detectors:
        if det.eta < 1.0:
            losses.update(loss_channel(det.mode, det.eta).columns)
    for weight, pure in as_mixed(state).branches:
        yield weight, substitute_modes(
            pure, ModeTransform(losses).extended(pure.occupied_modes()))


def surviving_readings(det: DetectorSpec, occupation: int
                       ) -> list[tuple[object, float]]:
    """Readings and probabilities given the photons that survived loss."""
    d = det.dark_probability
    if det.kind == THRESHOLD:
        p_click = 1.0 if occupation >= 1 else d
        return [(True, p_click), (False, 1.0 - p_click)]
    # number-resolving: dark adds one extra count with probability d
    if d == 0.0:
        return [(occupation, 1.0)]
    return [(occupation, 1.0 - d), (occupation + 1, d)]


def trigger_fires(det: DetectorSpec, reading) -> bool:
    """A threshold trigger fires on a click, a number-resolving trigger on a
    reading of exactly one photon."""
    if det.kind == THRESHOLD:
        return reading is True
    return reading == 1


def _columns(pure: PureState, modes: list[Mode]) -> np.ndarray:
    """Photon counts of each term of `pure` on `modes`, one column per mode
    (zeros for a mode the state does not carry)."""
    counts = np.array(pure.counts(), np.int64).reshape(len(pure), -1)
    out = np.zeros((len(pure), len(modes)), np.int64)
    for j, m in enumerate(modes):
        if m in pure.modes:
            out[:, j] = counts[:, pure.modes.index(m)]
    return out


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative int array and each row's index
    among them, by packing every row into one integer."""
    place = (int(rows.max(initial=0)) + 1) ** np.arange(rows.shape[1])
    _, first, inverse = np.unique(rows @ place, return_index=True,
                                  return_inverse=True)
    return rows[first], inverse.ravel()


def _surviving_occupations(state: PureState | MixedState,
                           detectors: list[DetectorSpec]
                           ) -> dict[tuple[int, ...], float]:
    """Probability of each count pattern of the photons that survive loss
    at `detectors`.  The environment is traced out by summing |amplitude|^2
    over the dilated state's terms: distinct Fock keys are orthogonal, so
    no branch needs to be formed."""
    modes = [d.mode for d in detectors]
    occ_probs: dict[tuple[int, ...], float] = {}
    for weight, pure in dilate(state, detectors):
        occs, inverse = _distinct_rows(_columns(pure, modes))
        probs = np.bincount(inverse, np.abs(pure.amps) ** 2, len(occs))
        for occ, p in zip(map(tuple, occs.tolist()), probs.tolist()):
            occ_probs[occ] = occ_probs.get(occ, 0.0) + weight * p
    return occ_probs


def click_distribution(state: PureState | MixedState,
                       detectors: list[DetectorSpec]) -> dict[tuple, float]:
    """Joint readings of `detectors` on the post-circuit `state`."""
    dist: dict[tuple, float] = {}
    for occ, p_occ in _surviving_occupations(state, detectors).items():
        options = [surviving_readings(d, n) for d, n in zip(detectors, occ)]
        for combo in iproduct(*options):
            prob = p_occ * math.prod(p for _, p in combo)
            if prob > 0.0:
                pattern = tuple(reading for reading, _ in combo)
                dist[pattern] = dist.get(pattern, 0.0) + prob
    return dist


def click_probability(det: DetectorSpec, n: int) -> float:
    """Probability that `det` registers its event on the single-mode Fock
    state |n>."""
    state = from_terms({((det.mode, n),) if n else (): 1.0})
    return sum(p for (reading,), p in click_distribution(state, [det]).items()
               if trigger_fires(det, reading))


def herald(state: PureState | MixedState, trigger_detectors: list[DetectorSpec],
           output_arms: tuple[str, str] = OUTPUT_ARMS) -> HeraldResult:
    """Condition on all four triggers firing, with trigger losses dilated."""
    trig_modes = [d.mode for d in trigger_detectors]
    # each arm's polarization labels as the state carries them, sorted;
    # x and y on an arm no photon reaches
    carried = {m for _, pure in as_mixed(state).branches for m in pure.modes}
    arm_modes = [(arm, pol) for arm in output_arms
                 for pol in sorted(p for a, p in carried if a == arm)
                 or ("x", "y")]
    herald_p = good_p = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    for weight, pure in dilate(state, trigger_detectors):
        # each environment pattern is an incoherent branch; within one, the
        # terms with the same trigger counts are one coherent output state
        env = _columns(pure, [m for m in pure.modes if is_env_mode(m)])
        trig, arms = _columns(pure, trig_modes), _columns(pure, arm_modes)
        groups, inverse = _distinct_rows(np.hstack([env, trig]))
        p_fire = np.array([math.prod(
            sum(p for reading, p in surviving_readings(det, n)
                if trigger_fires(det, reading))
            for det, n in zip(trigger_detectors, occ))
            for occ in groups[:, env.shape[1]:].tolist()])
        herald_p += weight * float(p_fire @ np.bincount(
            inverse, np.abs(pure.amps) ** 2, len(groups)))
        # the qubit part: one x- or y-polarized photon per output arm and
        # nothing on any other mode but the environment and the triggers
        others = (_columns(pure, list(pure.modes)).sum(axis=1)
                  - env.sum(axis=1) - trig.sum(axis=1) - arms.sum(axis=1))
        x0, y0, x1, y1 = arms.T
        qubit = (x0 + y0 == 1) & (x1 + y1 == 1) & (others == 0)
        vectors = np.zeros((len(groups), 4), dtype=complex)
        vectors[inverse[qubit], (2 * y0 + y1)[qubit]] = np.asarray(
            pure.amps)[qubit]
        group_w = weight * p_fire
        good_p += float(group_w @ (np.abs(vectors) ** 2).sum(axis=1))
        rho += np.einsum("g,gi,gj->ij", group_w, vectors, vectors.conj())
    if herald_p <= 0.0:
        return HeraldResult(0.0, np.zeros((4, 4), dtype=complex), 0.0, False)
    return HeraldResult(herald_p, rho / herald_p, good_p / herald_p, True)


def sixfold_probability(state: PureState | MixedState,
                        trigger_detectors: list[DetectorSpec],
                        output_detectors: list[DetectorSpec],
                        basis: tuple[str, str],
                        outcome: tuple[int, int] = (0, 0),
                        output_arms: tuple[str, str] = OUTPUT_ARMS) -> float:
    """Exclusive six-fold probability: every trigger fires, the selected
    detector of each output arm clicks and the other output detectors
    stay silent."""
    ports = {arm: sorted((d for d in output_detectors if d.mode[0] == arm),
                         key=lambda d: d.mode[1]) for arm in output_arms}
    rotated = []
    for weight, pure in as_mixed(state).branches:
        for arm, b in zip(output_arms, basis):
            pols = tuple(d.mode[1] for d in ports[arm])
            pure = substitute_modes(pure, measurement_rotation(arm, b, pols)
                                    .extended(pure.occupied_modes()))
        rotated.append((weight, pure))
    wanted = {ports[arm][o].id for arm, o in zip(output_arms, outcome)}

    def p_event(det: DetectorSpec, n: int) -> float:
        # given n surviving photons: a trigger fires, a wanted output
        # detector clicks, any other output detector stays silent
        readings = surviving_readings(det, n)
        if det in trigger_detectors:
            return sum(p for r, p in readings if trigger_fires(det, r))
        return sum(p for r, p in readings if bool(r) == (det.id in wanted))

    detectors = list(trigger_detectors) + list(output_detectors)
    occ_probs = _surviving_occupations(MixedState(tuple(rotated)), detectors)
    return sum(p_occ * math.prod(p_event(d, n) for d, n in zip(detectors, occ))
               for occ, p_occ in occ_probs.items())
