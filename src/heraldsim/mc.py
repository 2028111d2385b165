"""Pulse-level Monte Carlo driver.

Pulses are i.i.d. and a run reports only each basis setting's click-pattern
histogram, which for N pulses is exactly Multinomial(N, q), where q is the
exact pattern distribution of the source mixture (the truncated tail as
vacuum) after the circuit and the basis rotation.  The circuit and each
basis's rotations (`sixfold_rule`) compose into one source -> detector
map; the two pair operators are taken through it once and every source
branch is built in detector modes from them (`source.pair_power_states` on
`ArrayPolynomial`, the array-backed twin of `fock.Polynomial`), with no
per-branch substitution.  So each basis draws its histogram directly, as
one multinomial from Philox keyed by (seed, basis index): sampling error is
the only stochastic component, and the cost does not grow with N.  numpy
does not promise stable `multinomial` streams across versions (NEP 19); the
run manifest records the numpy version.  Outcome letters come from
`elements.MEASUREMENT_BASES`.

The branches' keys are int64, checked to stay below 2^63 before the first
product (`_check_key_bound`), and their rows narrow; the tables read them
with `occupation_probabilities`, the array twin of `detect.occupations`.
This is the one module that imports numpy at load time; `herald` and
`sweep` never load it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.random import Generator, Philox

from .analysis import (Estimate, correlation_from_counts, eff_exp,
                       fidelity_phi_plus)
from .config import (THRESHOLD, DetectorSpec, ExperimentConfig,
                     click_probability, source_cells)
from .elements import (MEASUREMENT_BASES, SOURCE_MODES, ConfigError, Mode,
                       ModeTransform, compose, measurement_rotation)
from .fock import (DROP_TOL, MixedState, PureState, TruncationError,
                   as_mixed, places)
from .source import dephased_source


@dataclass(frozen=True, eq=False)
class ArrayPolynomial:
    """`fock.Polynomial` with its keys and coefficients in arrays: a product
    is a broadcast key sum, equal keys merged by `np.unique` and
    `bincount`."""

    keys: np.ndarray
    coefs: np.ndarray

    @classmethod
    def merged(cls, keys: np.ndarray, coefs: np.ndarray) -> "ArrayPolynomial":
        """Sum the coefficients of equal keys."""
        out, inverse = np.unique(keys, return_inverse=True)
        return cls(out, np.bincount(inverse, coefs.real, len(out))
                   + 1j * np.bincount(inverse, coefs.imag, len(out)))

    @classmethod
    def one(cls) -> "ArrayPolynomial":
        return cls(np.zeros(1, np.int64), np.ones(1, complex))

    @classmethod
    def linear(cls, column: tuple[tuple[complex, Mode], ...],
               place: Mapping[Mode, int]) -> "ArrayPolynomial":
        return cls.merged(np.array([place[m] for _, m in column], np.int64),
                          np.array([c for c, _ in column], complex))

    def __add__(self, other: "ArrayPolynomial") -> "ArrayPolynomial":
        return ArrayPolynomial.merged(np.r_[self.keys, other.keys],
                                      np.r_[self.coefs, other.coefs])

    def __neg__(self) -> "ArrayPolynomial":
        return ArrayPolynomial(self.keys, -self.coefs)

    def __mul__(self, other: "ArrayPolynomial") -> "ArrayPolynomial":
        return ArrayPolynomial.merged(
            (self.keys[:, None] + other.keys).ravel(),
            (self.coefs[:, None] * other.coefs).ravel())

    def unit_state(self, modes: tuple[Mode, ...], base: int) -> PureState:
        """`fock.Polynomial.unit_state`, the rows and amplitudes arrays, the
        rows in the narrowest unsigned dtype that holds base - 1."""
        place = np.array(places(base, len(modes)), np.int64)
        rows = (self.keys[:, None] // place % base).astype(
            np.min_scalar_type(base - 1))
        amps = self.coefs * np.prod(
            np.sqrt([math.factorial(p) for p in range(base)])[rows], axis=1)
        keep = np.abs(amps) > DROP_TOL
        amps = amps[keep]
        return PureState(modes, rows[keep],
                         amps / math.sqrt(float(np.vdot(amps, amps).real)))


def _check_key_bound(config: ExperimentConfig,
                     transform: ModeTransform) -> None:
    """Raise `TruncationError` unless `dephased_source`'s int64 keys through
    `transform` stay below 2^63: 2 n photons of the last (top) source sector
    n, in base 2 n + 1 over the transform's output modes."""
    photons = 2 * source_cells(config.source, config.noise)[-1][0]
    n_modes = len({m for c in SOURCE_MODES for _, m in transform.columns[c]})
    if (photons + 1) ** n_modes >= 2 ** 63:
        raise TruncationError(f"{n_modes} modes holding up to {photons} "
                              "photons overflow a 64-bit packed key")


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative int array in lexicographic order,
    and each row's index among them, by one sort of packed keys."""
    sizes = rows.max(axis=0, initial=0).astype(np.int64) + 1  # no uint8 wrap
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
    probabilities: the array twin of `detect.occupations`, summed per row
    (an array branch's rows keep their dtype, tuple rows read as int64)."""
    rows, amps = [], []
    for weight, pure in as_mixed(state).branches:
        counts = np.asarray(pure.rows, getattr(pure.rows, "dtype", np.int64)
                            ).reshape(len(pure), len(pure.modes))
        rows.append(np.pad(counts, ((0, 0), (0, 1)))[:, pure.columns(modes)])
        amps.append(np.asarray(pure.amps, complex) * math.sqrt(weight))
    rows, inverse = _unique_rows(np.concatenate(rows))
    return rows, np.bincount(inverse, np.abs(np.concatenate(amps)) ** 2,
                             len(rows))


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
        c = np.array([click_probability(detectors[i], n) for n in range(
            int(occ[:, i].max(initial=0)) + 1)])[occ[:, i]][:, None]
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
    triggers then the output detectors (bit i = detector i registered its
    `click_probability` event), the one place that decides which detectors
    a six-fold reads: triggers of either kind, threshold output detectors
    only.  Each of the two output arms needs exactly two detectors; sorted
    by label, the first registers the basis's first outcome (H, + or R)
    after the arm's rotation, also returned.  Per pattern: whether every
    trigger fired, and the outcome 2 o_0 + o_1 (o_a = 0 if arm a's first
    clicked), or -1 unless every trigger and one detector per arm did."""
    if pnr := [d.id for d in output_detectors if d.kind != THRESHOLD]:
        raise ConfigError("six-fold counting reads threshold output "
                          f"detectors only; not threshold: {', '.join(pnr)}")
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
class CountRecord:
    basis: tuple[str, str]
    pulses: int
    n_t: int
    n_s: int
    outcomes: dict[str, int]


@dataclass(frozen=True)
class McResult:
    records: tuple[CountRecord, ...]
    efficiency: Estimate | None
    fidelity: Estimate | None


@dataclass(frozen=True)
class BasisTables:
    """Exact click-pattern distribution of one basis setting."""

    basis: tuple[str, str]
    branch_weights: np.ndarray           # over source branches (last = remainder)
    pattern_probs: np.ndarray            # per pattern, over the whole mixture
    is_trigger: np.ndarray               # per pattern
    outcome_index: np.ndarray            # per pattern, -1 if not a six-fold
    outcome_labels: tuple[str, ...]
    fock_terms: int                      # post-circuit terms, all branches
    truncated_weight: float              # source tail counted as vacuum

    def sixfold_probability_per_pulse(self) -> float:
        return float(self.pattern_probs[self.outcome_index >= 0].sum())

    def trigger_probability_per_pulse(self) -> float:
        return float(self.pattern_probs[self.is_trigger].sum())


def precompute_outcome_tables(config: ExperimentConfig) -> list[BasisTables]:
    """Exact click-pattern distribution per basis setting."""
    triggers, outputs = config.trigger_detectors(), config.output_detectors()
    detectors = triggers + outputs
    circuit = config.circuit()
    tables = []
    # no basis stanza: the table's first basis (H/V) on both arms
    for basis in config.bases or (tuple(MEASUREMENT_BASES)[:1] * 2,):
        rotations, is_trigger, outcome_index = sixfold_rule(
            triggers, outputs, config.output_arms(), basis)
        # one outcome letter per arm, "HV", "+-", ..., in every output
        first, second = (MEASUREMENT_BASES[b].outcomes for b in basis)
        outcome_labels = tuple(a + b for a in first for b in second)
        # source modes -> this basis's detector modes, composed once; every
        # branch is built in detector modes through it
        to_detectors = compose((circuit, *rotations), SOURCE_MODES)
        _check_key_bound(config, to_detectors)
        branches = list(dephased_source(config.source, config.noise,
                                        to_detectors, ArrayPolynomial)
                        .branches)
        fock_terms = sum(len(out) for _, out in branches)
        remainder = max(1.0 - sum(w for w, _ in branches), 0.0)
        if remainder > 0.0:
            # truncated tail: dark-count-only pulses, on narrow rows too
            branches.append((remainder,
                             ArrayPolynomial.one().unit_state((), 1)))
        tables.append(BasisTables(
            basis=basis, branch_weights=np.array([w for w, _ in branches]),
            pattern_probs=click_pattern_probabilities(
                MixedState(tuple(branches)), detectors),
            is_trigger=is_trigger, outcome_index=outcome_index,
            outcome_labels=outcome_labels, fock_terms=fock_terms,
            truncated_weight=remainder))
    return tables


def sample_histogram(tables: BasisTables, key: tuple[int, int],
                     pulses: int) -> np.ndarray:
    """Click-pattern histogram of `pulses` pulses: one multinomial draw over
    the basis's pattern distribution, from Philox keyed by `key` (seed,
    basis index)."""
    q = tables.pattern_probs
    return Generator(Philox(key=key)).multinomial(pulses, q / q.sum())


def pattern_sums(tables: BasisTables, per_pattern: np.ndarray
                 ) -> dict[str, np.number]:
    """n_t, n_s and each outcome ("HH", ...) summed over a per-pattern
    vector: counts of a histogram, or probabilities of `pattern_probs`."""
    sums = {"n_t": per_pattern[tables.is_trigger].sum(),
            "n_s": per_pattern[tables.outcome_index >= 0].sum()}
    for k, label in enumerate(tables.outcome_labels):
        sums[label] = per_pattern[tables.outcome_index == k].sum()
    return sums


def run_experiment(config: ExperimentConfig,
                   tables: list[BasisTables] | None = None,
                   aggregate: bool = False) -> McResult:
    """Draw every basis setting's counts and derive estimates.

    `aggregate` has no effect; it is accepted because perfbench passes it."""
    if tables is None:
        tables = precompute_outcome_tables(config)
    records = []
    for bi, t in enumerate(tables):
        sums = pattern_sums(t, sample_histogram(t, (config.seed, bi),
                                                config.pulses))
        records.append(CountRecord(
            basis=t.basis, pulses=config.pulses, n_t=int(sums["n_t"]),
            n_s=int(sums["n_s"]),
            outcomes={label: int(sums[label]) for label in t.outcome_labels}))

    n_t = sum(r.n_t for r in records)
    n_s = sum(r.n_s for r in records)
    efficiency = eff_exp(n_s, n_t, config.mean_output_eta()) if n_t else None
    fidelity = None
    with contextlib.suppress(ConfigError):
        fidelity = estimate_fidelity(records)
    return McResult(records=tuple(records), efficiency=efficiency,
                    fidelity=fidelity)


def estimate_fidelity(records: list[CountRecord] | tuple[CountRecord, ...]
                      ) -> Estimate:
    """Fidelity to Phi+ from counts in the three complementary bases; a
    record with both arms in one basis gives its Pauli correlation."""
    found: dict[str, tuple[float, float]] = {}
    for record in records:
        first, second = record.basis
        component = 2 * MEASUREMENT_BASES[first].pauli
        if first != second or component in found:
            continue
        if sum(record.outcomes.values()) > 0:
            found[component] = correlation_from_counts(record.outcomes)
    missing = {2 * b.pauli for b in MEASUREMENT_BASES.values()} - set(found)
    if missing:
        raise ConfigError("fidelity needs counts in all three bases; missing "
                          + ", ".join(sorted(missing)))
    return fidelity_phi_plus(found)
