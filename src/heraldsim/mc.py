"""Pulse-level Monte Carlo driver.

Pulses are i.i.d. and a run reports only each basis setting's click-pattern
histogram, which for N pulses is exactly Multinomial(N, q), where q is the
exact pattern distribution of the source mixture (the truncated tail as
vacuum) after the circuit and the basis rotation.  The circuit and each
basis's rotations (`detect.sixfold_rule`) compose into one source ->
detector map; the two pair operators are taken through it once and every
source branch is built in detector modes from them
(`source.pair_power_states`), with no per-branch substitution.  So each
basis draws its histogram directly, as one multinomial from Philox keyed by
(seed, basis index): sampling error is the only stochastic component, and
the cost does not grow with N.  numpy does not promise stable `multinomial`
streams across versions (NEP 19); the run manifest records the numpy
version.  Outcome letters come from `elements.MEASUREMENT_BASES`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .analysis import (Estimate, correlation_from_counts, eff_exp,
                       fidelity_phi_plus)
from .config import ExperimentConfig
from .detect import THRESHOLD, click_pattern_probabilities, sixfold_rule
from .elements import MEASUREMENT_BASES, SOURCE_MODES, compose
from .fock import ConfigError, MixedState, make_vacuum
from .source import dephased_source


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
    if pnr := [d.id for d in detectors if d.kind != THRESHOLD]:
        raise ConfigError("Monte Carlo tables support threshold detectors "
                          f"only; not threshold: {', '.join(pnr)}")
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
        branches = list(dephased_source(config.source, config.noise,
                                        to_detectors).branches)
        fock_terms = sum(len(out) for _, out in branches)
        remainder = max(1.0 - sum(w for w, _ in branches), 0.0)
        if remainder > 0.0:
            # truncated tail: treated as dark-count-only pulses
            branches.append((remainder, make_vacuum()))
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
