"""Pulse-level Monte Carlo driver.

Pulses are i.i.d. and a run reports only each basis setting's click-pattern
histogram, which for N pulses is exactly Multinomial(N, q), where q is the
exact pattern distribution of the source mixture (the truncated tail as
vacuum) after the circuit and the basis rotation.  So each basis draws its
histogram directly, as one multinomial from Philox keyed by (seed, basis
index): sampling error is the only stochastic component, and the cost does
not grow with N.  numpy does not promise stable `multinomial` streams across
versions (NEP 19); the run manifest records the numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.random import Generator, Philox

from .analysis import (EfficiencyEstimate, FidelityEstimate, PauliCorrelation,
                       correlation_from_counts, eff_exp, fidelity_phi_plus)
from .config import ExperimentConfig
from .detect import THRESHOLD, click_pattern_probabilities, sixfold_outcomes
from .elements import BASIS_OUTCOMES, CircuitSpec, measurement_rotation
from .fock import ConfigError, MixedState, make_vacuum, substitute_modes
from .source import dephased_source


@dataclass(frozen=True)
class CountRecord:
    basis: tuple[str, str]
    pulses: int
    n_t: int
    n_s: int
    outcomes: dict[tuple[str, str], int]


@dataclass(frozen=True)
class McResult:
    records: tuple[CountRecord, ...]
    efficiency: EfficiencyEstimate | None
    fidelity: FidelityEstimate | None
    seed: int
    pulses_per_basis: int


@dataclass(frozen=True)
class BasisTables:
    """Exact click-pattern distribution of one basis setting."""

    basis: tuple[str, str]
    branch_weights: np.ndarray           # over source branches (last = remainder)
    pattern_probs: np.ndarray            # per pattern, over the whole mixture
    is_trigger: np.ndarray               # per pattern
    outcome_index: np.ndarray            # per pattern, -1 if not a six-fold
    outcome_labels: tuple[tuple[str, str], ...]
    fock_terms: int                      # post-circuit terms, all branches

    def sixfold_probability_per_pulse(self) -> float:
        return float(self.pattern_probs[self.outcome_index >= 0].sum())

    def trigger_probability_per_pulse(self) -> float:
        return float(self.pattern_probs[self.is_trigger].sum())


def precompute_outcome_tables(config: ExperimentConfig) -> list[BasisTables]:
    """Exact click-pattern distribution per basis setting."""
    triggers, outputs = config.trigger_detectors(), config.output_detectors()
    detectors = triggers + outputs
    if any(d.kind != THRESHOLD for d in detectors):
        raise ConfigError("Monte Carlo tables support threshold detectors only")
    arms = config.output_arms()
    is_trigger, outcome_index = sixfold_outcomes(triggers, outputs, arms)

    circuit = config.circuit()
    source = dephased_source(config.source, config.noise).branches
    source_modes = set().union(*(state.occupied_modes() for _, state in source))
    tables = []
    for basis in (config.bases or (("HV", "HV"),)):
        outcome_labels = tuple(product(BASIS_OUTCOMES[basis[0]],
                                       BASIS_OUTCOMES[basis[1]]))
        # source modes -> this basis's detector modes: one pass per branch
        to_detectors = CircuitSpec(circuit.transforms + tuple(
            measurement_rotation(arm, b) for arm, b in zip(arms, basis))
        ).compile(source_modes)
        branches = [(w, substitute_modes(state, to_detectors))
                    for w, state in source]
        remainder = max(1.0 - sum(w for w, _ in branches), 0.0)
        if remainder > 0.0:
            # truncated tail: treated as dark-count-only pulses
            branches.append((remainder, make_vacuum()))
        tables.append(BasisTables(
            basis=basis, branch_weights=np.array([w for w, _ in branches]),
            pattern_probs=click_pattern_probabilities(
                MixedState(tuple(branches)), detectors),
            is_trigger=is_trigger, outcome_index=outcome_index,
            outcome_labels=outcome_labels,
            fock_terms=sum(len(out) for _, out in branches[:len(source)])))
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
    for k, (a, b) in enumerate(tables.outcome_labels):
        sums[a + b] = per_pattern[tables.outcome_index == k].sum()
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
            outcomes={(a, b): int(sums[a + b]) for a, b in t.outcome_labels}))

    n_t = sum(r.n_t for r in records)
    n_s = sum(r.n_s for r in records)
    efficiency = eff_exp(n_s, n_t, config.mean_output_eta()) if n_t else None
    fidelity = None
    try:
        fidelity = estimate_fidelity(records)
    except ConfigError:
        pass
    return McResult(records=tuple(records), efficiency=efficiency,
                    fidelity=fidelity, seed=config.seed,
                    pulses_per_basis=config.pulses)


_CORRELATION_BASIS = {("DA", "DA"): "xx", ("RL", "RL"): "yy", ("HV", "HV"): "zz"}


def estimate_fidelity(records: list[CountRecord] | tuple[CountRecord, ...]
                      ) -> FidelityEstimate:
    """Fidelity to Phi+ from counts in the three complementary bases."""
    found: dict[str, tuple[float, float]] = {}
    for record in records:
        component = _CORRELATION_BASIS.get(record.basis)
        if component is None or component in found:
            continue
        if sum(record.outcomes.values()) > 0:
            found[component] = correlation_from_counts(record.outcomes)
    missing = [c for c in ("xx", "yy", "zz") if c not in found]
    if missing:
        raise ConfigError("fidelity needs counts in all three bases; missing "
                          + ", ".join(sorted(missing)))
    corr = PauliCorrelation(
        xx=found["xx"][0], yy=found["yy"][0], zz=found["zz"][0],
        sigma_xx=found["xx"][1], sigma_yy=found["yy"][1], sigma_zz=found["zz"][1])
    return fidelity_phi_plus(corr)
