"""Pulse-level Monte Carlo driver.

Per pulse the simulator samples a source branch (pair number and dephasing
pattern) and then a joint click pattern from an exact per-branch
distribution, so there is no per-photon trajectory bias: sampling error is
the only stochastic component.  Randomness is counter-based (Philox keyed by
seed and basis index, one counter block per pulse): pulse i always consumes
counter block i, whose first value u0 picks the branch by inverse CDF and
whose second value u1 picks the click pattern.

Both inversions are table lookups.  Within one basis, the pattern drawn by
u1 depends only on the rank of u1 among the union of every branch's
pattern-CDF values, so a (branch, rank) table gives it directly; the rank
itself comes from a guide table over 2^16 equal buckets of [0, 1] (Chen &
Asau 1974), with a binary search only for the few pulses whose bucket holds
a CDF value.  The result equals `searchsorted` on the branch's own CDF for
every u, so counts are exact, not approximate.  Pulses are cut into shards
that run on a thread pool; shard histograms are integer counts merged by
addition, so counts are byte-identical for any shard size and thread count.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.random import Generator, Philox

from .analysis import (EfficiencyEstimate, FidelityEstimate, PauliCorrelation,
                       correlation_from_counts, eff_exp, fidelity_phi_plus)
from .config import ExperimentConfig
from .detect import THRESHOLD, click_pattern_probabilities, sixfold_outcomes
from .elements import BASIS_OUTCOMES, CircuitSpec, measurement_rotation
from .fock import ConfigError, make_vacuum, substitute_modes
from .source import dephased_source

_RAWS_PER_PULSE = 4  # one Philox counter block
_GUIDE_SHIFT = 48  # top 16 bits of a raw value pick its guide bucket
_GUIDE_BUCKETS = 1 << (64 - _GUIDE_SHIFT)


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
class RankLookup:
    """`rank(raws)` equals `np.searchsorted(breaks, raws * 2.0 ** -64,
    side="right")`: the rank among `breaks` of the uniforms in [0, 1] that
    64-bit random integers encode.

    A guide table over 2^16 equal buckets of [0, 1], indexed by a raw
    value's top 16 bits, holds the rank shared by every u in the closed
    bucket [k/2^16, (k+1)/2^16], or -1 where a breakpoint splits it.  The
    bucket is closed because rounding a raw value to a double can carry it
    onto the upper edge.  Only raws in split buckets are converted and found
    by binary search."""

    breaks: np.ndarray  # sorted
    guide: np.ndarray

    @classmethod
    def build(cls, breaks: np.ndarray) -> RankLookup:
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        lo = np.searchsorted(breaks, edges[:-1], side="right")
        hi = np.searchsorted(breaks, edges[1:], side="right")
        guide = np.where(lo == hi, lo, -1).astype(np.int32)
        return cls(breaks=breaks, guide=guide)

    def rank(self, raws: np.ndarray) -> np.ndarray:
        # bucket numbers are below 2^16: viewing them as int64 (numpy's index
        # type) is exact and skips the checked cast a uint64 index costs
        rank = self.guide[(raws >> _GUIDE_SHIFT).view(np.int64)]
        miss = np.flatnonzero(rank < 0)
        if miss.size:
            rank[miss] = np.searchsorted(self.breaks, raws[miss] * 2.0 ** -64,
                                         side="right")
        return rank


@dataclass(frozen=True)
class BasisTables:
    """Exact per-branch click-pattern distributions for one basis setting,
    with the lookup tables that sample them."""

    basis: tuple[str, str]
    detector_ids: tuple[str, ...]
    branch_weights: np.ndarray           # over source branches (last = remainder)
    pattern_probs: tuple[np.ndarray, ...]
    is_trigger: np.ndarray               # per pattern
    outcome_index: np.ndarray            # per pattern, -1 if not a six-fold
    outcome_labels: tuple[tuple[str, str], ...]
    branch_rank: RankLookup              # breaks: CDF over branches
    pattern_rank: RankLookup             # breaks: all branches' pattern CDFs
    # joint (branch, pattern) index by (branch rank, pattern rank)
    joint_lut: np.ndarray
    fock_terms: int                      # post-circuit terms, all branches

    def _per_pulse(self, patterns: np.ndarray) -> float:
        return sum(w * float(probs[patterns].sum())
                   for w, probs in zip(self.branch_weights, self.pattern_probs))

    def sixfold_probability_per_pulse(self) -> float:
        return self._per_pulse(self.outcome_index >= 0)

    def trigger_probability_per_pulse(self) -> float:
        return self._per_pulse(self.is_trigger)


def _joint_lut(pattern_cdfs: list[np.ndarray], breaks: np.ndarray
               ) -> np.ndarray:
    """Table [branch rank, pattern rank] -> branch * n_pat + pattern, where
    pattern = min(searchsorted(cdf_branch, u, "right"), n_pat - 1) for any u
    of that pattern rank.  Branch rank n_b (u past the last branch CDF value)
    maps to the last branch."""
    n_b, n_pat = len(pattern_cdfs), len(pattern_cdfs[0])
    # rank r >= 1 means breaks[r-1] <= u < breaks[r] and no CDF value lies
    # strictly between, so a branch counts as many CDF values <= u as <=
    # breaks[r-1]; rank 0 (u below every break) counts none
    below = np.array([np.searchsorted(cdf, breaks, side="right")
                      for cdf in pattern_cdfs])
    pattern = np.minimum(np.pad(below, ((0, 0), (1, 0))), n_pat - 1)
    rows = np.minimum(np.arange(n_b + 1), n_b - 1)
    return (rows[:, None] * n_pat + pattern[rows]).astype(np.int32)


def precompute_outcome_tables(config: ExperimentConfig) -> list[BasisTables]:
    """Exact categorical click-pattern tables per (basis, source branch)."""
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
        weights = []
        vectors = []
        fock_terms = 0
        for w, state in source:
            out = substitute_modes(state, to_detectors)
            fock_terms += len(out)
            weights.append(w)
            vectors.append(click_pattern_probabilities(out, detectors))
        remainder = max(1.0 - sum(weights), 0.0)
        if remainder > 0.0:
            # truncated tail: treated as dark-count-only pulses
            weights.append(remainder)
            vectors.append(click_pattern_probabilities(make_vacuum(), detectors))
        branch_weights = np.array(weights)
        branch_cdf = np.cumsum(branch_weights)
        branch_cdf[-1] = max(branch_cdf[-1], 1.0)
        pattern_cdfs = [np.cumsum(v / v.sum()) for v in vectors]
        pattern_breaks = np.unique(np.concatenate(pattern_cdfs))
        tables.append(BasisTables(
            basis=basis, detector_ids=tuple(d.id for d in detectors),
            branch_weights=branch_weights,
            pattern_probs=tuple(np.asarray(v) for v in vectors),
            is_trigger=is_trigger, outcome_index=outcome_index,
            outcome_labels=outcome_labels,
            branch_rank=RankLookup.build(branch_cdf),
            pattern_rank=RankLookup.build(pattern_breaks),
            joint_lut=_joint_lut(pattern_cdfs, pattern_breaks),
            fock_terms=fock_terms))
    return tables


def _sample_shard(tables: BasisTables, key: tuple[int, int],
                  start: int, count: int) -> np.ndarray:
    """Exact per-pulse sampling of pulses [start, start+count); returns the
    joint (branch, click pattern) histogram, flattened branch-major.  Pulse
    i always uses Philox counter block i."""
    raws = Philox(key=key, counter=start).random_raw(_RAWS_PER_PULSE * count)
    raws = raws.reshape(count, _RAWS_PER_PULSE)
    lut = tables.joint_lut
    joint = lut.ravel()[tables.branch_rank.rank(raws[:, 0]) * lut.shape[1]
                        + tables.pattern_rank.rank(raws[:, 1])]
    return np.bincount(joint, minlength=len(tables.branch_weights)
                       * len(tables.is_trigger))


def _sample_pulses(tables: list[BasisTables], config: ExperimentConfig,
                   shard_size: int, threads: int) -> list[np.ndarray]:
    """Per-basis click-pattern histograms of the per-pulse sampler, with
    every shard of every basis run on one pool of at most `threads`
    workers."""
    pulses = config.pulses
    jobs = ((bi, start) for bi in range(len(tables))
            for start in range(0, pulses, shard_size))
    workers = min(threads, len(tables) * -(-pulses // shard_size))

    def shard(bi: int, start: int) -> np.ndarray:
        return _sample_shard(tables[bi], (config.seed, bi), start,
                             min(shard_size, pulses - start))

    joint = [np.zeros(len(t.branch_weights) * len(t.is_trigger), dtype=np.int64)
             for t in tables]
    # integer addition: the merge order cannot change the counts.  Shards are
    # submitted as results are merged, so memory stays flat for any count.
    in_flight = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for bi, start in jobs:
            in_flight.append((bi, pool.submit(shard, bi, start)))
            if len(in_flight) > 2 * workers:
                done_bi, future = in_flight.popleft()
                joint[done_bi] += future.result()
        for done_bi, future in in_flight:
            joint[done_bi] += future.result()
    return [j.reshape(-1, len(t.is_trigger)).sum(axis=0)
            for j, t in zip(joint, tables)]


def _sample_aggregate(tables: BasisTables, key: tuple[int, int],
                      pulses: int) -> np.ndarray:
    """Statistically equivalent sampling for very large pulse counts:
    multinomial over branches, then over patterns.  Deterministic for a
    fixed seed but not shard-invariant."""
    rng = Generator(Philox(key=key))
    # the branch CDF's last value is the total weight, raised to 1.0 if short
    probs = tables.branch_weights / tables.branch_rank.breaks[-1]
    per_branch = rng.multinomial(pulses, probs)
    n_pat = len(tables.is_trigger)
    hist = np.zeros(n_pat, dtype=np.int64)
    for b, n_b in enumerate(per_branch):
        if n_b == 0:
            continue
        p = tables.pattern_probs[b]
        hist += rng.multinomial(int(n_b), p / p.sum())
    return hist


def _record_from_hist(tables: BasisTables, hist: np.ndarray,
                      pulses: int) -> CountRecord:
    outcomes = {label: int(hist[tables.outcome_index == k].sum())
                for k, label in enumerate(tables.outcome_labels)}
    return CountRecord(basis=tables.basis, pulses=pulses,
                       n_t=int(hist[tables.is_trigger].sum()),
                       n_s=sum(outcomes.values()), outcomes=outcomes)


def run_experiment(config: ExperimentConfig,
                   tables: list[BasisTables] | None = None,
                   shard_size: int = 1 << 16,
                   aggregate: bool = False,
                   threads: int = 1) -> McResult:
    """Run the pulse loop for every basis setting and derive estimates.

    Per-pulse counts are identical for every `shard_size` and `threads`."""
    if threads < 1:
        raise ConfigError(f"threads={threads} must be >= 1")
    if tables is None:
        tables = precompute_outcome_tables(config)
    if aggregate:
        hists = [_sample_aggregate(t, (config.seed, bi), config.pulses)
                 for bi, t in enumerate(tables)]
    else:
        hists = _sample_pulses(tables, config, shard_size, threads)
    records = [_record_from_hist(t, h, config.pulses)
               for t, h in zip(tables, hists)]

    efficiency = None
    n_t = sum(r.n_t for r in records)
    n_s = sum(r.n_s for r in records)
    if n_t > 0:
        efficiency = eff_exp(n_s, n_t, config.mean_output_eta())
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
