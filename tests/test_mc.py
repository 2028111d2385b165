"""Monte Carlo sampling: determinism, shard merging, oracle agreement."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from numpy.random import Philox

from heraldsim import mc
from heraldsim.fock import ConfigError, MixedState
from heraldsim.dsl import parse
from heraldsim.elements import CircuitSpec, apply_circuit, measurement_rotation
from heraldsim.source import dephased_source
from heraldsim.detect import (click_pattern_probabilities, click_probability,
                              fidelity_to_phi_plus, herald,
                              sixfold_probability)
from heraldsim.mc import (
    RankLookup,
    estimate_fidelity,
    precompute_outcome_tables,
    run_experiment,
)

from conftest import BOOSTED_CONFIG
from dilation_oracle import key_occupation

# Click-pattern histograms {pattern: count} of paper_5050.exp at its seed
# (42), 200000 pulses per basis, recorded from the branch-by-branch
# searchsorted sampler that the table lookup replaced.  At the published
# brightness no pulse heralds, so the six-fold records are all zero and
# these histograms are what pins the random stream.
PAPER_5050_PATTERNS = {
    ("HV", "HV"): {
        0: 197279, 1: 346, 2: 344, 4: 342, 5: 22, 6: 20, 8: 362, 9: 15,
        10: 27, 12: 1, 16: 273, 17: 2, 18: 1, 20: 12, 24: 13, 32: 256, 33: 2,
        34: 1, 36: 18, 38: 1, 40: 16, 48: 1, 64: 273, 65: 2, 66: 32, 68: 1,
        72: 2, 80: 1, 96: 17, 104: 1, 128: 263, 129: 28, 144: 25, 224: 1},
    ("DA", "DA"): {
        0: 197287, 1: 385, 2: 394, 4: 338, 5: 22, 6: 20, 8: 342, 9: 25,
        10: 25, 12: 3, 16: 254, 18: 1, 20: 27, 24: 2, 32: 251, 33: 1, 36: 1,
        40: 27, 44: 1, 45: 1, 64: 253, 65: 14, 66: 11, 72: 1, 80: 1, 96: 13,
        128: 240, 129: 21, 130: 12, 132: 1, 137: 1, 144: 25},
    ("RL", "RL"): {
        0: 197332, 1: 357, 2: 356, 4: 369, 5: 16, 6: 14, 8: 379, 9: 16,
        10: 14, 12: 1, 16: 244, 18: 1, 20: 14, 24: 12, 32: 234, 33: 2, 36: 14,
        40: 16, 42: 1, 64: 251, 65: 13, 66: 12, 72: 1, 80: 5, 96: 20,
        128: 256, 129: 21, 130: 10, 136: 2, 144: 16, 160: 1},
}

# (n_t, n_s, outcomes) of the boosted config at its seed (7), 300000 pulses
# per basis, recorded from the same sampler.
BOOSTED_300K_RECORDS = {
    ("HV", "HV"): (99, 44, {"HH": 22, "HV": 0, "VH": 0, "VV": 22}),
    ("DA", "DA"): (95, 46, {"++": 25, "+-": 0, "-+": 0, "--": 21}),
    ("RL", "RL"): (110, 45, {"RR": 0, "RL": 21, "LR": 24, "LL": 0}),
}


def mask_loop_shard(tables, key, start, count):
    """Reference sampler: per-branch boolean masks and a binary search in
    each branch's own pattern CDF.  Returns the joint (branch, pattern)
    histogram, flattened branch-major."""
    branch_cdf = np.cumsum(tables.branch_weights)
    branch_cdf[-1] = max(branch_cdf[-1], 1.0)
    pattern_cdfs = [np.cumsum(v / v.sum()) for v in tables.pattern_probs]
    raws = Philox(key=key, counter=start).random_raw(4 * count)
    raws = raws.reshape(count, 4)
    u = raws[:, :2] * 2.0 ** -64
    branch = np.searchsorted(branch_cdf, u[:, 0], side="right")
    branch = np.minimum(branch, len(pattern_cdfs) - 1)
    n_pat = len(tables.is_trigger)
    hist = np.zeros((len(pattern_cdfs), n_pat), dtype=np.int64)
    for b in range(len(pattern_cdfs)):
        mask = branch == b
        if not mask.any():
            continue
        idx = np.searchsorted(pattern_cdfs[b], u[mask, 1], side="right")
        hist[b] = np.bincount(np.minimum(idx, n_pat - 1), minlength=n_pat)
    return hist.ravel()


def loop_pattern_vector(state, detectors):
    """Reference: click-pattern probabilities by a loop over occupation
    patterns, one Kronecker step per detector."""
    k = len(detectors)
    modes = [d.mode for d in detectors]
    occ_probs = {}
    for key, amp in state.terms.items():
        occ = tuple(key_occupation(key, m) for m in modes)
        occ_probs[occ] = occ_probs.get(occ, 0.0) + abs(amp) ** 2
    out = np.zeros(1 << k)
    for occ, p_occ in occ_probs.items():
        click_p = np.array([click_probability(d, n)
                            for d, n in zip(detectors, occ)])
        acc = np.array([p_occ])
        for i in range(k):
            acc = np.concatenate([acc * (1.0 - click_p[i]), acc * click_p[i]])
        out += acc
    return out


@pytest.fixture(scope="module")
def boosted():
    return parse(BOOSTED_CONFIG)


@pytest.fixture(scope="module")
def boosted_tables(boosted):
    return precompute_outcome_tables(boosted)


@pytest.fixture(scope="module")
def paper_5050_tables(paper_5050):
    return precompute_outcome_tables(paper_5050)


@pytest.fixture(scope="module")
def boosted_result(boosted, boosted_tables):
    return run_experiment(boosted, tables=boosted_tables)


def test_tables_normalized(boosted_tables):
    for tab in boosted_tables:
        for probs in tab.pattern_probs:
            assert probs.sum() <= 1.0 + 1e-9
        total = sum(w * p.sum() for w, p in zip(tab.branch_weights,
                                                tab.pattern_probs))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_tables_match_exact_herald_probability(boosted, boosted_tables):
    # the sampled trigger probability must equal the enumeration route
    mix = dephased_source(boosted.source, boosted.noise)
    circuit = boosted.circuit()
    total = 0.0
    for w, st in mix.branches:
        res = herald(apply_circuit(st, circuit), boosted.trigger_detectors())
        total += w * res.herald_probability
    for tab in boosted_tables:
        assert tab.trigger_probability_per_pulse() == pytest.approx(
            total, rel=1e-10)


def test_runs_are_deterministic(boosted, boosted_tables):
    a = run_experiment(boosted, tables=boosted_tables)
    b = run_experiment(boosted, tables=boosted_tables)
    assert a.records == b.records
    assert a.fidelity == b.fidelity


def test_shard_merge_invariance(boosted, boosted_tables):
    a = run_experiment(boosted, tables=boosted_tables, shard_size=123457)
    b = run_experiment(boosted, tables=boosted_tables, shard_size=1 << 20)
    c = run_experiment(boosted, tables=boosted_tables, shard_size=99991,
                       threads=2)
    assert a.records == b.records == c.records


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_thread_count_invariance(boosted, boosted_tables, boosted_result,
                                 threads):
    # frequent thread switches, so a lost update in the merge would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        other = run_experiment(boosted, tables=boosted_tables,
                               threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert other.records == boosted_result.records


def test_boosted_golden_records(boosted, boosted_tables):
    cfg = dataclasses.replace(boosted, pulses=300_000)
    for threads in (1, 2):
        result = run_experiment(cfg, tables=boosted_tables, threads=threads)
        got = {r.basis: (r.n_t, r.n_s,
                         {a + b: c for (a, b), c in r.outcomes.items()})
               for r in result.records}
        assert got == BOOSTED_300K_RECORDS


def test_paper_5050_golden_patterns(paper_5050, paper_5050_tables):
    cfg = dataclasses.replace(paper_5050, pulses=200_000)
    tables = paper_5050_tables
    for threads in (1, 2):
        hists = mc._sample_pulses(tables, cfg, 1 << 16, threads)
        for tab, hist in zip(tables, hists):
            got = {int(p): int(c) for p, c in enumerate(hist) if c}
            assert got == PAPER_5050_PATTERNS[tab.basis], tab.basis
    result = run_experiment(cfg, tables=tables, threads=2)
    assert [(r.n_t, r.n_s) for r in result.records] == [(0, 0)] * 3


@pytest.mark.parametrize("start,count", [(0, 1), (12345, 300_000)])
def test_lookup_shard_matches_mask_loop(boosted, boosted_tables, paper_5050,
                                        paper_5050_tables, start, count):
    for cfg, tables in ((boosted, boosted_tables),
                        (paper_5050, paper_5050_tables)):
        for bi, tab in enumerate(tables):
            key = (cfg.seed, bi)
            np.testing.assert_array_equal(
                mc._sample_shard(tab, key, start, count),
                mask_loop_shard(tab, key, start, count))


def _raws_near(values):
    """Raw 64-bit values whose uniforms land on and next to `values`."""
    out = set()
    for v in values:
        for w in (v, np.nextafter(v, -1.0), np.nextafter(v, 2.0)):
            if 0.0 <= w < 1.0:
                r = int(w * 2.0 ** 64)
                out.update(r + d for d in (-2049, -1025, -1024, -1, 0, 1,
                                           1023, 1024, 2048))
    top = 2 ** 64 - 1
    out.update(top - d for d in (0, 1, 1023, 1024, 1025, 2047, 2048))
    for k in (1, 2, 31, 32, 33, 4096, 32768, 65534, 65535):
        edge = k << 48
        out.update(edge + d for d in (-1025, -1024, -1023, -1, 0, 1))
    return np.array(sorted(r for r in out if 0 <= r <= top), dtype=np.uint64)


def test_rank_lookup_matches_searchsorted(boosted_tables):
    tab = boosted_tables[1]
    edges = np.array([k / 2 ** 16 for k in (0, 1, 2, 33, 4096, 65535)])
    cases = [
        tab.pattern_rank.breaks,
        tab.branch_rank.breaks,
        # breakpoints exactly on bucket edges, at 0 and 1, and just past 1
        np.concatenate([edges, [0.5, 1.0, np.nextafter(1.0, 2.0)]]),
        np.array([1.0]),
        np.array([np.nextafter(1.0, 0.0)]),
    ]
    rng = np.random.default_rng(3)
    for breaks in cases:
        breaks = np.unique(breaks)
        lookup = RankLookup.build(breaks)
        raws = np.concatenate([
            _raws_near(np.concatenate([breaks, edges, [1.0]])),
            rng.integers(0, 2 ** 64 - 1, size=20000, dtype=np.uint64,
                         endpoint=True)])
        expect = np.searchsorted(breaks, raws * 2.0 ** -64, side="right")
        np.testing.assert_array_equal(lookup.rank(raws), expect)
        # a strided column, as the sampler passes it
        pairs = np.stack([raws, raws[::-1]], axis=1)
        np.testing.assert_array_equal(lookup.rank(pairs[:, 1]), expect[::-1])


def test_joint_lut_matches_branch_searchsorted(boosted_tables,
                                               paper_5050_tables):
    for tab in boosted_tables + paper_5050_tables:
        breaks = tab.pattern_rank.breaks
        n_b, n_pat = len(tab.branch_weights), len(tab.is_trigger)
        # every pattern rank, and the uniforms at the top of [0, 1]
        u = np.concatenate([[0.0], breaks, [np.nextafter(1.0, 0.0), 1.0]])
        u = u[u <= 1.0]
        rank = np.searchsorted(breaks, u, side="right")
        for row in range(n_b + 1):
            b = min(row, n_b - 1)
            cdf = np.cumsum(tab.pattern_probs[b] / tab.pattern_probs[b].sum())
            pattern = np.minimum(np.searchsorted(cdf, u, side="right"),
                                 n_pat - 1)
            np.testing.assert_array_equal(tab.joint_lut[row, rank],
                                          b * n_pat + pattern)


def test_thread_pool_never_exceeds_shard_count(boosted, boosted_tables,
                                               monkeypatch):
    sizes = []
    real = mc.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", recording)
    cfg = dataclasses.replace(boosted, pulses=1000)
    result = run_experiment(cfg, tables=boosted_tables, threads=64)
    assert sizes == [len(boosted_tables)]  # one shard per basis
    assert result.records == run_experiment(cfg, tables=boosted_tables).records


def test_threads_must_be_positive(boosted, boosted_tables):
    with pytest.raises(ConfigError, match="threads"):
        run_experiment(boosted, tables=boosted_tables, threads=0)


def test_seed_changes_counts(boosted, boosted_tables):
    reseeded = dataclasses.replace(boosted, seed=boosted.seed + 1)
    a = run_experiment(boosted, tables=boosted_tables)
    b = run_experiment(reseeded, tables=boosted_tables)
    assert a.records != b.records


def test_aggregate_mode_is_deterministic(boosted, boosted_tables):
    a = run_experiment(boosted, tables=boosted_tables, aggregate=True)
    b = run_experiment(boosted, tables=boosted_tables, aggregate=True)
    assert a.records == b.records
    # statistics agree with per-pulse sampling at the 4-sigma level
    per_pulse = run_experiment(boosted, tables=boosted_tables)
    for ra, rp in zip(a.records, per_pulse.records):
        sig = math.sqrt(max(rp.n_t, 1.0))
        assert abs(ra.n_t - rp.n_t) < 5.0 * sig


def test_trigger_rate_matches_tables(boosted, boosted_tables, boosted_result):
    p_trig = boosted_tables[0].trigger_probability_per_pulse()
    for rec in boosted_result.records:
        expect = p_trig * rec.pulses
        assert abs(rec.n_t - expect) < 4.0 * math.sqrt(expect)


def test_ideal_visibility_gives_unit_fidelity(boosted_result):
    est = boosted_result.fidelity
    assert est.value == pytest.approx(1.0, abs=max(3.0 * est.sigma, 1e-9))
    # every pulse that heralds with ideal detectors carries a perfect pair,
    # so the anticorrelated outcomes never appear
    for rec in boosted_result.records:
        labels = sorted(rec.outcomes)
        forbidden = {("HV", "HV"): [("H", "V"), ("V", "H")],
                     ("DA", "DA"): [("+", "-"), ("-", "+")],
                     ("RL", "RL"): [("R", "R"), ("L", "L")]}[rec.basis]
        for lab in forbidden:
            assert rec.outcomes[lab] == 0


def test_dephased_fidelity_matches_enumeration():
    cfg = parse(BOOSTED_CONFIG.replace("visibility=1.0", "visibility=0.91"))
    result = run_experiment(cfg)
    mix = dephased_source(cfg.source, cfg.noise)
    circuit = cfg.circuit()
    rho = np.zeros((4, 4), dtype=complex)
    for w, st in mix.branches:
        if st.max_photons() < 6:
            continue
        res = herald(apply_circuit(st, circuit), cfg.trigger_detectors())
        rho += w * res.herald_probability * res.conditional_dm
    rho /= np.trace(rho).real
    exact = fidelity_to_phi_plus(rho)
    est = result.fidelity
    assert est.sigma > 0.0
    assert abs(est.value - exact) < 3.0 * est.sigma


def test_efficiency_estimate_matches_formula(boosted_result):
    n_t = sum(r.n_t for r in boosted_result.records)
    n_s = sum(r.n_s for r in boosted_result.records)
    assert boosted_result.efficiency.value == pytest.approx(
        n_s / n_t, rel=1e-12)


def test_estimate_fidelity_requires_all_bases(boosted_result):
    with pytest.raises(ConfigError):
        estimate_fidelity(boosted_result.records[:1])


def test_tables_reject_arm_without_two_detectors(boosted):
    cfg = dataclasses.replace(
        boosted, detectors=tuple(d for d in boosted.detectors if d.id != "s4"))
    with pytest.raises(ConfigError, match=r"arm 'd'.*\['s3'\]"):
        precompute_outcome_tables(cfg)


def test_tables_reject_number_resolving(boosted):
    det = dataclasses.replace(boosted.detectors[0], kind="pnr")
    cfg = dataclasses.replace(
        boosted, detectors=(det,) + tuple(boosted.detectors[1:]))
    with pytest.raises(ConfigError):
        precompute_outcome_tables(cfg)


@pytest.mark.parametrize("eta, dark", [(None, None), (0.7, 0.02)])
@pytest.mark.parametrize("basis", ["HV", "DA", "RL"])
def test_pattern_vector_matches_loop(paper_5050, basis, eta, dark):
    # threshold detectors with dark counts: the fixture's own (eta 0.167 and
    # 0.129, d 3.6e-6) and a bright lossy set
    detectors = paper_5050.trigger_detectors() + paper_5050.output_detectors()
    if eta is not None:
        detectors = [dataclasses.replace(d, coupling=eta, dark_rate=dark / 1e-8,
                                         window=1e-8)
                     for d in detectors]
    to_detectors = CircuitSpec(paper_5050.circuit().transforms + tuple(
        measurement_rotation(arm, basis) for arm in ("c", "d")))
    for _, st in dephased_source(paper_5050.source, paper_5050.noise).branches:
        out = apply_circuit(st, to_detectors)
        # only the summation order differs: a few hundred terms <= 1 each
        np.testing.assert_allclose(click_pattern_probabilities(out, detectors),
                                   loop_pattern_vector(out, detectors),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["boosted", "paper_5050"])
def test_tables_and_sixfold_probability_agree(name, boosted, boosted_tables,
                                              paper_5050, paper_5050_tables):
    # two routes to the six-fold rates of the source mixture: the tables'
    # per-branch click patterns weighted by the branch weights, and
    # sixfold_probability of the whole mixture after the config's circuit
    cfg, tables = {"boosted": (boosted, boosted_tables),
                   "paper_5050": (paper_5050, paper_5050_tables)}[name]
    source = dephased_source(cfg.source, cfg.noise).branches
    circuit = cfg.circuit()
    mixture = MixedState(tuple((w, apply_circuit(st, circuit))
                               for w, st in source))
    for tab in tables:
        patterns = [np.flatnonzero(tab.outcome_index == k) for k in range(4)]
        assert all(len(p) == 1 for p in patterns)
        from_tables = [sum(w * probs[p[0]] for w, probs in zip(
            tab.branch_weights[:len(source)], tab.pattern_probs))
            for p in patterns]
        direct = [sixfold_probability(
            mixture, cfg.trigger_detectors(), cfg.output_detectors(),
            tab.basis, divmod(k, 2)) for k in range(4)]
        np.testing.assert_allclose(direct, from_tables, rtol=1e-12, atol=0.0)
