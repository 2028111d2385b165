"""Monte Carlo sampling: determinism, statistical and exact oracles."""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats

from heraldsim import cli, fixture_path, mc
from heraldsim.analysis import correlation_from_counts
from heraldsim.fock import ConfigError, MixedState
from heraldsim.dsl import parse, table_terms
from heraldsim.elements import (MEASUREMENT_BASES, apply_circuit, compose,
                                measurement_rotation)
from heraldsim.source import SOURCE_MODES, dephased_source, n_pair_state
from heraldsim.detect import (click_probability, herald, occupations,
                              sixfold_probability)
from heraldsim.mc import (
    click_pattern_probabilities,
    estimate_fidelity,
    occupation_probabilities,
    precompute_outcome_tables,
    run_experiment,
)

import dilation_oracle
import fock_oracle
from conftest import (BOOSTED_CONFIG, LOSSY_PNR_BOOSTED, OUTPUT_ARMS,
                      PNR_BOOSTED, RELABELLED_5050, ROTATED_ARM_5050,
                      fixture_text)
from dilation_oracle import fidelity_to_phi_plus, key_occupation
from fock_oracle import make_vacuum

# Click-pattern histograms {pattern: count} of paper_5050.exp at its seed
# (42), 200000 pulses per basis, recorded from the one-multinomial-per-basis
# draw (numpy 2.4.6) after the statistical oracles below passed.  At the
# published brightness no pulse heralds, so the six-fold records are all
# zero and these histograms are what pins the random stream.
PAPER_5050_PATTERNS = {
    ("HV", "HV"): {
        0: 197266, 1: 377, 2: 361, 4: 331, 5: 22, 6: 18, 8: 347, 9: 22,
        10: 18, 11: 1, 12: 2, 16: 240, 17: 1, 18: 1, 20: 14, 24: 11, 32: 283,
        33: 1, 34: 2, 36: 12, 40: 15, 64: 280, 65: 1, 66: 24, 67: 1, 72: 2,
        96: 10, 98: 1, 112: 1, 128: 280, 129: 32, 130: 2, 132: 1, 136: 1,
        144: 18, 152: 1},
    ("DA", "DA"): {
        0: 197261, 1: 373, 2: 348, 3: 2, 4: 367, 5: 19, 6: 17, 8: 346, 9: 22,
        10: 22, 16: 267, 17: 2, 18: 2, 19: 1, 20: 21, 24: 2, 32: 272, 34: 1,
        36: 3, 40: 23, 42: 1, 64: 277, 65: 16, 66: 11, 80: 1, 96: 20,
        128: 259, 129: 16, 130: 9, 132: 3, 136: 1, 144: 14, 148: 1},
    ("RL", "RL"): {
        0: 197267, 1: 359, 2: 350, 3: 3, 4: 356, 5: 21, 6: 24, 8: 358, 9: 23,
        10: 18, 12: 1, 16: 251, 20: 15, 24: 9, 32: 280, 33: 1, 36: 16, 40: 9,
        44: 1, 64: 255, 65: 11, 66: 19, 74: 1, 80: 1, 96: 20, 128: 273,
        129: 16, 130: 13, 132: 1, 138: 1, 144: 25, 145: 1, 160: 1},
}

# (n_t, n_s, outcomes) of the boosted config at its seed (7), 300000 pulses
# per basis, recorded from the same draw.
BOOSTED_300K_RECORDS = {
    ("HV", "HV"): (88, 44, {"HH": 27, "HV": 0, "VH": 0, "VV": 17}),
    ("DA", "DA"): (105, 48, {"++": 22, "+-": 0, "-+": 0, "--": 26}),
    ("RL", "RL"): (90, 34, {"RR": 0, "RL": 15, "LR": 19, "LL": 0}),
}


def mask_loop_shard(branch_weights, branch_vectors, key, start, count):
    """Per-pulse reference sampler: pulse i takes Philox counter block i,
    picks a source branch by inverse CDF on its first uniform and a click
    pattern by a binary search in that branch's own pattern CDF on its
    second.  Returns the click-pattern histogram."""
    branch_cdf = np.cumsum(branch_weights)
    branch_cdf[-1] = max(branch_cdf[-1], 1.0)
    pattern_cdfs = [np.cumsum(v / v.sum()) for v in branch_vectors]
    raws = Philox(key=key, counter=start).random_raw(4 * count)
    raws = raws.reshape(count, 4)
    u = raws[:, :2] * 2.0 ** -64
    branch = np.searchsorted(branch_cdf, u[:, 0], side="right")
    branch = np.minimum(branch, len(pattern_cdfs) - 1)
    n_pat = len(branch_vectors[0])
    hist = np.zeros(n_pat, dtype=np.int64)
    for b in range(len(pattern_cdfs)):
        mask = branch == b
        if not mask.any():
            continue
        idx = np.searchsorted(pattern_cdfs[b], u[mask, 1], side="right")
        hist += np.bincount(np.minimum(idx, n_pat - 1), minlength=n_pat)
    return hist


def branch_vectors(cfg, basis):
    """Per source branch of `cfg`, in `basis`: its weight and its own
    click-pattern vector, the truncated tail as a vacuum branch.  Built
    branch by branch with `apply_circuit`, not through the tables."""
    detectors = cfg.trigger_detectors() + cfg.output_detectors()
    to_detectors = compose((cfg.circuit(), *(
        measurement_rotation(arm, b)
        for arm, b in zip(cfg.output_arms(), basis))), SOURCE_MODES)
    source = dephased_source(cfg.source, cfg.noise).branches
    weights = [w for w, _ in source]
    vectors = [click_pattern_probabilities(apply_circuit(st, to_detectors),
                                           detectors) for _, st in source]
    if 1.0 - sum(weights) > 0.0:
        weights.append(1.0 - sum(weights))
        vectors.append(click_pattern_probabilities(make_vacuum(), detectors))
    return np.array(weights), vectors


def pool_bins(expected, *counts, minimum=20.0):
    """Merge bins, in order of rising expectation, until every merged bin
    expects at least `minimum`; a short remainder joins the last group."""
    groups, group, total = [], [], 0.0
    for i in np.argsort(expected, kind="stable"):
        group.append(i)
        total += expected[i]
        if total >= minimum:
            groups.append(group)
            group, total = [], 0.0
    if group:
        groups[-1].extend(group)
    return [np.array([v[g].sum() for g in groups])
            for v in (expected,) + counts]


def binomial_tail(observed, pulses, p):
    """The smaller one-sided binomial tail probability of `observed`."""
    return min(stats.binom.cdf(observed, pulses, p),
               stats.binom.sf(observed - 1, pulses, p))


# one-sided tail of a 5 sigma normal deviate
FIVE_SIGMA_TAIL = stats.norm.sf(5.0)
CHI2_ALPHA = 1e-3


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
        assert tab.branch_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert tab.pattern_probs.min() >= 0.0
        assert tab.pattern_probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_tables_match_exact_herald_probability(boosted, boosted_tables):
    # the sampled trigger probability must equal the enumeration route
    mix = dephased_source(boosted.source, boosted.noise)
    circuit = boosted.circuit()
    total = 0.0
    for w, st in mix.branches:
        res = herald(apply_circuit(st, circuit), boosted.trigger_detectors(),
                     OUTPUT_ARMS)
        total += w * res.herald_probability
    for tab in boosted_tables:
        assert tab.trigger_probability_per_pulse() == pytest.approx(
            total, rel=1e-10)


def test_runs_are_deterministic(boosted, boosted_tables):
    a = run_experiment(boosted, tables=boosted_tables)
    b = run_experiment(boosted, tables=boosted_tables)
    assert a.records == b.records
    assert a.fidelity == b.fidelity


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_thread_count_invariance(boosted_result, tmp_path, threads):
    # --threads is accepted and has no effect: the command line writes the
    # library's counts, one multinomial draw per basis
    path = tmp_path / "boosted.exp"
    path.write_text(BOOSTED_CONFIG, encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["montecarlo", str(path), "--threads", str(threads),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [(tuple(r["basis"]), r["n_t"], r["n_s"], r["outcomes"])
            for r in summary["records"]] == [
        (r.basis, r.n_t, r.n_s, r.outcomes)
        for r in boosted_result.records]


def test_boosted_golden_records(boosted, boosted_tables):
    cfg = dataclasses.replace(boosted, pulses=300_000)
    result = run_experiment(cfg, tables=boosted_tables)
    got = {r.basis: (r.n_t, r.n_s, r.outcomes) for r in result.records}
    assert got == BOOSTED_300K_RECORDS


def test_paper_5050_golden_patterns(paper_5050, paper_5050_tables):
    cfg = dataclasses.replace(paper_5050, pulses=200_000)
    for bi, tab in enumerate(paper_5050_tables):
        hist = mc.sample_histogram(tab, (cfg.seed, bi), cfg.pulses)
        got = {int(p): int(c) for p, c in enumerate(hist) if c}
        assert got == PAPER_5050_PATTERNS[tab.basis], tab.basis
    result = run_experiment(cfg, tables=paper_5050_tables)
    assert [(r.n_t, r.n_s) for r in result.records] == [(0, 0)] * 3


@pytest.mark.parametrize("name", ["boosted", "paper_5050"])
def test_pattern_distribution_is_branch_mixture(name, boosted, boosted_tables,
                                                paper_5050, paper_5050_tables):
    # q = sum_b w_b p_b with every p_b built on its own
    cfg, tables = {"boosted": (boosted, boosted_tables),
                   "paper_5050": (paper_5050, paper_5050_tables)}[name]
    for tab in tables:
        weights, vectors = branch_vectors(cfg, tab.basis)
        np.testing.assert_allclose(tab.branch_weights, weights,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            tab.pattern_probs, sum(w * v for w, v in zip(weights, vectors)),
            rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["boosted", "paper_5050"])
def test_counts_within_binomial_tails(name, boosted, boosted_tables,
                                      paper_5050, paper_5050_tables):
    # each config at its own seed and pulse count
    cfg, tables = {"boosted": (boosted, boosted_tables),
                   "paper_5050": (paper_5050, paper_5050_tables)}[name]
    result = run_experiment(cfg, tables=tables)
    for tab, rec in zip(tables, result.records):
        observed = {"n_t": rec.n_t, "n_s": rec.n_s, **rec.outcomes}
        probs = mc.pattern_sums(tab, tab.pattern_probs)
        assert set(probs) == set(observed)
        for name, p in probs.items():
            assert binomial_tail(observed[name], rec.pulses, p) > (
                FIVE_SIGMA_TAIL), (tab.basis, name, rec.pulses * p)


@pytest.mark.parametrize("name", ["boosted", "paper_5050"])
def test_pattern_histogram_chi_square(name, boosted, boosted_tables,
                                      paper_5050, paper_5050_tables):
    cfg, tables = {"boosted": (boosted, boosted_tables),
                   "paper_5050": (paper_5050, paper_5050_tables)}[name]
    for bi, tab in enumerate(tables):
        hist = mc.sample_histogram(tab, (cfg.seed, bi), cfg.pulses)
        q = tab.pattern_probs / tab.pattern_probs.sum()
        expected, observed = pool_bins(cfg.pulses * q, hist)
        assert len(expected) >= 5
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p_value = stats.chi2.sf(chi2, len(expected) - 1)
        assert p_value > CHI2_ALPHA, (tab.basis, chi2, len(expected) - 1)


@pytest.mark.parametrize("name", ["boosted", "paper_5050"])
def test_multinomial_matches_per_pulse_reference(name, boosted,
                                                 boosted_tables, paper_5050,
                                                 paper_5050_tables):
    # two samples of one distribution: the multinomial draw and the
    # per-pulse reference fed the per-branch vectors
    cfg, tables = {"boosted": (boosted, boosted_tables),
                   "paper_5050": (paper_5050, paper_5050_tables)}[name]
    pulses = 300_000
    for bi, tab in enumerate(tables):
        weights, vectors = branch_vectors(cfg, tab.basis)
        reference = mask_loop_shard(weights, vectors, (cfg.seed, bi), 0,
                                    pulses)
        drawn = mc.sample_histogram(tab, (cfg.seed, bi), pulses)
        assert reference.sum() == drawn.sum() == pulses
        q = tab.pattern_probs / tab.pattern_probs.sum()
        _, a, b = pool_bins(pulses * q, reference, drawn)
        assert len(a) >= 5
        chi2 = float(((a - b) ** 2 / (a + b)).sum())
        p_value = stats.chi2.sf(chi2, len(a) - 1)
        assert p_value > CHI2_ALPHA, (tab.basis, chi2, len(a) - 1)
        n_t = [h[tab.is_trigger].sum() for h in (reference, drawn)]
        assert abs(n_t[0] - n_t[1]) <= 5.0 * math.sqrt(max(sum(n_t), 1))


def test_seed_changes_counts(boosted, boosted_tables):
    reseeded = dataclasses.replace(boosted, seed=boosted.seed + 1)
    a = run_experiment(boosted, tables=boosted_tables)
    b = run_experiment(reseeded, tables=boosted_tables)
    assert a.records != b.records


def test_aggregate_mode_is_deterministic(boosted, boosted_tables,
                                        boosted_result):
    # `aggregate` is accepted and has no effect
    a = run_experiment(boosted, tables=boosted_tables, aggregate=True)
    b = run_experiment(boosted, tables=boosted_tables, aggregate=True)
    assert a.records == b.records == boosted_result.records


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
        forbidden = {("HV", "HV"): ["HV", "VH"],
                     ("DA", "DA"): ["+-", "-+"],
                     ("RL", "RL"): ["RR", "LL"]}[rec.basis]
        for lab in forbidden:
            assert rec.outcomes[lab] == 0


def test_dephased_fidelity_matches_enumeration():
    cfg = parse(BOOSTED_CONFIG.replace("visibility=1.0", "visibility=0.91"))
    result = run_experiment(cfg)
    mix = dephased_source(cfg.source, cfg.noise)
    circuit = cfg.circuit()
    rho = np.zeros((4, 4), dtype=complex)
    for w, st in mix.branches:
        if fock_oracle.max_photons(st) < 6:
            continue
        res = herald(apply_circuit(st, circuit), cfg.trigger_detectors(),
                     OUTPUT_ARMS)
        rho += w * res.herald_probability * res.conditional_dm
    rho /= np.trace(rho).real
    exact = fidelity_to_phi_plus(rho)
    est = result.fidelity
    assert est.sigma > 0.0
    assert abs(est.value - exact) < 3.0 * est.sigma


def table_estimates(config):
    """The exact expectations of eff_exp and F: the Monte Carlo estimators
    as ratios of `pattern_sums` over the tables' `pattern_probs`, with no
    sampling.  A same-basis record gives its Pauli correlation."""
    tables = precompute_outcome_tables(config)
    sums = [mc.pattern_sums(t, t.pattern_probs) for t in tables]
    eff = (sum(s["n_s"] for s in sums)
           / (sum(s["n_t"] for s in sums) * config.mean_output_eta() ** 2))
    corr = {}
    for t, s in zip(tables, sums):
        first, second = t.basis
        if first == second:
            same = sum(s[k] for k in t.outcome_labels if k[0] == k[1])
            diff = sum(s[k] for k in t.outcome_labels if k[0] != k[1])
            corr[2 * MEASUREMENT_BASES[first].pauli] = (
                (same - diff) / (same + diff))
    return eff, (1.0 + corr["xx"] - corr["yy"] + corr["zz"]) / 4.0


def herald_estimates(config):
    """Preparation efficiency and fidelity to Phi+ of the herald of the
    config's dephased source mixture: what the state is."""
    result = herald(dephased_source(config.source, config.noise,
                                    config.circuit()),
                    config.trigger_detectors(), config.output_arms())
    eff = result.preparation_efficiency
    return eff, fidelity_to_phi_plus(result.conditional_dm / eff)


ORACLE_TEXTS = {name: fixture_text(name) for name in
                ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp")}
ORACLE_TEXTS.update(relabelled=RELABELLED_5050, rotated_arm=ROTATED_ARM_5050)


@pytest.mark.parametrize("name", sorted(ORACLE_TEXTS))
def test_tables_measure_the_heralded_state_without_darks_at_nmax_3(name):
    # at most three pairs, four trigger clicks leave at most one photon per
    # output arm, and with no dark count a six-fold is exactly the herald's
    # one-photon-per-arm part seen by both output detectors: two routes
    # that share only `occupations` give the same numbers
    config = parse(ORACLE_TEXTS[name])
    config = dataclasses.replace(
        config, source=dataclasses.replace(config.source, n_max=3),
        detectors=tuple(dataclasses.replace(d, dark_rate=0.0)
                        for d in config.detectors))
    for got, want in zip(table_estimates(config), herald_estimates(config)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


# (eff_exp, F) expected from the tables and of the herald, at the shipped
# nmax 4 with dark counts: recorded, not bounded.  The four-pair sector
# makes about a third of the six-folds, so the simulated measurement reads
# a higher efficiency and a much lower fidelity than the state holds.
SHIPPED_GAP = {
    "paper_5050.exp": ((0.34385484532687316, 0.7972932902577994),
                       (0.25594162537732135, 0.9095466433527829)),
    "paper_6040.exp": ((0.4653852070226515, 0.798258416587494),
                       (0.3340965168118666, 0.9268979349726627)),
    "paper_7030.exp": ((0.657876558624215, 0.8021325236039747),
                       (0.4564620928670616, 0.9477228351950486)),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_GAP))
def test_tables_and_herald_part_at_the_shipped_nmax(name):
    config = parse(ORACLE_TEXTS[name])
    assert config.source.n_max == 4
    tables, state = SHIPPED_GAP[name]
    for got, want in zip(table_estimates(config) + herald_estimates(config),
                         tables + state):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)


def test_efficiency_estimate_matches_formula(boosted_result):
    n_t = sum(r.n_t for r in boosted_result.records)
    n_s = sum(r.n_s for r in boosted_result.records)
    assert boosted_result.efficiency.value == pytest.approx(
        n_s / n_t, rel=1e-12)


def test_estimate_fidelity_reads_each_correlation_from_its_basis(
        monkeypatch):
    counts = {("HV", "DA"): {"H+": 9, "H-": 1, "V+": 1, "V-": 9},
              ("DA", "DA"): {"++": 7, "+-": 2, "-+": 1, "--": 5},
              ("RL", "RL"): {"RR": 1, "RL": 6, "LR": 3, "LL": 2},
              ("HV", "HV"): {"HH": 8, "HV": 1, "VH": 1, "VV": 3}}
    records = [mc.CountRecord(basis, 100, 20, sum(c.values()), c)
               for basis, c in counts.items()]
    # the correlations handed to the fidelity formula, by Pauli component
    monkeypatch.setattr(mc, "fidelity_phi_plus", lambda found: found)
    assert estimate_fidelity(records) == {
        "xx": correlation_from_counts(counts["DA", "DA"]),
        "yy": correlation_from_counts(counts["RL", "RL"]),
        "zz": correlation_from_counts(counts["HV", "HV"])}


def test_estimate_fidelity_requires_all_bases(boosted_result):
    with pytest.raises(ConfigError):
        estimate_fidelity(boosted_result.records[:1])


def test_tables_reject_arm_without_two_detectors(boosted):
    cfg = dataclasses.replace(
        boosted, detectors=tuple(d for d in boosted.detectors if d.id != "s4"))
    with pytest.raises(ConfigError, match=r"arm 'd'.*\['s3'\]"):
        precompute_outcome_tables(cfg)


def test_tables_reject_number_resolving(boosted):
    # triggers may resolve photon number (PNR_BOOSTED builds its tables);
    # an output detector may not, in the tables or in sixfold_probability
    s1 = dataclasses.replace(boosted.detectors[4], kind="pnr")
    cfg = dataclasses.replace(boosted, detectors=(
        *boosted.detectors[:4], s1, *boosted.detectors[5:]))
    assert s1.id == "s1" and s1 in cfg.output_detectors()
    with pytest.raises(ConfigError, match="not threshold: s1$"):
        precompute_outcome_tables(cfg)
    state = apply_circuit(n_pair_state(3), cfg.circuit())
    with pytest.raises(ConfigError, match="not threshold: s1$"):
        sixfold_probability(state, cfg.trigger_detectors(),
                            cfg.output_detectors(), ("HV", "HV"),
                            output_arms=cfg.output_arms())


def plate_on_output_arm(out):
    """The boosted config with a wave plate on output arm c whose two
    outputs, and the c detectors, carry the labels `out`."""
    a, b = out
    return parse(BOOSTED_CONFIG.replace(
        "hwp on=f angle=-22.5 out=xp,yp\n",
        f"hwp on=f angle=-22.5 out=xp,yp\nhwp on=c angle=10 out={a},{b}\n")
        .replace("mode=c:x", f"mode=c:{a}").replace("mode=c:y", f"mode=c:{b}"))


def test_relabelled_output_arm_is_measured_in_every_basis():
    # the same setup twice: only the labels of the plate's outputs differ,
    # so every basis must rotate the relabelled arm as it does the plain one
    relabelled, plain = (plate_on_output_arm(out)
                         for out in (("u", "v"), ("x", "y")))
    for got, want in zip(precompute_outcome_tables(relabelled),
                         precompute_outcome_tables(plain)):
        np.testing.assert_allclose(got.pattern_probs, want.pattern_probs,
                                   rtol=0.0, atol=1e-12)
    states = [apply_circuit(n_pair_state(3), cfg.circuit())
              for cfg in (relabelled, plain)]
    for basis in itertools.product(("HV", "DA", "RL"), repeat=2):
        for outcome in itertools.product((0, 1), repeat=2):
            got, want = (sixfold_probability(
                st, cfg.trigger_detectors(), cfg.output_detectors(), basis,
                outcome, output_arms=cfg.output_arms())
                for st, cfg in zip(states, (relabelled, plain)))
            assert got == pytest.approx(want, rel=0.0, abs=1e-12)


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
    to_detectors = compose((paper_5050.circuit(), *(
        measurement_rotation(arm, basis) for arm in ("c", "d"))), SOURCE_MODES)
    for _, st in dephased_source(paper_5050.source, paper_5050.noise).branches:
        out = apply_circuit(st, to_detectors)
        # only the summation order differs: a few hundred terms <= 1 each
        np.testing.assert_allclose(click_pattern_probabilities(out, detectors),
                                   loop_pattern_vector(out, detectors),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["boosted", "paper_5050", "pnr_triggers",
                                  "lossy_pnr_triggers"])
def test_tables_and_sixfold_probability_agree(name, boosted, boosted_tables,
                                              paper_5050, paper_5050_tables):
    # two routes to the six-fold rates of the source mixture: the tables'
    # per-branch click patterns weighted by the branch weights, and
    # sixfold_probability of the whole mixture after the config's circuit;
    # on lossy, dark number-resolving triggers also the dilation oracle's
    if name in ("boosted", "paper_5050"):
        cfg, tables = {"boosted": (boosted, boosted_tables),
                       "paper_5050": (paper_5050, paper_5050_tables)}[name]
    else:
        cfg = parse({"pnr_triggers": PNR_BOOSTED,
                     "lossy_pnr_triggers": LOSSY_PNR_BOOSTED}[name])
        tables = precompute_outcome_tables(cfg)
    source = dephased_source(cfg.source, cfg.noise).branches
    circuit = cfg.circuit()
    branches = [(w, apply_circuit(st, circuit)) for w, st in source]
    remainder = 1.0 - sum(w for w, _ in source)
    if remainder > 0.0:
        branches.append((remainder, make_vacuum()))
    mixture = MixedState(tuple(branches))
    for tab in tables:
        patterns = [np.flatnonzero(tab.outcome_index == k) for k in range(4)]
        assert all(len(p) == 1 for p in patterns)
        from_tables = [tab.pattern_probs[p[0]] for p in patterns]
        direct = [sixfold_probability(
            mixture, cfg.trigger_detectors(), cfg.output_detectors(),
            tab.basis, divmod(k, 2), output_arms=OUTPUT_ARMS)
            for k in range(4)]
        np.testing.assert_allclose(direct, from_tables, rtol=1e-12, atol=0.0)
        if name == "lossy_pnr_triggers":
            dilated = [dilation_oracle.sixfold_probability(
                mixture, cfg.trigger_detectors(), cfg.output_detectors(),
                tab.basis, divmod(k, 2)) for k in range(4)]
            np.testing.assert_allclose(dilated, from_tables, rtol=1e-12,
                                       atol=0.0)


def seeded_configs(workload, seed):
    """The benchmark's generated configs of one workload and seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs",
        Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.workload_configs(workload, seed)


def oracle_config(name):
    """A fixture, the boosted config, a seed-11 benchmark config or
    paper_7030 at a raised n_max ("paper_7030.exp@6"), with threshold
    detectors throughout."""
    if name == "boosted":
        cfg = parse(BOOSTED_CONFIG)
    elif name.endswith(".exp"):
        cfg = parse(fixture_path(name).read_text(encoding="utf-8"))
    elif "@" in name:
        fixture, n_max = name.split("@")
        cfg = oracle_config(fixture)
        cfg = dataclasses.replace(cfg, source=dataclasses.replace(
            cfg.source, n_max=int(n_max)))
    else:
        workload, index = name.rsplit("_", 1)
        cfg = seeded_configs(workload, 11)[int(index)]
    return dataclasses.replace(cfg, detectors=tuple(
        dataclasses.replace(d, kind="threshold") for d in cfg.detectors))


def oracle_tables(cfg):
    """Per basis: the click-pattern distribution and the post-circuit term
    count by the term-by-term route, every oracle source branch substituted
    through the composed basis map."""
    detectors = cfg.trigger_detectors() + cfg.output_detectors()
    source = fock_oracle.dephased_branches(cfg.source, cfg.noise)
    out = []
    for basis in cfg.bases:
        to_detectors = compose((cfg.circuit(), *(
            measurement_rotation(arm, b)
            for arm, b in zip(cfg.output_arms(), basis))), SOURCE_MODES)
        branches = [(w, fock_oracle.substitute_modes(st, to_detectors))
                    for w, st in source]
        terms = sum(len(st) for _, st in branches)
        remainder = 1.0 - sum(w for w, _ in branches)
        if remainder > 0.0:
            branches.append((remainder, make_vacuum()))
        out.append((click_pattern_probabilities(MixedState(tuple(branches)),
                                                detectors), terms))
    return out


@pytest.mark.parametrize("name", [
    "paper_5050.exp", "paper_6040.exp", "paper_7030.exp", "boosted",
    "exact_0", "exact_1", "exact_2", "mc_pulse_0", "paper_7030.exp@5",
    "paper_7030.exp@6"])
def test_tables_match_term_by_term_oracle(name):
    cfg = oracle_config(name)
    tables = precompute_outcome_tables(cfg)
    assert len(tables) == len(cfg.bases) == 3
    for tab, (probs, terms) in zip(tables, oracle_tables(cfg)):
        assert tab.fock_terms == terms, tab.basis
        np.testing.assert_allclose(tab.pattern_probs, probs, rtol=1e-12,
                                   atol=0.0, err_msg=str(tab.basis))


def doubling_patterns(state, detectors):
    """The click-pattern distribution by doubling: every distinct occupation
    row widened to all 2^k patterns, one detector at a time (bit i =
    detector i), then summed over rows."""
    occ, p_occ = occupation_probabilities(state, [d.mode for d in detectors])
    acc = p_occ[:, None]
    for i, det in enumerate(detectors):
        c = np.array([click_probability(det, int(n)) for n in occ[:, i]])
        acc = np.concatenate([acc * (1.0 - c[:, None]), acc * c[:, None]],
                             axis=1)
    return acc.sum(axis=0)


@pytest.mark.parametrize("name", ["paper_7030.exp@4", "paper_7030.exp@6"])
def test_click_patterns_match_doubling_oracle(name):
    # the mixture each basis's table reads, dark counts and tail included
    cfg = oracle_config(name)
    detectors = cfg.trigger_detectors() + cfg.output_detectors()
    for basis in cfg.bases:
        to_detectors = compose((cfg.circuit(), *(
            measurement_rotation(arm, b)
            for arm, b in zip(cfg.output_arms(), basis))), SOURCE_MODES)
        branches = list(dephased_source(cfg.source, cfg.noise,
                                        to_detectors).branches)
        branches.append((1.0 - sum(w for w, _ in branches), make_vacuum()))
        state = MixedState(tuple(branches))
        np.testing.assert_allclose(
            click_pattern_probabilities(state, detectors),
            doubling_patterns(state, detectors), rtol=1e-12, atol=0.0,
            err_msg=str(basis))


@pytest.mark.parametrize("name", ["paper_7030.exp@4", "paper_7030.exp@6",
                                  "boosted", "paper_7030.exp@6 V=1"])
def test_table_terms_bound_the_built_terms(name):
    # the memory guard's term count bounds every basis's Fock terms, also
    # at visibility 1, where no branch has a flipped pair
    name, _, visibility = name.partition(" V=")
    cfg = oracle_config(name)
    if visibility:
        cfg = dataclasses.replace(cfg, noise=dataclasses.replace(
            cfg.noise, visibility=float(visibility)))
    bound = table_terms(cfg)
    for tab in precompute_outcome_tables(cfg):
        assert tab.fock_terms <= bound, tab.basis


# sha256 of each basis's `pattern_probs.tobytes()`, as the click tables
# computed them before the exact path's Fock core left numpy
PATTERN_PROBS_SHA256 = {
    "paper_5050.exp@4": (
        "bbb6679248866076ab8adb437c8cf9f0ced651b0b7b7616264a07ad1ad2cb5d7",
        "965c99a4328a3be2feff43d3f7f2556576293e18e684661705fad5ce0d73ef3f",
        "ff5633fd99d8373305097d6cdbcacd3b2987bc7d4f1789483af28449ee1dad17"),
    "paper_5050.exp@6": (
        "2315f4874e0994e2fdb39cbd4725a9d77268f4b608163f048ece1d84270d53f4",
        "a47b0a92e34988fcb2b9b70931a46baf9ff8c41d8d698a7c0fd7e79235a28841",
        "b839fceb5723a5cf9017dd0b467964a215b93764fcc2684363554a91cf100995"),
    "paper_7030.exp@4": (
        "2945b59ad3145b7b54ff6860bf290a2dbb1d38c1c9b517e49975e0079b642a22",
        "4d070646bc67f1124e2b93c15c1bcd9dfcdcec224af420a8f7568151b14ec402",
        "608114d6c455e5f7319dc2a5b858ffcc8d7b6731ce95bbdfdc83d70d9a0f68df"),
    "paper_7030.exp@6": (
        "ca013898ee87530ad67726c1bc7f8e8f619441aeef973bb3cdbb72a8f26f0036",
        "f6d85f47ce0356cc917572c67ac207414c41025691b30bffd9eb50094b2e56e4",
        "74ea4dbeb3569a8755d361c8ecbdee5294ee4d8c81090374d2cde0a1bb830f52"),
}


@pytest.mark.parametrize("name", sorted(PATTERN_PROBS_SHA256))
def test_array_branches_match_the_fock_core(name):
    # the click tables build every branch on `mc.ArrayPolynomial`; the same
    # chain on `fock.Polynomial` must give the same terms
    cfg = oracle_config(name)
    tables = precompute_outcome_tables(cfg)
    assert [hashlib.sha256(tab.pattern_probs.tobytes()).hexdigest()
            for tab in tables] == list(PATTERN_PROBS_SHA256[name])
    for tab in tables:
        rotations, _, _ = mc.sixfold_rule(
            cfg.trigger_detectors(), cfg.output_detectors(),
            cfg.output_arms(), tab.basis)
        to_detectors = compose((cfg.circuit(), *rotations), SOURCE_MODES)
        arrays, plain = (dephased_source(cfg.source, cfg.noise, to_detectors,
                                         *polynomial).branches
                         for polynomial in ((mc.ArrayPolynomial,), ()))
        assert len(arrays) == len(plain) == len(tab.branch_weights) - 1
        for (w_array, array), (w, state) in zip(arrays, plain):
            assert (w_array, array.modes) == (w, state.modes)
            assert array.rows.tolist() == list(map(list, state.rows))
            assert max(map(abs, array.amps - state.amps)) <= 1e-15


@pytest.mark.parametrize("name", sorted(PATTERN_PROBS_SHA256))
def test_array_branch_rows_are_no_wider_than_int64_keys(name):
    # a branch's photon-count rows are stored in the narrowest unsigned
    # dtype that holds its counts: no more bytes than one int64 key per term
    cfg = oracle_config(name)
    for basis in cfg.bases:
        rotations, _, _ = mc.sixfold_rule(
            cfg.trigger_detectors(), cfg.output_detectors(),
            cfg.output_arms(), basis)
        to_detectors = compose((cfg.circuit(), *rotations), SOURCE_MODES)
        for _, pure in dephased_source(cfg.source, cfg.noise, to_detectors,
                                       mc.ArrayPolynomial).branches:
            assert pure.rows.nbytes <= 8 * len(pure.rows), basis


def test_occupation_read_outs_agree():
    # `detect.occupations` summed per distinct row is what its array twin
    # returns, also with a mode listed twice and a mode the state lacks
    cfg = parse(fixture_text("paper_5050.exp"))
    state = dephased_source(cfg.source, cfg.noise, cfg.circuit())
    modes = [("e", "x"), ("c", "x"), ("e", "x"), ("z", "x"), ("f", "yp"),
             ("d", "y")]
    want = {}
    for _, row, amp in occupations(state, modes):
        want[row] = want.get(row, 0.0) + abs(amp) ** 2
    rows, probs = occupation_probabilities(state, modes)
    assert sorted(want) == list(map(tuple, rows.tolist()))
    assert all(row[2] == row[3] == 0 for row in want)
    assert max(abs(want[tuple(row)] - p)
               for row, p in zip(rows.tolist(), probs)) <= 1e-15
