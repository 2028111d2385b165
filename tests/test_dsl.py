"""Experiment description language: parsing, diagnostics, canonical form."""

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heraldsim.config import BsDecl, ExperimentConfig, HwpDecl, PbsDecl
from heraldsim.detect import NUMBER_RESOLVING, THRESHOLD, DetectorSpec, herald
from heraldsim.dsl import (BASES, DslError, parse, serialize,
                           table_memory_warnings, validate, walk)
from heraldsim.elements import apply_circuit
from heraldsim.fock import ConfigError
from heraldsim.source import (SourceNoise, SpdcParams, coupling_from_rate,
                              n_pair_state, pair_probability)

import conftest
from conftest import (BOOSTED_CONFIG, OUTPUT_ARMS, RELABELLED_5050,
                      ROTATED_ARM_5050, fixture_text)


FIXTURES = ["paper_5050.exp", "paper_6040.exp", "paper_7030.exp"]


@pytest.mark.parametrize("text", [fixture_text(n) for n in FIXTURES] + [
    BOOSTED_CONFIG, RELABELLED_5050, ROTATED_ARM_5050],
    ids=FIXTURES + ["boosted", "relabelled", "rotated_arm"])
def test_fixtures_parse_clean(text):
    cfg = parse(text)
    assert validate(cfg) == []
    assert len(cfg.detectors) == 8
    assert len(cfg.herald_ids) == 4
    assert len(cfg.bases) == 3


@pytest.mark.parametrize("nmax, warned", [
    (4, False), (8, False), (10, False), (11, True), (16, True),
    (2 ** 62, True)])
def test_table_memory_warnings_name_the_source_line(nmax, warned):
    # a bound on the table build's peak from the config alone: nmax 10
    # stays under 1 GB on the published layout, nmax 11 passes it
    text = fixture_text("paper_7030.exp").replace("nmax=4", f"nmax={nmax}")
    warnings = table_memory_warnings(parse(text))
    assert len(warnings) == warned
    for warning in warnings:
        assert warning.split(": ")[:2] == [
            "warning", f"source spdc nmax={nmax} p1=0.047 visibility=0.91"]


def test_fixture_parameters_match_published_table():
    values = {
        "paper_5050.exp": (0.486, 0.167, 0.129),
        "paper_6040.exp": (0.570, 0.173, 0.133),
        "paper_7030.exp": (0.685, 0.207, 0.15),
    }
    for name, (R, eta_t, eta_s) in values.items():
        cfg = parse(fixture_text(name))
        assert cfg.beam_splitter_R() == pytest.approx(R, abs=1e-12)
        assert cfg.mean_trigger_eta() == pytest.approx(eta_t, abs=1e-12)
        assert cfg.mean_output_eta() == pytest.approx(eta_s, abs=1e-12)
        assert pair_probability(1, cfg.source.r) == pytest.approx(
            0.047, abs=1e-9)


@pytest.mark.parametrize("name", FIXTURES)
def test_serialize_is_idempotent_on_fixtures(name):
    cfg = parse(fixture_text(name))
    canon = serialize(cfg)
    assert serialize(parse(canon)) == canon


def test_serialized_fixture_preserves_structure():
    cfg = parse(fixture_text("paper_5050.exp"))
    again = parse(serialize(cfg))
    assert again.digest() == cfg.digest()
    assert again.beam_splitter_R() == pytest.approx(0.486, abs=1e-9)


def test_canonical_ordering():
    shuffled = "\n".join(reversed(BOOSTED_CONFIG.strip().splitlines()))
    canon = serialize(parse(shuffled))
    lines = [ln.split() for ln in canon.splitlines() if ln.strip()]
    order = {k: i for i, k in enumerate(
        ["source", "element", "detector", "herald", "basis", "pulses",
         "seed"])}
    kinds = ["element" if ln[0] in ("bs", "hwp", "pbs") else ln[0]
             for ln in lines]
    ranks = [order[k] for k in kinds]
    assert ranks == sorted(ranks)
    # elements are the propagation order: they keep their declared order
    elements = [(ln[0], next(w for w in ln if w.startswith(("in=", "on="))))
                for ln in lines if ln[0] in ("bs", "hwp", "pbs")]
    assert elements == [("pbs", "on=f"), ("pbs", "on=e"), ("hwp", "on=f"),
                        ("bs", "in=b"), ("bs", "in=a")]


def test_serialize_keeps_element_order():
    # a plate on arm a ahead of its splitter acts on the source photons
    text = fixture_text("paper_5050.exp").replace(
        "bs in=a", "hwp on=a angle=10 out=x,y\nbs in=a", 1)
    cfg = parse(text)
    again = parse(serialize(cfg))
    assert again.elements == cfg.elements
    assert validate(cfg) == validate(again) == []
    # sorted by kind, the plate lands behind the splitter: another circuit
    kinds = (BsDecl, HwpDecl, PbsDecl)
    by_kind = dataclasses.replace(cfg, elements=tuple(sorted(
        cfg.elements, key=lambda e: kinds.index(type(e)))))
    assert validate(by_kind) != []
    assert again.digest() == cfg.digest() != by_kind.digest()
    effs = [herald(apply_circuit(n_pair_state(3), c.circuit()),
                   c.trigger_detectors(), OUTPUT_ARMS).preparation_efficiency
            for c in (cfg, again)]
    assert effs[1] == effs[0] == pytest.approx(0.2578539, abs=5e-8)


def test_duplicate_detector_id_rejected():
    text = BOOSTED_CONFIG.replace("id=s4", "id=s3")
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line > 0 and err.value.col > 0
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("stanza", [
    "source spdc p1=0.1 nmax=3", "herald t1 t2 t3 t4", "pulses 7", "seed 5"])
def test_repeated_once_only_stanza_rejected_where_it_repeats(stanza):
    # a second pulses or seed line used to replace the first silently
    text = fixture_text("paper_5050.exp") + stanza + "\n"
    word = stanza.split()[0]
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (len(text.splitlines()), 1)
    assert f"duplicate {word} stanza" in str(err.value)
    assert err.value.hint == f"keep a single {word} line"


def test_repeated_basis_setting_is_an_error():
    cfg = parse(BOOSTED_CONFIG + "basis DA DA\nbasis DA DA\n")
    assert validate(cfg) == ["error: basis DA DA is declared 3 times; each "
                             "setting is drawn once"]
    assert validate(parse(BOOSTED_CONFIG + "basis DA HV\n")) == []


def test_missing_source_reported_with_hint():
    text = BOOSTED_CONFIG.replace(
        "source spdc p1=0.25 nmax=3 visibility=1.0", "")
    with pytest.raises(DslError) as err:
        parse(text)
    assert "source" in str(err.value)
    assert err.value.hint


def test_bad_number_reports_location():
    text = BOOSTED_CONFIG.replace("R=0.5", "R=zebra", 1)
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line == 3
    assert err.value.col > 0


def value_location(text, token):
    """(line, col) of the value in the first `key=value` token `token`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if token in line.split():
            return lineno, line.index(token) + 1 + token.index("=") + 1
    raise AssertionError(f"{token} not in text")


def test_unreachable_p1_reports_location():
    text = fixture_text("paper_5050.exp").replace("p1=0.047", "p1=0.5")
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == value_location(text, "p1=0.5")
    assert "p1=0.5 exceeds achievable maximum 0.296296" in str(err.value)


@pytest.mark.parametrize("old, new, blamed", [
    ("dark=300", "dark=1e12", "dark=1e12"),
    ("dark=300", "dark=-300", "dark=-300"),
    ("dark=300", "dark=nan", "dark=nan"),
    ("window=12e-9", "window=-12e-9", "window=-12e-9"),
    ("window=12e-9", "window=inf", "window=inf"),
])
def test_dark_probability_outside_unit_interval_reports_location(old, new,
                                                                 blamed):
    text = fixture_text("paper_5050.exp").replace(old, new, 1)
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == value_location(text, blamed)
    key, value = blamed.split("=")
    if float(value) >= 0.0:  # each value in range, their product not
        assert "dark probability" in str(err.value)
    else:  # negative or NaN: the value itself is out of range
        assert f"{key}={float(value)} outside [0, inf]" in str(err.value)


@pytest.mark.parametrize("new, blamed", [
    ("dark=-300 window=-1e-9", "dark=-300"),
    ("dark=-300", "dark=-300"),
    ("dark=0 window=-1e-9", "window=-1e-9"),
])
def test_negative_dark_rate_or_window_reports_location(new, blamed):
    # the product alone would pass: 3e-7, -0.0 and -0.0
    text = fixture_text("paper_5050.exp").replace("dark=300 window=12e-9",
                                                  new, 1)
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == value_location(text, blamed)
    assert "outside [0, inf]" in str(err.value)


@pytest.mark.parametrize("old, new, blamed", [
    ("out=xp,yp", "out=xp,xp", "out=xp,xp"),
    ("refl=c trans=e", "refl=e trans=e", "trans=e"),
])
def test_coinciding_element_outputs_report_location(old, new, blamed):
    # each element's transform feeds both of its outputs, so a walk over
    # live modes cannot tell two outputs that coincide; the parser does
    text = fixture_text("paper_5050.exp").replace(old, new, 1)
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == value_location(text, blamed)


@pytest.mark.parametrize("line", [
    "seed 9223372036854775808", "seed 9223372036854776808",
    "seed 18446744073709551616", "seed -1",
    "pulses 9223372036854775808", "pulses 0", "pulses -3"])
def test_seed_and_pulses_outside_int64_report_location(line):
    # the Philox key and the multinomial count are int64: 2^63 and 2^63+1000
    # would draw one stream, and 2^64 would fail only at run time
    key = line.split()[0]
    text = "\n".join(line if ln.split()[:1] == [key] else ln
                     for ln in BOOSTED_CONFIG.splitlines())
    with pytest.raises(DslError) as err:
        parse(text)
    lineno = text.splitlines().index(line) + 1
    assert (err.value.line, err.value.col) == (lineno, len(key) + 2)
    assert f"{key}={line.split()[1]} outside [" in str(err.value)


def test_seed_and_pulses_at_int64_edges_parse():
    text = (BOOSTED_CONFIG.replace("seed 7", "seed 9223372036854775807")
            .replace("pulses 2000000", "pulses 9223372036854775807"))
    cfg = parse(text)
    assert cfg.seed == cfg.pulses == 2 ** 63 - 1
    assert parse(BOOSTED_CONFIG.replace("seed 7", "seed 0")).seed == 0
    with pytest.raises(ConfigError, match="seed"):
        dataclasses.replace(cfg, seed=2 ** 63)


def test_unknown_keyword_rejected():
    with pytest.raises(DslError):
        parse(BOOSTED_CONFIG + "\nwidget foo=1\n")


def test_out_of_range_rate_rejected():
    with pytest.raises(DslError):
        parse(BOOSTED_CONFIG.replace("p1=0.25", "p1=1.5"))


def test_herald_arity_diagnostic():
    cfg = parse(BOOSTED_CONFIG.replace("herald t1 t2 t3 t4",
                                       "herald t1 t2 t3"))
    diags = validate(cfg)
    assert any("four trigger detectors" in d for d in diags)


def test_unknown_herald_id_diagnostic():
    cfg = parse(BOOSTED_CONFIG.replace("herald t1 t2 t3 t4",
                                       "herald t1 t2 t3 zz"))
    diags = validate(cfg)
    assert any(d.startswith("error") and "zz" in d for d in diags)
    with pytest.raises(ConfigError, match="no detector with id 'zz'"):
        cfg.trigger_detectors()


def test_low_nmax_warning():
    cfg = parse(BOOSTED_CONFIG.replace("nmax=3", "nmax=2"))
    diags = validate(cfg)
    assert any(d.startswith("warning") for d in diags)


def config_text(p1, R, eta, visibility, pulses, seed, bases):
    basis_lines = "\n".join(f"basis {b1} {b2}" for b1, b2 in bases)
    return f"""
source spdc p1={p1} nmax=3 visibility={visibility}
bs in=a refl=c trans=e R={R}
bs in=b refl=d trans=f R={R}
hwp on=f angle=-22.5 out=xp,yp
pbs on=e
pbs on=f
detector id=t1 mode=e:x kind=threshold eta={eta}
detector id=t2 mode=e:y kind=threshold eta={eta}
detector id=t3 mode=f:xp kind=threshold eta={eta}
detector id=t4 mode=f:yp kind=threshold eta={eta}
detector id=s1 mode=c:x
detector id=s2 mode=c:y
detector id=s3 mode=d:x
detector id=s4 mode=d:y
herald t1 t2 t3 t4
{basis_lines}
pulses {pulses}
seed {seed}
"""


nine_digit = st.integers(min_value=1, max_value=999999).map(
    lambda n: n / 1e6)


@settings(max_examples=40, deadline=None)
@given(
    p1=st.integers(min_value=1, max_value=290000).map(lambda n: n / 1e6),
    R=nine_digit.filter(lambda x: 0.0 < x < 1.0),
    eta=nine_digit,
    visibility=nine_digit,
    pulses=st.integers(min_value=1, max_value=10 ** 12),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    bases=st.lists(
        st.tuples(st.sampled_from(["HV", "DA", "RL"]),
                  st.sampled_from(["HV", "DA", "RL"])),
        min_size=1, max_size=3, unique=True),
)
def test_round_trip_property(p1, R, eta, visibility, pulses, seed, bases):
    text = config_text(p1, R, eta, visibility, pulses, seed, bases)
    cfg = parse(text)
    canon = serialize(cfg)
    cfg2 = parse(canon)
    assert serialize(cfg2) == canon
    assert cfg2.digest() == cfg.digest()
    assert cfg2.pulses == pulses and cfg2.seed == seed
    assert cfg2.beam_splitter_R() == pytest.approx(R, rel=1e-8)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_parser_is_total_on_garbage(text):
    try:
        parse(text)
    except DslError as err:
        assert err.line >= 0 and err.col >= 0


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="source bdetchwpbs=.:0123456789\n ", max_size=160))
def test_parser_is_total_on_near_grammar_soup(text):
    try:
        parse(text)
    except DslError:
        pass


# configs drawn over the whole grammar, numbers as short decimals so that
# every value survives the serializer's nine significant digits; an
# element's two outputs differ, as the parser requires
label = st.text(alphabet="abcdefxyz", min_size=1, max_size=3)
pol_label = st.text(alphabet="xyp", min_size=1, max_size=2).map(
    lambda p: "x" + p)
unit = st.integers(min_value=0, max_value=10 ** 6).map(lambda n: n / 1e6)


@st.composite
def configs(draw):
    elements = draw(st.lists(st.one_of(
        st.builds(BsDecl, input=label, reflected_out=label,
                  transmitted_out=label, R=unit).filter(
                      lambda bs: bs.reflected_out != bs.transmitted_out),
        st.builds(HwpDecl, target=label,
                  angle_deg=st.integers(-899999, 900000).map(lambda n: n / 1e4),
                  out_pols=st.lists(pol_label, min_size=2, max_size=2,
                                    unique=True).map(tuple)),
        st.builds(PbsDecl, target=label)), max_size=6))
    ids = draw(st.lists(label, min_size=1, max_size=8, unique=True))
    detectors = tuple(DetectorSpec(
        id=det_id, mode=(draw(label), draw(pol_label)),
        kind=draw(st.sampled_from([THRESHOLD, NUMBER_RESOLVING])),
        coupling=draw(unit), dark_rate=draw(st.integers(0, 10 ** 6)),
        window=draw(st.integers(0, 10 ** 4)) * 1e-12) for det_id in ids)
    p1 = draw(st.integers(0, 296296).map(lambda n: n / 1e6))
    return ExperimentConfig(
        source=SpdcParams(r=coupling_from_rate(p1),
                          n_max=draw(st.integers(1, 12))),
        noise=SourceNoise(visibility=draw(unit)),
        elements=tuple(elements), detectors=detectors,
        herald_ids=tuple(draw(st.lists(st.sampled_from(ids), max_size=5))),
        bases=tuple(draw(st.lists(st.tuples(st.sampled_from(BASES),
                                            st.sampled_from(BASES)),
                                  max_size=3))),
        pulses=draw(st.integers(1, 10 ** 12)),
        seed=draw(st.integers(0, 2 ** 63 - 1)))


@settings(max_examples=150, deadline=None)
@given(configs())
def test_canonical_text_is_a_fixed_point(config):
    text = serialize(config)
    assert serialize(parse(text)) == text


# values a config may not hold, or that look like numbers but are not
HOSTILE_VALUES = ["0", "-0", "1", "-1", "0.3", "0.5", "8", "90", "-90",
                  "1e12", "-1e12", "1e-300", "1e308", "1e999", "nan", "-nan",
                  "inf", "-inf", "x", "", "=", "e:", ":x", "a:b", "x,y", "1_0"]


@settings(max_examples=200, deadline=None)
@given(configs(), st.data())
def test_parser_raises_only_dsl_errors_on_mutated_text(config, data):
    lines = serialize(config).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        # a mutation can empty a line; the source line keeps its key= words
        i = data.draw(st.sampled_from(
            [k for k, line in enumerate(lines) if line.split()]))
        words = lines[i].split()
        j = data.draw(st.integers(0, len(words) - 1))
        key, eq, _ = words[j].partition("=")
        value = data.draw(st.sampled_from(HOSTILE_VALUES)
                          | st.text(max_size=6))
        words[j] = key + eq + value if eq else value
        lines[i] = " ".join(words)
    try:
        parse("\n".join(lines))
    except DslError as err:
        assert err.line >= 0 and err.col >= 0


def walked_layouts():
    """The fixtures, every layout `conftest` declares and the benchmark's
    `exact` and `mc_pulse` inputs of seeds 1-10, by name."""
    layouts = {name: parse(fixture_text(name)) for name in FIXTURES}
    layouts.update((name, parse(text)) for name, text in vars(conftest).items()
                   if isinstance(text, str) and "source spdc" in text)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for workload in ("exact", "mc_pulse"):
        for seed in range(1, 11):
            for i, config in enumerate(inputs.workload_configs(workload,
                                                               seed)):
                layouts[f"{workload}-{seed}-{i}"] = config
    return layouts


WALKED = walked_layouts()


def with_splitters(config, ratios):
    """`config` with splitter s at ratios.get(s, 0.5), in declared order."""
    splitters = itertools.count()
    return dataclasses.replace(config, elements=tuple(
        dataclasses.replace(d, R=ratios.get(next(splitters), 0.5))
        if isinstance(d, BsDecl) else d for d in config.elements))


@pytest.mark.parametrize("name", sorted(WALKED))
def test_walk_paths_scale_the_composed_circuit(name):
    # the oracle is the composed circuit itself: with splitter s at
    # R = 0.2 and every other at 1/2, each entry into mode m scales by
    # sqrt(0.2 / 0.5)^a_s sqrt(0.8 / 0.5)^b_s of the path the walk gives m
    config = WALKED[name]
    errors, paths = walk(config)
    assert errors == []
    half = with_splitters(config, {}).circuit().columns
    n_splitters = sum(isinstance(d, BsDecl) for d in config.elements)
    assert n_splitters and {len(p) for p in paths.values()} == {
        2 * n_splitters}
    for s in range(n_splitters):
        tilted = with_splitters(config, {s: 0.2}).circuit().columns
        assert tilted.keys() == half.keys()
        for source, column in half.items():
            got = {m: c for c, m in tilted[source]}
            assert got.keys() == {m for _, m in column}
            for c, m in column:
                a, b = paths[m][2 * s:2 * s + 2]
                want = c * math.sqrt(0.4) ** a * math.sqrt(1.6) ** b
                assert abs(got[m] - want) <= 1e-12, (source, m, s)
