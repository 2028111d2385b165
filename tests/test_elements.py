"""Linear-optical elements: splitters, wave plates, loss, basis rotations,
and circuits composed into one transform."""

import math

import pytest

from heraldsim.config import element_transform
from heraldsim.dsl import parse
from heraldsim.fock import ConfigError, mode, substitute_modes
from heraldsim.elements import (
    LOSSLESS_ATOL,
    MEASUREMENT_BASES,
    ModeTransform,
    apply_circuit,
    beam_splitter,
    compose,
    half_wave_plate,
    measurement_rotation,
)
from heraldsim.source import n_pair_state
from heraldsim.detect import herald, pnr_detector

from conftest import (OUTPUT_ARMS, RELABELLED_5050, TRIGGER_MODES,
                      fixture_text, heralding_circuit, heralding_elements)
from dilation_oracle import loss_channel


def element_transforms(config):
    """The transforms of `config`'s declared elements in propagation order,
    the ones `config.circuit()` composes."""
    transforms = (element_transform(decl) for decl in config.elements)
    return tuple(t for t in transforms if t is not None)


def apply_elementwise(state, transforms):
    """Reference: substitute element by element, each extended with identity
    columns for the occupied modes it ignores."""
    for transform in transforms:
        state = substitute_modes(state, transform.extended(state.occupied_modes()))
    return state


def max_amplitude_gap(a, b):
    return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0))
               for k in set(a.terms) | set(b.terms))


CIRCUIT_TEXTS = {name: fixture_text(name) for name in
                 ("paper_5050.exp", "paper_6040.exp", "paper_7030.exp")}
CIRCUIT_TEXTS["relabelled"] = RELABELLED_5050


def test_beam_splitter_amplitudes():
    bs = beam_splitter(0.486, "a", reflected_out="c", transmitted_out="e")
    col = dict((m, amp) for amp, m in bs.columns[mode("a", "x")])
    assert col[mode("c", "x")] == pytest.approx(math.sqrt(0.486))
    assert col[mode("e", "x")] == pytest.approx(math.sqrt(0.514))


def test_beam_splitter_intensity_check():
    for R in (1.2, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="outside"):
            beam_splitter(R, "a", reflected_out="c", transmitted_out="e")
    for angle in (-90.0, 90.5, float("nan")):
        with pytest.raises(ConfigError, match="outside"):
            half_wave_plate(angle, "f", ("xp", "yp"))


def test_half_wave_plate_at_minus_22_5():
    hw = half_wave_plate(-22.5, "f", ("xp", "yp"))
    cx = dict((m, amp) for amp, m in hw.columns[mode("f", "x")])
    cy = dict((m, amp) for amp, m in hw.columns[mode("f", "y")])
    s = 1.0 / math.sqrt(2.0)
    assert cx[mode("f", "xp")] == pytest.approx(s)
    assert cx[mode("f", "yp")] == pytest.approx(-s)
    assert cy[mode("f", "xp")] == pytest.approx(-s)
    assert cy[mode("f", "yp")] == pytest.approx(-s)


def test_loss_channel_column():
    eta = 0.167
    lc = loss_channel(mode("e", "x"), eta)
    col = dict((m, amp) for amp, m in lc.columns[mode("e", "x")])
    kept = [m for m in col if not m[0].startswith("~")]
    env = [m for m in col if m[0].startswith("~")]
    assert len(kept) == 1 and len(env) == 1
    assert abs(col[kept[0]]) == pytest.approx(math.sqrt(eta))
    assert abs(col[env[0]]) == pytest.approx(math.sqrt(1.0 - eta))


def test_measurement_rotations_are_isometries():
    for basis in ("HV", "DA", "RL"):
        dev = measurement_rotation("c", basis).gram_deviation()
        assert dev <= LOSSLESS_ATOL, f"{basis} rotation deviates by {dev}"


# each basis's rotation written out coefficient by coefficient, per input
# mode (first, second polarization label): (coefficient, output index)
_S = 1.0 / math.sqrt(2.0)
ROTATION_COLUMNS = {
    "HV": (((1.0 + 0.0j, 0),), ((1.0 + 0.0j, 1),)),
    "DA": (((_S + 0.0j, 0), (_S + 0.0j, 1)),
           ((_S + 0.0j, 0), (-_S + 0.0j, 1))),
    "RL": (((_S + 0.0j, 0), (_S + 0.0j, 1)),
           ((-1j * _S, 0), (1j * _S, 1))),
}


@pytest.mark.parametrize("pols", [("x", "y"), ("u", "v")])
def test_basis_table_transcribes_each_basis(pols):
    assert list(MEASUREMENT_BASES) == ["HV", "DA", "RL"]
    assert {b: (t.outcomes, t.pauli) for b, t in MEASUREMENT_BASES.items()} \
        == {"HV": ("HV", "z"), "DA": ("+-", "x"), "RL": ("RL", "y")}
    modes = [("c", p) for p in pols]
    for basis, columns in ROTATION_COLUMNS.items():
        got = measurement_rotation("c", basis, pols).columns
        assert list(got) == modes
        for m, want in zip(modes, columns):
            # exact coefficients, zero entries dropped
            assert got[m] == tuple((c, modes[k]) for c, k in want), basis
            assert all(type(c) is complex for c, _ in got[m])
    with pytest.raises(ConfigError, match="unknown measurement basis"):
        measurement_rotation("c", "XY")


def test_isometry_validation_catches_scaling():
    bs = beam_splitter(0.5, "a", reflected_out="c", transmitted_out="e")
    scaled = ModeTransform(
        {m: tuple((0.9 * amp, om) for amp, om in col)
         for m, col in bs.columns.items()})
    assert bs.gram_deviation() <= LOSSLESS_ATOL
    assert scaled.gram_deviation() == pytest.approx(1.0 - 0.81, abs=1e-12)


@pytest.mark.parametrize("R", [0.0, 0.3, 0.5, 1.0])
def test_paper_fixture_declares_the_published_layout(paper_5050, R):
    # `analysis.four_pair_correction`, which the benchmark's herald check
    # replays, reads its layout from this fixture: an edit to the fixture's
    # circuit, triggers or arms would move its values without a trace
    got, want = paper_5050.transforms(R), heralding_elements(R)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert g.columns == w.columns
    assert tuple(d.mode for d in paper_5050.trigger_detectors()) \
        == TRIGGER_MODES
    assert paper_5050.output_arms() == OUTPUT_ARMS


def test_heralding_circuit_structure():
    circ = heralding_circuit(0.486)
    st = apply_circuit(n_pair_state(1), circ)
    spatials = {m[0] for m in st.occupied_modes()}
    assert spatials <= {"c", "d", "e", "f"}
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_one_pair_cannot_trigger():
    # two photons cannot cover four trigger modes
    st = apply_circuit(n_pair_state(1), heralding_circuit(0.5))
    triggers = [pnr_detector(f"t{i}", m)
                for i, m in enumerate(TRIGGER_MODES, start=1)]
    res = herald(st, triggers, OUTPUT_ARMS)
    assert res.herald_probability < 1e-12
    assert not res.heralded


def test_two_pair_herald_suppression():
    # four photons can cover the triggers only by emptying the output arms,
    # and that term must vanish as well when two photons are needed outside
    st = apply_circuit(n_pair_state(2), heralding_circuit(0.486))
    triggers = [pnr_detector(f"t{i}", m)
                for i, m in enumerate(TRIGGER_MODES, start=1)]
    res = herald(st, triggers, OUTPUT_ARMS)
    assert res.herald_probability * res.preparation_efficiency < 1e-12


def test_circuit_norm_preserved_three_pairs():
    st = apply_circuit(n_pair_state(3), heralding_circuit(0.7))
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(CIRCUIT_TEXTS))
def test_compiled_circuit_matches_elementwise(name, n):
    config = parse(CIRCUIT_TEXTS[name])
    st = n_pair_state(n)
    compiled = apply_circuit(st, config.circuit())
    reference = apply_elementwise(st, element_transforms(config))
    assert max_amplitude_gap(compiled, reference) < 1e-12
    assert compiled.norm_sq() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("basis", ["HV", "DA", "RL"])
def test_compiled_basis_map_matches_circuit_then_rotation(paper_5050, basis):
    rotations = tuple(measurement_rotation(arm, basis) for arm in ("c", "d"))
    st = n_pair_state(4)
    to_detectors = element_transforms(paper_5050) + rotations
    compiled = substitute_modes(st, compose(to_detectors, st.occupied_modes()))
    reference = apply_elementwise(st, to_detectors)  # circuit, then rotations
    assert max_amplitude_gap(compiled, reference) < 1e-12


def test_compile_rejects_non_isometric_element():
    bs = beam_splitter(0.5, "a", reflected_out="c", transmitted_out="e")
    scaled = ModeTransform(
        {m: tuple((0.9 * amp, om) for amp, om in col)
         for m, col in bs.columns.items()})
    with pytest.raises(ConfigError, match="deviates from an isometry by 0.19"):
        compose((scaled,), {mode("a", "x"), mode("b", "y")})
    with pytest.raises(ConfigError):
        apply_circuit(n_pair_state(1), scaled)
