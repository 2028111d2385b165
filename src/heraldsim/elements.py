"""Linear optical elements and circuits, each a `ModeTransform`.

Elements are expressed as linear maps on creation operators (the same real
coefficients the annihilation-operator convention would use; for complex
maps this fixes the conjugation convention).  Every element is lossless,
an isometry on its declared input modes; detector loss is not a circuit
element but part of the detector model in `heraldsim.detect`.  A circuit
is its elements composed into one map (`compose`).  No layout is built in:
a config declares its elements, triggers and output arms.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .fock import PureState

Mode = tuple[str, str]

POL_H = "x"
POL_V = "y"

LOSSLESS_ATOL = 1e-9

# the two SPDC arms, where every circuit starts
SOURCE_MODES: tuple[Mode, ...] = (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))


class ConfigError(Exception):
    """Invalid configuration (duplicate modes, unmapped modes, bad ranges)."""


class ModeTransform(NamedTuple):
    """Linear map on creation operators, one column per input mode."""

    columns: dict[Mode, tuple[tuple[complex, Mode], ...]]

    def extended(self, modes: Iterable[Mode]) -> "ModeTransform":
        """This map on `modes`, identity on the ones it ignores."""
        return compose((self,), modes)

    def gram_deviation(self) -> float:
        """Max deviation of the column Gram matrix from the identity."""
        cols = [dict((m, c) for c, m in col) for col in self.columns.values()]
        return max((abs(sum(ci.get(m, 0.0).conjugate() * c
                            for m, c in cj.items()) - (i == j))
                    for i, ci in enumerate(cols) for j, cj in enumerate(cols)),
                   default=0.0)


class SplitterTransform(ModeTransform):
    """A beam splitter's map: each column's first entry is the reflected
    output, its second the transmitted one."""

    __slots__ = ()


def beam_splitter(R: float, input: str, reflected_out: str,
                  transmitted_out: str) -> SplitterTransform:
    """Non-polarizing partial-reflecting beam splitter, intensity R + T = 1."""
    if not (0.0 <= R <= 1.0):
        raise ConfigError(f"beam splitter R={R} outside [0, 1]")
    r, t = math.sqrt(R) + 0.0j, math.sqrt(1.0 - R) + 0.0j
    return SplitterTransform({(input, pol): ((r, (reflected_out, pol)),
                                             (t, (transmitted_out, pol)))
                              for pol in (POL_H, POL_V)})


def half_wave_plate(angle_deg: float, target: str,
                    output_polarizations: tuple[str, str]) -> ModeTransform:
    """HWP convention: h -> cos2t h' + sin2t v', v -> sin2t h' - cos2t v'.

    At -22.5 deg this reproduces f_x -> (f_x' - f_y')/sqrt(2) and
    f_y -> -(f_x' + f_y')/sqrt(2); the sign on the second row is an
    unobservable convention choice.
    """
    if not (-90.0 < angle_deg <= 90.0):
        raise ConfigError(f"wave plate angle {angle_deg} outside (-90, 90]")
    c = math.cos(2.0 * math.radians(angle_deg))
    s = math.sin(2.0 * math.radians(angle_deg))
    p1, p2 = output_polarizations
    columns = {
        (target, POL_H): ((c + 0.0j, (target, p1)), (s + 0.0j, (target, p2))),
        (target, POL_V): ((s + 0.0j, (target, p1)), (-c + 0.0j, (target, p2))),
    }
    return ModeTransform(columns)


class Basis(NamedTuple):
    outcomes: str  # the letters of its first and second outcome
    pauli: str     # the component a same-basis correlation estimates
    # per input polarization, its coefficients on each outcome's mode
    rotation: tuple[tuple[complex, complex], tuple[complex, complex]]


_S = 1.0 / math.sqrt(2.0)
MEASUREMENT_BASES: dict[str, Basis] = {
    "HV": Basis("HV", "z", ((1.0, 0.0), (0.0, 1.0))),
    "DA": Basis("+-", "x", ((_S, _S), (_S, -_S))),
    "RL": Basis("RL", "y", ((_S, _S), (-1j * _S, 1j * _S))),
}


def measurement_rotation(spatial: str, basis: str,
                         pols: tuple[str, str] = (POL_H, POL_V)
                         ) -> ModeTransform:
    """Map an arm's two polarization modes onto the detectors of a
    measurement basis: after it the detector on (spatial, pols[0]) registers
    the first outcome of the basis (H, + or R) and (spatial, pols[1]) the
    second."""
    if basis not in MEASUREMENT_BASES:
        raise ConfigError(f"unknown measurement basis {basis!r}")
    modes = [(spatial, pol) for pol in pols]
    columns = {m: tuple((complex(c), out) for c, out in zip(col, modes) if c)
               for m, col in zip(modes, MEASUREMENT_BASES[basis].rotation)}
    return ModeTransform(columns)


def compose(transforms: tuple[ModeTransform, ...], modes: Iterable[Mode]
            ) -> ModeTransform:
    """One column per mode of `modes`: `transforms` composed in propagation
    order, each passing the modes it ignores unchanged.  Raises ConfigError
    unless the composed map is an isometry."""
    columns = {}
    for m in modes:
        col: dict[Mode, complex] = {m: 1.0 + 0.0j}
        for transform in transforms:
            nxt: dict[Mode, complex] = {}
            for om, c in col.items():
                for tc, tm in transform.columns.get(om, ((1.0, om),)):
                    nxt[tm] = nxt.get(tm, 0.0) + c * tc
            col = nxt
        columns[m] = tuple((c, om) for om, c in col.items() if c != 0.0)
    transform = ModeTransform(columns)
    dev = transform.gram_deviation()
    if dev > LOSSLESS_ATOL:
        raise ConfigError("circuit is not lossless: its composed map "
                          f"deviates from an isometry by {dev:.3g}")
    return transform


def path_exponents(transforms: tuple[ModeTransform, ...]
                   ) -> dict[Mode, tuple[int, ...]]:
    """Per mode that light from `SOURCE_MODES` reaches through `transforms`,
    how often it was reflected and how often transmitted at each splitter,
    in propagation order: (a_1, b_1, a_2, b_2, ...).

    The transforms are walked as `dsl.validate` walks them, keeping every
    entry, a splitter's zero one at R = 0 or 1 too.  In a circuit where no
    two elements feed one mode, each entry of the composed map into mode m
    is then c (sqrt R_1)^a_1 (sqrt T_1)^b_1 ... with c free of every R;
    a transform that feeds one mode along two different paths raises
    ConfigError."""
    n_splitters = sum(isinstance(t, SplitterTransform) for t in transforms)
    zero = (0,) * (2 * n_splitters)
    exponents = dict.fromkeys(SOURCE_MODES, zero)
    splitter = 0
    for transform in transforms:
        # read every input before writing: an output may reuse an input label
        paths = {m: exponents.pop(m, zero) for m in transform.columns}
        fed: dict[Mode, tuple[int, ...]] = {}
        for m, column in transform.columns.items():
            for k, (_, out) in enumerate(column):
                path = list(paths[m])
                if isinstance(transform, SplitterTransform):
                    path[2 * splitter + k] += 1
                if fed.setdefault(out, tuple(path)) != tuple(path):
                    raise ConfigError(f"mode {out[0]}:{out[1]} is fed along "
                                      "two paths that scale differently in R")
        exponents.update(fed)
        splitter += isinstance(transform, SplitterTransform)
    return exponents


def apply_circuit(state: PureState, circuit: ModeTransform) -> PureState:
    from .fock import substitute_modes
    return substitute_modes(state, compose((circuit,), state.occupied_modes()))

