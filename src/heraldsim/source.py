"""Multi-pair SPDC source states and the imperfect-visibility noise model.

Every source branch is P-^k P+^j |0>, k ideal and j phase-flipped pairs,
where P-/+ = a_x^dag b_y^dag -/+ a_y^dag b_x^dag.  `pair_power_states`
makes every branch, normalized, by multiplying the two pair polynomials,
in the source modes or taken once through a circuit composed on them.  The
one memoized P-^k P+^j chain takes its polynomial type: `fock.Polynomial`
by default, or `mc.ArrayPolynomial`, its array-backed twin, for the click
tables.
"""

from __future__ import annotations

# source declarations live in `config`; importable from here as before
from .config import (SourceNoise, SpdcParams, coupling_from_rate,
                     pair_probability, source_cells)
from .elements import SOURCE_MODES, Mode, ModeTransform
from .fock import MixedState, Polynomial, PureState, places


def _pair_polynomials(transform: ModeTransform,
                      powers: tuple[tuple[int, int], ...], base: int,
                      polynomial: type) -> tuple[tuple[Mode, ...], list]:
    """The output modes of `transform` (columns on the source modes) and
    P-^k P+^j in them for each (k, j) of `powers`, keys in `base`, each a
    `polynomial`."""
    modes = tuple(sorted({m for c in SOURCE_MODES
                          for _, m in transform.columns[c]}))
    place = dict(zip(modes, places(base, len(modes))))
    ax, ay, bx, by = (polynomial.linear(transform.columns[m], place)
                      for m in SOURCE_MODES)
    minus, plus = ax * by + -(ay * bx), ax * by + ay * bx
    polys = {(0, 0): polynomial.one()}

    def power(k: int, j: int) -> Polynomial:
        # memoized: every P-^k prefix and P-^k P+^j is built once
        if (k, j) not in polys:
            polys[k, j] = (power(k, j - 1) * plus if j
                           else power(k - 1, 0) * minus)
        return polys[k, j]
    return modes, [power(k, j) for k, j in powers]


_SOURCE = ModeTransform({m: ((1.0, m),) for m in SOURCE_MODES})


def pair_power_states(powers: list[tuple[int, int]],
                      transform: ModeTransform | None = None,
                      polynomial: type = Polynomial) -> list[PureState]:
    """P-^k P+^j |0> for each (k, j) of `powers`, divided by its own norm
    (`polynomial.unit_state`).  With `transform` (columns on the source
    modes, an isometry as `compose` makes it) P-/+ are taken through it once
    and the states are built in its output modes, where each keeps its norm
    on the source modes."""
    powers = tuple((k, j) for k, j in powers)
    base = 2 * max(k + j for k, j in powers) + 1
    modes, polys = _pair_polynomials(transform or _SOURCE, powers, base,
                                     polynomial)
    return [poly.unit_state(modes, base) for poly in polys]


def n_pair_state(n: int) -> PureState:
    """Normalized n-pair state: (a_x b_y - a_y b_x)^n |vac> up to norm.

    The unnormalized operator-power expansion has norm^2 = (n+1)(n!)^2.
    """
    return pair_power_states([(n, 0)])[0]


def dephased_source(params: SpdcParams, noise: SourceNoise,
                    transform: ModeTransform | None = None,
                    polynomial: type = Polynomial) -> MixedState:
    """The mixture of `config.source_cells`, each cell's branch
    P-^(n-j) P+^j |0> by `pair_power_states`, through `transform` if given,
    built on `polynomial`.

    The one-pair branch reproduces diagonal-basis visibility V exactly.
    """
    cells = source_cells(params, noise)
    states = pair_power_states([(n - j, j) for n, j, _ in cells], transform,
                               polynomial)
    return MixedState(tuple((w, st) for (_, _, w), st in zip(cells, states)))
