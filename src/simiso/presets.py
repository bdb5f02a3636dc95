"""The running planar examples as named packings.

These five packings are the corpus every table, figure, and acceptance
check draws on, so they are built in rather than shipped as fixtures.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .lattices import Lattice
from .packings import PointPacking
from .rings import EISENSTEIN, GAUSSIAN, FieldElem

F = Fraction


def rect12() -> PointPacking:
    """The 1×2 rectangular lattice as Z[i] ∪ (1/2 + Z[i])."""
    base = Lattice.ring_lattice(GAUSSIAN)
    return PointPacking(
        base,
        (FieldElem.zero(GAUSSIAN), FieldElem(GAUSSIAN, F(1, 2), 0)),
    )


def hexagonal() -> PointPacking:
    """The hexagonal packing (honeycomb) Z[ω] ∪ ((2+ω)/3 + Z[ω])."""
    base = Lattice.ring_lattice(EISENSTEIN)
    return PointPacking(
        base,
        (FieldElem.zero(EISENSTEIN), FieldElem(EISENSTEIN, F(2, 3), F(1, 3))),
    )


def hexagonal_shifted() -> PointPacking:
    """The honeycomb translated by (2+ω)/3: rotation about a hexagon center."""
    x = FieldElem(EISENSTEIN, F(2, 3), F(1, 3))
    return hexagonal().translated(x)


def square_over_rect31() -> PointPacking:
    """Z[i] viewed over the 3×1 rectangular lattice {3a+bi}, shifts 0, 1, 2."""
    base = Lattice.from_generators(GAUSSIAN, [(3, 0), (0, 1)])
    return PointPacking(
        base,
        (
            FieldElem.zero(GAUSSIAN),
            FieldElem(GAUSSIAN, 1, 0),
            FieldElem(GAUSSIAN, 2, 0),
        ),
    )


def checkerboard() -> PointPacking:
    """Z[i] ∪ ((1+i)/2 + Z[i]); secretly a rotated and scaled square lattice."""
    base = Lattice.ring_lattice(GAUSSIAN)
    return PointPacking(
        base,
        (FieldElem.zero(GAUSSIAN), FieldElem(GAUSSIAN, F(1, 2), F(1, 2))),
    )


PRESETS = {
    "rect12": rect12,
    "hex": hexagonal,
    "hex-shifted": hexagonal_shifted,
    "ex34": square_over_rect31,
    "ex22": checkerboard,
}


@functools.cache
def preset(name: str) -> PointPacking:
    """The named packing, built once; PointPacking is immutable."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None
