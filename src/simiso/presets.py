"""The running planar examples as named packings.

These five packings are the corpus every table, figure, and acceptance
check draws on, so they are built in rather than shipped as fixtures.
Each is built by PointPacking.from_pairs from integer pairs: its lattice
(the ring lattice R but for ex34) over a denominator d, and each shift x_k
as the pair d·x_k.
"""

from __future__ import annotations

import functools

from .lattices import Lattice
from .packings import PointPacking
from .rings import EISENSTEIN, GAUSSIAN


def rect12() -> PointPacking:
    """The 1×2 rectangular lattice as Z[i] ∪ (1/2 + Z[i])."""
    return PointPacking.from_pairs(Lattice.ring_lattice(GAUSSIAN).over(2), [(0, 0), (1, 0)])


def hexagonal() -> PointPacking:
    """The hexagonal packing (honeycomb) Z[ω] ∪ ((2+ω)/3 + Z[ω])."""
    return PointPacking.from_pairs(Lattice.ring_lattice(EISENSTEIN).over(3), [(0, 0), (2, 1)])


def hexagonal_shifted() -> PointPacking:
    """The honeycomb translated by (2+ω)/3, its shifts moved to (2+ω)/3 and
    (4+2ω)/3: rotation about a hexagon center."""
    return PointPacking.from_pairs(Lattice.ring_lattice(EISENSTEIN).over(3), [(2, 1), (4, 2)])


def square_over_rect31() -> PointPacking:
    """Z[i] viewed over the 3×1 rectangular lattice {3a+bi}, shifts 0, 1, 2."""
    return PointPacking.from_pairs(Lattice(GAUSSIAN, 1, 3, 0, 1), [(0, 0), (1, 0), (2, 0)])


def checkerboard() -> PointPacking:
    """Z[i] ∪ ((1+i)/2 + Z[i]); secretly a rotated and scaled square lattice."""
    return PointPacking.from_pairs(Lattice.ring_lattice(GAUSSIAN).over(2), [(0, 0), (1, 1)])


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
