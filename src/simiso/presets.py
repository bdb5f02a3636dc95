"""The running planar examples as named packings.

These five packings are the corpus every table, figure, and acceptance
check draws on, so they are built in rather than shipped as fixtures.  A
row of PRESETS is a ring, the Hermite integers (d, b00, b01, b11) of its
lattice Γ over a denominator d, and each shift x_k as the pair d·x_k.
"""

from __future__ import annotations

import functools

from .lattices import Lattice
from .packings import PointPacking
from .rings import EISENSTEIN, GAUSSIAN

PRESETS = {
    # The 1×2 rectangular lattice as Z[i] ∪ (1/2 + Z[i]).
    "rect12": (GAUSSIAN, (2, 2, 0, 2), [(0, 0), (1, 0)]),
    # The hexagonal packing (honeycomb) Z[ω] ∪ ((2+ω)/3 + Z[ω]).
    "hex": (EISENSTEIN, (3, 3, 0, 3), [(0, 0), (2, 1)]),
    # The honeycomb translated by (2+ω)/3, its shifts moved to (2+ω)/3 and
    # (4+2ω)/3: rotation about a hexagon center.
    "hex-shifted": (EISENSTEIN, (3, 3, 0, 3), [(2, 1), (4, 2)]),
    # Z[i] viewed over the 3×1 rectangular lattice {3a+bi}, shifts 0, 1, 2.
    "ex34": (GAUSSIAN, (1, 3, 0, 1), [(0, 0), (1, 0), (2, 0)]),
    # Z[i] ∪ ((1+i)/2 + Z[i]); secretly a rotated and scaled square lattice.
    "ex22": (GAUSSIAN, (2, 2, 0, 2), [(0, 0), (1, 1)]),
}


@functools.cache
def preset(name: str) -> PointPacking:
    """The named packing, built once; PointPacking is immutable."""
    try:
        ring, gamma, pairs = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None
    return PointPacking.from_pairs(Lattice(ring, *gamma), pairs)
