"""Deterministic SVG figures of packings and their similar subpackings.

Colors follow the conventions of the source figures: the generating
lattice component dark, other packing components gray, image components
blue/yellow/green.  Byte output is fixed for fixed inputs.  Circles are
enumerated as integer pairs over a common denominator d of the window, the
shift and Γ, and become floats once, as a/d: int / int rounds correctly, so
it equals float() of the reduced Fraction.  circle_bound caps that walk
before any figure is drawn.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattices import Lattice
from .packings import PointPacking
from .rings import EISENSTEIN, FieldElem
from .similarity import Similarity

PACKING_COLORS = ("#1c1c1c", "#9e9e9e", "#c96b6b", "#7c5aa8")
IMAGE_COLORS = ("#2b6cb0", "#f2c12e", "#38a169", "#d97706")

_SQRT3_2 = math.sqrt(3.0) / 2.0

Window = tuple[Fraction, Fraction, Fraction, Fraction]


def to_xy(ring: str, a: float, b: float) -> tuple[float, float]:
    """Cartesian image of the point a + b·u."""
    if ring == EISENSTEIN:
        return a - b / 2.0, b * _SQRT3_2
    return a, b


def points_in_window(lattice: Lattice, shift: FieldElem, window: Window):
    """The points of shift + Γ in the half-open box [x0, x1) × [y0, y1) of
    ring coordinates, sorted, as float pairs (a/d, b/d) over {1, u}."""
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise ValueError("window must have positive area")
    corners = (FieldElem(lattice.ring, x0, y0), FieldElem(lattice.ring, x1, y1))
    g, [(x0, y0), (x1, y1), (sa, sb)] = lattice.with_points((*corners, shift))
    d, b00, b01, b11 = g.d, g.b00, g.b01, g.b11
    out = []
    for t1 in range(-((sb - y0) // b11), -((sb - y1) // b11)):  # ceilings
        a0, b = sa + b01 * t1, sb + b11 * t1
        for t0 in range(-((a0 - x0) // b00), -((a0 - x1) // b00)):
            out.append((a0 + b00 * t0, b))
    out.sort()
    return [(a / d, b / d) for a, b in out]


def circle_bound(packing: PointPacking, image: Lattice | None, window: Window) -> int:
    """The most circles render_svg draws: each component walks at most
    ⌊h/b11⌋ + 1 rows of ⌊w/b00⌋ + 1 points of Γ (and of the image lattice
    sΓ, when given), b11 and b00 over d."""
    x0, y0, x1, y1 = window
    drawn = [packing.lattice] + ([image] if image else [])
    return sum(packing.m * ((y1 - y0) * g.d // g.b11 + 1) * ((x1 - x0) * g.d // g.b00 + 1)
               for g in drawn)


def render_svg(
    packing: PointPacking,
    s: Similarity | None,
    image: Lattice | None,
    window: Window,
    size: int = 640,
) -> str:
    """An SVG document showing the packing and, when s is given, its image
    s(L), drawn over the image lattice image = sΓ."""
    ring = packing.ring
    x0, y0, x1, y1 = window
    corners = [to_xy(ring, float(cx), float(cy)) for cx in (x0, x1) for cy in (y0, y1)]
    min_x = min(c[0] for c in corners)
    max_x = max(c[0] for c in corners)
    min_y = min(c[1] for c in corners)
    max_y = max(c[1] for c in corners)
    pad = 0.05 * max(max_x - min_x, max_y - min_y)
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    scale = size / max(max_x - min_x, max_y - min_y)
    height = round((max_y - min_y) * scale)

    def circles(lattice: Lattice, shift: FieldElem, r: str) -> list[str]:
        points = (to_xy(ring, *p) for p in points_in_window(lattice, shift, window))
        return [f'<circle cx="{(x - min_x) * scale:.2f}" '
                f'cy="{(max_y - y) * scale:.2f}" r="{r}"/>' for x, y in points]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{height}" '
        f'viewBox="0 0 {size} {height}">',
        f'<rect width="{size}" height="{height}" fill="white"/>',
    ]
    legend: list[tuple[str, str]] = []

    for k, x_k in enumerate(packing.shifts):
        color = PACKING_COLORS[k % len(PACKING_COLORS)]
        lines.append(f'<g fill="none" stroke="{color}" stroke-width="1.2">')
        lines += circles(packing.lattice, x_k, "4.0")
        lines.append("</g>")
        legend.append((color, f"{x_k}+Γ"))

    if s is not None:
        for k, x_k in enumerate(packing.shifts):
            color = IMAGE_COLORS[k % len(IMAGE_COLORS)]
            lines.append(f'<g fill="{color}">')
            lines += circles(image, s.apply(x_k), "2.4")
            lines.append("</g>")
            legend.append((color, f"image of {x_k}+Γ"))

    ly = 16
    for color, label in legend:
        lines.append(f'<circle cx="12" cy="{ly - 4}" r="4.0" fill="{color}"/>')
        lines.append(
            f'<text x="22" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )
        ly += 16
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
