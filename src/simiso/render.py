"""Deterministic SVG figures of packings and their similar subpackings.

Colors follow the conventions of the source figures: the generating
lattice component dark, other packing components gray, image components
blue/yellow/green.  Byte output is fixed for fixed inputs.  A Window is
its corners as integers over one denominator e.  render_svg puts each drawn
lattice (Γ, or sΓ for the image, which it builds itself) over one
denominator D with the window corners once, and its shifts are integer pairs
over D: the packing's residues, and s.map_pairs of them for the image.  The
circles a figure may draw are counted on those frames, and a figure above
MAX_RENDER_POINTS is refused before any point is walked.  A component is
walked column by column (points_in_window), and coordinates become floats as
a/D and b/D, the corners as c/e: int / int rounds correctly, so each equals
float() of the reduced Fraction whatever the denominator is.  Each
distinct cx and cy float is formatted once per figure, and every component
and the image share its text.  Over Z[ω], x = a/D - (b/D)/2, and each row's
offset b/D/2 is computed once per shared row list.  Legend labels print the
residues through format_pair.
"""

from __future__ import annotations

import math

from .lattices import Lattice
from .packings import PointPacking
from .rings import EISENSTEIN, format_pair
from .similarity import Similarity

PACKING_COLORS = ("#1c1c1c", "#9e9e9e", "#c96b6b", "#7c5aa8")
IMAGE_COLORS = ("#2b6cb0", "#f2c12e", "#38a169", "#d97706")
# Width of every figure in pixels; its height follows the window's aspect.
SIZE = 640
# Most circles a figure may draw, as counted on its frames before drawing.
MAX_RENDER_POINTS = 100_000

_SQRT3_2 = math.sqrt(3.0) / 2.0

# The corners x0, y0, x1, y1 as integers over one denominator e: (e, corners).
Window = tuple[int, tuple[int, int, int, int]]


def to_xy(ring: str, a: float, b: float) -> tuple[float, float]:
    """Cartesian image of the point a + b·u."""
    if ring == EISENSTEIN:
        return a - b / 2.0, b * _SQRT3_2
    return a, b


def points_in_window(lattice: Lattice, shift: tuple[int, int], corners: tuple[int, int, int, int]):
    """The points of shift + Γ in the half-open box [x0, x1) × [y0, y1) of
    ring coordinates as columns (a, [b, …]) sorted by a, each with its rows
    in ascending b, integer pairs over Γ's denominator d, for the shift and
    the corners (x0, y0, x1, y1) given over d.  Row t1 starts at
    a ≡ sa + b01·t1 (mod b00), so the rows of one residue class meet in
    every column a ≡ that residue in [x0, x1): those columns share one row
    list, which callers must not change."""
    x0, y0, x1, y1 = corners
    if x1 <= x0 or y1 <= y0:
        raise ValueError("window must have positive area")
    b00, b01, b11 = lattice.b00, lattice.b01, lattice.b11
    sa, sb = shift
    rows: dict[int, list[int]] = {}  # residue of a mod b00 -> its rows b
    for t1 in range(-((sb - y0) // b11), -((sb - y1) // b11)):  # ceilings
        rows.setdefault((sa + b01 * t1) % b00, []).append(sb + b11 * t1)
    # The a are distinct, so sorting compares no row lists.
    return sorted((a, bs) for r, bs in rows.items() for a in range(x0 + (r - x0) % b00, x1, b00))


def window_frame(lattice: Lattice, d: int, shifts, window: Window):
    """Γ, the integer pairs shifts over d, and the window corners, all over
    one denominator: the lcm of d, Γ's denominator and the corners'."""
    e, corners = window
    big = math.lcm(lattice.d, d, e)
    k, c = big // d, big // e
    return lattice.over(big), [(k * x, k * y) for x, y in shifts], tuple(c * v for v in corners)


def render_svg(packing: PointPacking, s: Similarity | None, window: Window) -> str:
    """An SVG document showing the packing and, when s is given, its image
    s(L), drawn over sΓ.  Each component walks at most ⌊Δy/b11⌋ + 1 rows of
    ⌊Δx/b00⌋ + 1 points of its frame; a sum above MAX_RENDER_POINTS, or a
    window whose corners round to one float point, raises ValueError
    before any point is walked."""
    ring, gamma = packing.ring, packing.lattice
    drawn = [(window_frame(gamma, gamma.d, packing.residues, window), PACKING_COLORS,
              '<g fill="none" stroke="{}" stroke-width="1.2">', "{}+Γ", "4.0")]
    if s is not None:
        e, images = s.map_pairs(packing.residues)
        drawn.append((window_frame(s.image_lattice(gamma), e * gamma.d, images, window),
                      IMAGE_COLORS, '<g fill="{}">', "image of {}+Γ", "2.4"))
    circles = sum(packing.m * ((y1 - y0) // g.b11 + 1) * ((x1 - x0) // g.b00 + 1)
                  for (g, _, (x0, y0, x1, y1)), *_ in drawn)
    if circles > MAX_RENDER_POINTS:
        raise ValueError(f"window takes up to {circles} circles; "
                         f"at most {MAX_RENDER_POINTS} are drawn")
    e, (x0, y0, x1, y1) = window
    corners = [to_xy(ring, cx / e, cy / e) for cx in (x0, x1) for cy in (y0, y1)]
    min_x = min(c[0] for c in corners)
    max_x = max(c[0] for c in corners)
    min_y = min(c[1] for c in corners)
    max_y = max(c[1] for c in corners)
    if max_x == min_x and max_y == min_y:
        raise ValueError("window is below float resolution: its corners round to one point")
    pad = 0.05 * max(max_x - min_x, max_y - min_y)
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    scale = SIZE / max(max_x - min_x, max_y - min_y)
    height = round((max_y - min_y) * scale)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{height}" '
        f'viewBox="0 0 {SIZE} {height}">',
        f'<rect width="{SIZE}" height="{height}" fill="white"/>',
    ]
    labels = [format_pair(ring, x, y, gamma.d) for x, y in packing.residues]
    legend: list[tuple[str, str]] = []
    # The figure's texts by float, shared by every group: cx -> '<circle
    # cx="…' and cy -> '" cy="…'.  Every drawn coordinate is at least
    # pad·scale > 0, so 0.0 and -0.0, one dict key but formatted apart, never
    # both occur.
    heads: dict[float, str] = {}
    ys: dict[float, str] = {}
    eisenstein = ring == EISENSTEIN
    stretch = _SQRT3_2 if eisenstein else 1.0
    add = lines.append
    for (lattice, shifts, box), colors, group, label, r in drawn:
        big, tail = lattice.d, f'" r="{r}"/>'
        for k, (text, shift) in enumerate(zip(labels, shifts)):
            color = colors[k % len(colors)]
            add(group.format(color))
            # id of a shared row list -> its row texts, over Z[ω] each with
            # its offset b/big/2
            ends: dict[int, list] = {}
            for a, bs in points_in_window(lattice, shift, box):
                end = ends.get(id(bs))
                if end is None:
                    end = ends[id(bs)] = []
                    for b in bs:  # y = b/big·stretch, as b/big·1.0 is b/big
                        cy = (max_y - b / big * stretch) * scale
                        sy = ys.get(cy)
                        if sy is None:
                            sy = ys[cy] = f'" cy="{cy:.2f}'
                        end.append((b / big / 2.0, sy + tail) if eisenstein else sy + tail)
                x = a / big
                if eisenstein:
                    for h, row in end:
                        cx = (x - h - min_x) * scale
                        head = heads.get(cx)
                        if head is None:
                            head = heads[cx] = f'<circle cx="{cx:.2f}'
                        add(head + row)
                else:
                    cx = (x - min_x) * scale
                    head = heads.get(cx)
                    if head is None:
                        head = heads[cx] = f'<circle cx="{cx:.2f}'
                    lines += [head + row for row in end]
            add("</g>")
            legend.append((color, label.format(text)))

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
