"""Exact plane arithmetic kept apart from simiso, for checking its outputs.

Points are pairs (a, b) of Fractions meaning a + b·u over the basis {1, u},
u = i (Gaussian) or u = ω (Eisenstein).  A lattice is given by any two
basis vectors; membership is decided by solving for integral coordinates.
Nothing here imports simiso.
"""

from __future__ import annotations

import math
from fractions import Fraction

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"

ZERO = (Fraction(0), Fraction(0))


def vec(a, b) -> tuple[Fraction, Fraction]:
    return Fraction(a), Fraction(b)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def scale(x, r):
    return x[0] * r, x[1] * r


def mul(ring, x, y):
    a, b = x
    c, d = y
    if ring == GAUSSIAN:
        return a * c - b * d, a * d + b * c
    return a * c - b * d, a * d + b * c - b * d  # ω² = -1 - ω


def conj(ring, x):
    a, b = x
    if ring == GAUSSIAN:
        return a, -b
    return a - b, -b  # conj(ω) = -1 - ω


def norm(ring, x):
    a, b = x
    if ring == GAUSSIAN:
        return a * a + b * b
    return a * a - a * b + b * b


def div(ring, x, y):
    n = norm(ring, y)
    c = conj(ring, y)
    return mul(ring, x, (c[0] / n, c[1] / n))


class Sim:
    """x ↦ w·x, or x ↦ w·conj(x) when reflect is set."""

    def __init__(self, ring: str, w, reflect: bool):
        self.ring, self.w, self.reflect = ring, vec(*w), reflect

    def apply(self, x):
        return mul(self.ring, self.w, conj(self.ring, x) if self.reflect else x)

    def preimage(self, y):
        x = div(self.ring, y, self.w)
        return conj(self.ring, x) if self.reflect else x

    def norm(self) -> Fraction:
        return norm(self.ring, self.w)


class Basis:
    """The lattice Z·g1 + Z·g2 for rational points g1, g2."""

    def __init__(self, g1, g2):
        self.g1, self.g2 = vec(*g1), vec(*g2)
        self.det = self.g1[0] * self.g2[1] - self.g2[0] * self.g1[1]
        if self.det == 0:
            raise ValueError("degenerate basis")

    def coords(self, x):
        t0 = (x[0] * self.g2[1] - self.g2[0] * x[1]) / self.det
        t1 = (self.g1[0] * x[1] - x[0] * self.g1[1]) / self.det
        return t0, t1

    def point(self, t0, t1):
        return add(scale(self.g1, Fraction(t0)), scale(self.g2, Fraction(t1)))

    def contains(self, x) -> bool:
        t0, t1 = self.coords(x)
        return t0.denominator == 1 and t1.denominator == 1

    def reduce(self, x):
        t0, t1 = self.coords(x)
        return self.point(t0 - math.floor(t0), t1 - math.floor(t1))

    def image(self, s: Sim) -> Basis:
        return Basis(s.apply(self.g1), s.apply(self.g2))

    def contains_basis(self, other: Basis) -> bool:
        return self.contains(other.g1) and self.contains(other.g2)


RING_BASIS = Basis((1, 0), (0, 1))


def in_packing(basis: Basis, shifts, x) -> bool:
    return any(basis.contains(sub(x, s)) for s in shifts)


def count_in_window(basis: Basis, shift, window) -> int:
    """Points of shift + basis in the half-open box [x0, x1) × [y0, y1)."""
    x0, y0, x1, y1 = window
    corners = [basis.coords(sub((cx, cy), shift)) for cx in (x0, x1) for cy in (y0, y1)]
    lo0 = math.floor(min(c[0] for c in corners))
    hi0 = math.ceil(max(c[0] for c in corners))
    lo1 = math.floor(min(c[1] for c in corners))
    hi1 = math.ceil(max(c[1] for c in corners))
    count = 0
    for t0 in range(lo0, hi0 + 1):
        for t1 in range(lo1, hi1 + 1):
            p = add(shift, basis.point(t0, t1))
            if x0 <= p[0] < x1 and y0 <= p[1] < y1:
                count += 1
    return count


def parse_elem(text: str):
    """Read simiso's display of a + b·u: "3", "-ω", "1-2i", "(2+ω)/3", "ω/2"."""
    body, den = text, 1
    if "/" in text:
        body, _, d = text.rpartition("/")
        den = int(d)
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
    if body[-1:] in ("i", "ω"):
        body = body[:-1]
        cut = max(body.rfind("+"), body.rfind("-"))
        a_txt, b_txt = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
        b = {"": 1, "+": 1, "-": -1}.get(b_txt)
        if b is None:
            b = int(b_txt)
        return Fraction(int(a_txt), den), Fraction(b, den)
    return Fraction(int(body), den), Fraction(0)


def fmt(x) -> list[str]:
    return [str(x[0]), str(x[1])]
