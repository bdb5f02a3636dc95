"""Exact arithmetic in the planar quadratic rings Z[i] and Z[ω].

Elements are coordinate pairs over the basis {1, u}, where u = i for the
Gaussian ring and u = ω = e^{2πi/3} for the Eisenstein ring.  FieldElem is
the one element type: its coordinates are exact, int or Fraction, and Python
compares and hashes the two alike, so an element of the ring Z[u] is simply
one with integer coordinates inside the field Q(u).  Elements are immutable
and all operations are pure.  No floating point appears anywhere.

The module holds what the engine uses: addition, multiplication, norm and
conjugation, and the content of a ring element.  There is no Euclidean
division: every gcd the engine needs comes from a closed form or a Hermite
form.  Every point prints through format_pair, which writes the point
(x + y·u)/d of integers x, y, d in lowest terms: FieldElem.__str__ hands it
its coordinates over their least common denominator, and the command line
hands it the integer pairs a packing or a lattice already holds, with no
Fraction between.  Documents are read straight to such pairs, so a packing
builds its shifts as FieldElems only when they are first read, and a
Similarity reads its w as integers once.  RingElem remains as a second name
of FieldElem for code written against the former integer class, such as the
benchmark's workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
RINGS = (GAUSSIAN, EISENSTEIN)

UNIT_SYMBOL = {GAUSSIAN: "i", EISENSTEIN: "ω"}


class RingMismatchError(ValueError):
    """Two operands live in different quadratic rings."""


def _check_ring(ring: str) -> None:
    if ring not in RINGS:
        raise ValueError(f"unknown ring tag {ring!r}")


def _same_ring(x, y) -> None:
    if x.ring != y.ring:
        raise RingMismatchError(f"cannot mix {x.ring} and {y.ring} elements")


@dataclass(frozen=True)
class FieldElem:
    """An element a + b·u of Q(i) or Q(ω); doubles as a point of the plane."""

    ring: str
    a: Rational
    b: Rational

    def __post_init__(self):
        _check_ring(self.ring)

    @classmethod
    def zero(cls, ring: str) -> FieldElem:
        return cls(ring, 0, 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> Rational:
        """The number-theoretic norm |x|²; non-negative, multiplicative."""
        if self.ring == GAUSSIAN:
            return self.a * self.a + self.b * self.b
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> FieldElem:
        if self.ring == GAUSSIAN:
            return FieldElem(self.ring, self.a, -self.b)
        # conj(ω) = ω² = -1-ω
        return FieldElem(self.ring, self.a - self.b, -self.b)

    def __neg__(self) -> FieldElem:
        return FieldElem(self.ring, -self.a, -self.b)

    def __add__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        return FieldElem(self.ring, self.a + other.a, self.b + other.b)

    def __sub__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        return FieldElem(self.ring, self.a - other.a, self.b - other.b)

    def __mul__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.ring == GAUSSIAN:
            return FieldElem(self.ring, a * c - b * d, a * d + b * c)
        # (a+bω)(c+dω) with ω² = -1-ω
        return FieldElem(self.ring, a * c - b * d, a * d + b * c - b * d)

    def scale(self, r: Rational) -> FieldElem:
        return FieldElem(self.ring, self.a * r, self.b * r)

    def __str__(self) -> str:
        """The text of format_pair, over the least common denominator."""
        d, (na, nb) = over_denominator((self.a, self.b))
        return format_pair(self.ring, na, nb, d)


# The former name of integral elements; perfbench/workloads.py imports it.
RingElem = FieldElem


def format_pair(ring: str, x: int, y: int, d: int) -> str:
    """The text of the point (x + y·u)/d, for integers x, y and d > 0, in
    lowest terms: x, y and d are divided by their gcd first, and a zero
    term is left out."""
    g = math.gcd(x, y, d)
    x, y, d = x // g, y // g, d // g
    sym = UNIT_SYMBOL[ring]
    upart = sym if y == 1 else "-" + sym if y == -1 else f"{y}{sym}"
    if y == 0:
        core = str(x)
    elif x == 0:
        core = upart
    else:
        core = f"{x}+{upart}" if y > 0 else f"{x}{upart}"
    if d == 1:
        return core
    return f"({core})/{d}" if x != 0 and y != 0 else f"{core}/{d}"


def over_denominator(values) -> tuple[int, list[int]]:
    """The least common denominator d of the rationals, and each one times d."""
    dens = [v.denominator for v in values]
    d = math.lcm(*dens)
    return d, [v.numerator * (d // e) for v, e in zip(values, dens)]


def ring_coordinates(x: FieldElem) -> tuple[int, int]:
    """The coordinates of x as ints; ValueError when x is not in the ring."""
    if x.a.denominator != 1 or x.b.denominator != 1:
        raise ValueError(f"{x} is not an element of the ring Z[{UNIT_SYMBOL[x.ring]}]")
    return x.a.numerator, x.b.numerator


def content_and_primitive(z: FieldElem) -> tuple[int, FieldElem]:
    """Split z ≠ 0 in the ring as c·z0 with c = gcd(a, b) > 0 and z0 primitive."""
    if z.is_zero():
        raise ValueError("zero has no primitive part")
    a, b = ring_coordinates(z)
    c = math.gcd(a, b)
    return c, FieldElem(z.ring, a // c, b // c)

