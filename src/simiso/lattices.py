"""Planar lattices with exact rational bases over the ring basis {1, u}.

A lattice is stored in a canonical Hermite-style form: upper-triangular
basis with positive diagonal and reduced off-diagonal entry, so two equal
lattices are syntactically equal.  Every lattice built from generators, and
so every sum Γ₁ + Γ₂ and image wΓ, comes from one column Hermite reduction
of integer columns (Cohen, GTM 138, §2.4), and an index is a ratio of
determinants; no dual lattice is formed.  Grid is a lattice written over
one denominator d as the integer lattice d·Γ, on which a residue mod Γ
costs two floor divisions and a membership two divisibility tests; the
packings keep their shifts on it.  Grid.least_scale answers every question
r·X ⊆ Γ (den(Γ, R), the lift's c, the oracle's D): the r that work are the
multiples of one least r, read from the integer coordinates of X over Γ.
SumLattice keeps one integer form of Γ₁ + Γ₂ for many coset problems:
[Γ₁ + Γ₂ : Γ₁] = [Γ₂ : Γ₁ ∩ Γ₂] comes from its determinant, and each
membership v ∈ Γ₁ + Γ₂, with a point of Γ₁ ∩ (v + Γ₂), costs two
divisibility tests and no Fraction.  The same form answers the Scal
congruences: the p with p·a - x ∈ Γ₁ + Γ₂ are one residue class, solved on
its two integer columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rings import FieldElem, RingMismatchError, over_denominator

Vec = tuple[Fraction, Fraction]


class DegenerateLatticeError(ValueError):
    """Generators fail to span the plane."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s·a + t·b = g = gcd(a, b) ≥ 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


Column = tuple[int, int, int, int]


def _hnf_columns(cols: list[Column]) -> tuple[Column, Column]:
    """Hermite form of the lattice spanned by integer columns (x, y, p, r).

    Returns the basis columns (h00, 0, p, r) and (h01, h11, p, r) with
    h00, h11 > 0 and 0 ≤ h01 < h00.  Elimination reads x and y only and
    applies the same integer operations to the tails (p, r), so each result
    tail records how its column combines the input tails.  Raises
    DegenerateLatticeError on rank < 2.
    """
    lead = None  # single column with nonzero second coordinate
    rest = []  # columns reduced to (x, 0, p, r)
    for col in cols:
        if col[1] == 0:
            rest.append(col)
            continue
        if lead is None:
            lead = col
            continue
        (x0, y0, p0, r0), (x, y, p, r) = lead, col
        g, s, t = _xgcd(y0, y)
        a, b = y // g, -(y0 // g)
        rest.append((a * x0 + b * x, 0, a * p0 + b * p, a * r0 + b * r))
        lead = (s * x0 + t * x, g, s * p0 + t * p, s * r0 + t * r)
    if lead is None:
        raise DegenerateLatticeError("generators span at most a line")
    kx, kp, kr = 0, 0, 0
    for x, _, p, r in rest:
        if x:
            kx, s, t = _xgcd(kx, x)
            kp, kr = s * kp + t * p, s * kr + t * r
    if kx == 0:
        raise DegenerateLatticeError("generators span at most a line")
    x1, y1, p1, r1 = lead if lead[1] > 0 else (-c for c in lead)
    c = x1 // kx
    return (kx, 0, kp, kr), (x1 - c * kx, y1, p1 - c * kp, r1 - c * kr)


@dataclass(frozen=True)
class Lattice:
    """A full-rank planar lattice; basis columns (b00, 0) and (b01, b11)."""

    ring: str
    b00: Fraction
    b01: Fraction
    b11: Fraction

    @classmethod
    def from_generators(cls, ring: str, generators: list[Vec]) -> Lattice:
        """Lattice spanned by the given coordinate pairs of ints or Fractions."""
        d, ints = over_denominator([c for g in generators for c in g])
        return Grid.spanned(d, zip(ints[::2], ints[1::2])).lattice(ring)

    @classmethod
    def ring_lattice(cls, ring: str) -> Lattice:
        """The full ring Z[i] or Z[ω] (identity basis)."""
        return cls(ring, Fraction(1), Fraction(0), Fraction(1))

    @property
    def det(self) -> Fraction:
        return self.b00 * self.b11

    def generators(self) -> tuple[FieldElem, FieldElem]:
        g1 = FieldElem(self.ring, self.b00, 0)
        g2 = FieldElem(self.ring, self.b01, self.b11)
        return g1, g2

    def is_ring_lattice(self) -> bool:
        return self.b00 == 1 and self.b01 == 0 and self.b11 == 1

    def coords_of(self, x: FieldElem) -> Vec:
        """Solve B·t = coords(x); the lattice contains x iff t is integral."""
        if x.ring != self.ring:
            raise RingMismatchError(f"{x.ring} point in {self.ring} lattice")
        t1 = x.b / self.b11
        t0 = (x.a - self.b01 * t1) / self.b00
        return t0, t1

    def contains(self, x: FieldElem) -> bool:
        t0, t1 = self.coords_of(x)
        return t0.denominator == 1 and t1.denominator == 1

    def point(self, t0: int | Fraction, t1: int | Fraction) -> FieldElem:
        return FieldElem(self.ring, self.b00 * t0 + self.b01 * t1, self.b11 * t1)

    def __str__(self) -> str:
        g1, g2 = self.generators()
        return f"<{g1}, {g2}>"


@dataclass(frozen=True)
class Grid:
    """A lattice Γ over one denominator d: the integer lattice d·Γ ⊂ Z², with
    Hermite basis (b00, 0) and (b01, b11), on which a point x of Q(u)
    is the integer pair d·x when d clears its denominators.  Questions mod Γ
    are then integer arithmetic: reduce gives the canonical residue and
    contains the membership."""

    d: int
    b00: int
    b01: int
    b11: int

    @classmethod
    def of(cls, lattice: Lattice, points) -> tuple[Grid, list[tuple[int, int]]]:
        """Γ and the points over their least common denominator, with d·x for
        each point x in the order given."""
        for x in points:
            if x.ring != lattice.ring:
                raise RingMismatchError(f"{x.ring} point in {lattice.ring} lattice")
        coords = [lattice.b00, lattice.b01, lattice.b11]
        coords += [c for x in points for c in (x.a, x.b)]
        d, (b00, b01, b11, *xy) = over_denominator(coords)
        return cls(d, b00, b01, b11), list(zip(xy[::2], xy[1::2]))

    @classmethod
    def spanned(cls, d: int, vectors) -> Grid:
        """The lattice spanned by integer pairs over d, in Hermite form."""
        (b00, *_), (b01, b11, *_) = _hnf_columns([(x, y, 0, 0) for x, y in vectors])
        return cls(d, b00, b01, b11)

    def lattice(self, ring: str) -> Lattice:
        return Lattice(ring, Fraction(self.b00, self.d), Fraction(self.b01, self.d),
                       Fraction(self.b11, self.d))

    def element(self, ring: str, x: int, y: int) -> FieldElem:
        """The point of Q(u) that the integer pair (x, y) stands for."""
        return FieldElem(ring, Fraction(x, self.d), Fraction(y, self.d))

    def reduce(self, x: int, y: int) -> tuple[int, int]:
        """The residue of (x, y) mod d·Γ in the half-open cell
        {s·(b00, 0) + t·(b01, b11) : 0 ≤ s, t < 1}."""
        t, y = divmod(y, self.b11)
        x -= t * self.b01
        return x - self.b00 * ((x * self.b11 - self.b01 * y) // (self.b00 * self.b11)), y

    def contains(self, x: int, y: int) -> bool:
        return y % self.b11 == 0 and (x - y // self.b11 * self.b01) % self.b00 == 0

    def least_scale(self, points) -> tuple[int, int]:
        """(a, b) in lowest terms for the least r = a/b > 0 with r·x ∈ d·Γ
        for every integer pair x given.  The coordinates of (x, y) over the
        basis are (x·b11 - b01·y, b00·y)/(b00·b11), so with g the gcd of
        these numerators the r that work are exactly (b00·b11/g)·Z."""
        det = self.b00 * self.b11
        g = math.gcd(*(c for x, y in points for c in (x * self.b11 - self.b01 * y, self.b00 * y)))
        if g == 0:
            raise ValueError("least_scale needs a nonzero point")
        h = math.gcd(det, g)
        return det // h, g // h


def index(sub: Lattice, sup: Lattice) -> Fraction:
    """Covolume ratio [sup : sub]; a positive integer when sub ⊆ sup."""
    if sub.ring != sup.ring:
        raise RingMismatchError("index of lattices over different rings")
    return abs(sub.det) / abs(sup.det)


def integer_index(sub: Lattice, sup: Lattice) -> int:
    n = index(sub, sup)
    if n.denominator != 1:
        raise ValueError(f"{sub} is not a sublattice of {sup}")
    return int(n)


def least_scale(lattice: Lattice, points) -> Fraction:
    """Least r > 0 with r·x in the lattice for every given point x."""
    grid, xy = Grid.of(lattice, points)
    return Fraction(*grid.least_scale(xy))


def quotient_representatives(sub: Lattice, sup: Lattice) -> list[FieldElem]:
    """Coset representatives of sub in sup; length equals [sup : sub]."""
    # Integer matrix K with sub = sup·K, columns in Hermite form.
    k_cols = []
    for g in sub.generators():
        t0, t1 = sup.coords_of(g)
        if t0.denominator != 1 or t1.denominator != 1:
            raise ValueError("quotient_representatives requires sub ⊆ sup")
        k_cols.append((int(t0), int(t1), 0, 0))
    (h00, *_), (_, h11, *_) = _hnf_columns(k_cols)
    return [sup.point(i, j) for i in range(h00) for j in range(h11)]


@dataclass(frozen=True)
class SumLattice:
    """Γ₁ + Γ₂ as one integer Hermite form, for many coset problems at once.

    of() writes Γ₁, Γ₂ and the given points over one common denominator d:
    points holds each d·x as an integer pair, in the order given, and det1
    is det(d·Γ₁).  The columns k = (h00, 0, …) and lead = (h01, h11, …) span
    d·(Γ₁ + Γ₂); their last two entries are the coefficients, over Γ₁'s
    basis, of the Γ₁-part of each column, so a solution names a point of Γ₁.
    """

    det1: int
    k: Column
    lead: Column
    points: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, l1: Lattice, l2: Lattice, points) -> SumLattice:
        """The sum Γ₁ + Γ₂, scaled to clear the denominators of the points."""
        if l1.ring != l2.ring:
            raise RingMismatchError("sum of lattices over different rings")
        coords = [l1.b00, l1.b01, l1.b11, l2.b00, l2.b01, l2.b11]
        coords += [c for x in points for c in (x.a, x.b)]
        _, (a00, a01, a11, c00, c01, c11, *xy) = over_denominator(coords)
        # Columns in the order Γ₁'s basis, then Γ₂'s, which fixes the witness.
        cols = [(a00, 0, 1, 0), (a01, a11, 0, 1), (c00, 0, 0, 0), (c01, c11, 0, 0)]
        k, lead = _hnf_columns(cols)
        return cls(a00 * a11, k, lead, tuple(zip(xy[::2], xy[1::2])))

    def index(self) -> int:
        """[Γ₁ + Γ₂ : Γ₁] = det Γ₁ / det(Γ₁ + Γ₂), which is [Γ₂ : Γ₁ ∩ Γ₂]."""
        return self.det1 // (self.k[0] * self.lead[1])

    def solve(self, vx: int, vy: int) -> tuple[int, int] | None:
        """Γ₁-coefficients of a point of Γ₁ ∩ (v + Γ₂) for d·v = (vx, vy),
        or None when v ∉ Γ₁ + Γ₂."""
        x1, y1, p0, p1 = self.lead
        if vy % y1:
            return None
        t = vy // y1
        r = vx - t * x1
        kx, _, q0, q1 = self.k
        if r % kx:
            return None
        u = r // kx
        return t * p0 + u * q0, t * p1 + u * q1

    def congruence(
        self, a: tuple[int, int], x: tuple[int, int]
    ) -> tuple[int, int] | None:
        """(r, o) with p·a - x ∈ Γ₁ + Γ₂ exactly when p ≡ r (mod o), for d·a
        and d·x given, or None when no p solves; o is the order of a.  First
        y₁ | p·a_y - x_y, then k_x | p·a_x - x_x - t·x₁ for the quotient t."""
        x1, y1, *_ = self.lead
        kx = self.k[0]
        g = math.gcd(a[1], y1)
        if x[1] % g:
            return None
        step = y1 // g
        p0 = x[1] // g * pow(a[1] // g, -1, step) % step
        t0 = (p0 * a[1] - x[1]) // y1
        c = step * a[0] - a[1] // g * x1
        e = p0 * a[0] - x[0] - t0 * x1
        h = math.gcd(c, kx)
        if e % h:
            return None
        period = kx // h
        u = -(e // h) * pow(c // h, -1, period) % period
        return (p0 + step * u) % (step * period), step * period
