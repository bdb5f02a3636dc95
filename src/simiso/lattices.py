"""Planar lattices over the ring basis {1, u}, held as integers.

A lattice Γ is the integer lattice d·Γ ⊂ Z² over one denominator d, with a
canonical upper-triangular Hermite basis, on which a point x is the pair
d·x, a residue mod Γ costs two floor divisions and a membership two
divisibility tests.  Every lattice built from generators, and so every sum
Γ₁ + Γ₂ and image wΓ, comes from one column Hermite reduction of integer
columns (Cohen, GTM 138, §2.4), and an index is a ratio of integer
determinants.  Lattice.least_scale answers every question r·X ⊆ Γ
(den(Γ, R), the lift's c, the oracle's D): the r that work are the
multiples of one least r, read from the integer coordinates of X over Γ.
The coset representatives of a sublattice are integer pairs over the d of
both lattices.  Lattice.congruence reads the p with p·a - x ∈ Γ (a Scal
congruence, on the sweep's frame S = R + sR) as one residue class, from
the Hermite basis alone.  SumLattice serves check_similarity only: it keeps
one integer form of Γ₁ + Γ₂, for Γ₁, Γ₂ and integer pairs over one d, whose
columns carry the Γ₁-coefficients the decision's witnesses need;
[Γ₁ + Γ₂ : Γ₁] = [Γ₂ : Γ₁ ∩ Γ₂] is read from its determinant, and u - v ∈
Γ₁ + Γ₂ when u and v share a residue (two floor divisions each).  A
Fraction is built only to hand back a point or an index.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .rings import FieldElem, RingMismatchError, format_pair, over_denominator


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
    # kp, kr start anywhere: the first nonzero x meets kx = 0, where _xgcd gives s = 0.
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


@dataclass(frozen=True, eq=False)
class Lattice:
    """A full-rank planar lattice Γ written over a denominator d: the integer
    lattice d·Γ ⊂ Z² with Hermite basis (b00, 0) and (b01, b11), where
    b00, b11 > 0 and 0 ≤ b01 < b00.  A point x of Q(u) whose denominators
    divide d is the integer pair d·x, so questions mod Γ are integer
    arithmetic.  Equality and hash compare the lattice, not d."""

    ring: str
    d: int
    b00: int
    b01: int
    b11: int

    @classmethod
    def from_generators(cls, ring: str, generators: list[tuple[Fraction, Fraction]]) -> Lattice:
        """Lattice spanned by coordinate pairs, over their least denominator."""
        d, ints = over_denominator([c for g in generators for c in g])
        return cls.spanned(ring, d, zip(ints[::2], ints[1::2]))

    @classmethod
    def spanned(cls, ring: str, d: int, vectors) -> Lattice:
        """The lattice spanned by integer pairs over d, in Hermite form."""
        (b00, *_), (b01, b11, *_) = _hnf_columns([(x, y, 0, 0) for x, y in vectors])
        return cls(ring, d, b00, b01, b11)

    @classmethod
    def ring_lattice(cls, ring: str) -> Lattice:
        """The full ring Z[i] or Z[ω] (identity basis)."""
        return cls(ring, 1, 1, 0, 1)

    def _least(self) -> tuple[str, int, int, int, int]:  # the fields over the least d
        g = math.gcd(self.d, self.b00, self.b01, self.b11)
        return self.ring, self.d // g, self.b00 // g, self.b01 // g, self.b11 // g

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self._least() == other._least()

    def __hash__(self) -> int:
        return hash(self._least())

    def over(self, d: int) -> Lattice:
        """The same lattice written over d, a multiple of its denominator."""
        k, rest = divmod(d, self.d)
        if rest:
            raise ValueError(f"{d} is not a multiple of the denominator {self.d}")
        return self if k == 1 else Lattice(self.ring, d, k * self.b00, k * self.b01, k * self.b11)

    def with_points(self, points) -> tuple[Lattice, list[tuple[int, int]]]:
        """The lattice and the points over their least common denominator D:
        the lattice rewritten over D, and D·x for each point x in order."""
        for x in points:
            if x.ring != self.ring:
                raise RingMismatchError(f"{x.ring} point in {self.ring} lattice")
        e, ints = over_denominator([c for x in points for c in (x.a, x.b)])
        lattice = self.over(math.lcm(self.d, e))
        f = lattice.d // e
        return lattice, [(f * x, f * y) for x, y in zip(ints[::2], ints[1::2])]

    @property
    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The Hermite basis of d·Γ as integer pairs over d."""
        return (self.b00, 0), (self.b01, self.b11)

    def element(self, x: int, y: int) -> FieldElem:
        """The point of Q(u) that the integer pair (x, y) over d stands for."""
        return FieldElem(self.ring, Fraction(x, self.d), Fraction(y, self.d))

    def reduce(self, x: int, y: int) -> tuple[int, int]:
        """The residue of (x, y) mod d·Γ in the half-open cell
        {s·(b00, 0) + t·(b01, b11) : 0 ≤ s, t < 1}."""
        t, y = divmod(y, self.b11)
        x -= t * self.b01
        return x - self.b00 * ((x * self.b11 - self.b01 * y) // (self.b00 * self.b11)), y

    def contains_pair(self, x: int, y: int) -> bool:
        """Whether the integer pair (x, y) over d lies in d·Γ."""
        return y % self.b11 == 0 and (x - y // self.b11 * self.b01) % self.b00 == 0

    def congruence(self, a: tuple[int, int], x: tuple[int, int]) -> tuple[int, int] | None:
        """(r, o) with p·a - x ∈ d·Γ exactly when p ≡ r (mod o), for integer
        pairs a and x over d, or None when no p solves; o is the order of a
        mod Γ.  First b11 | p·a_y - x_y, then b00 | p·a_x - x_x - t·b01 for
        the quotient t."""
        b00, b01, b11 = self.b00, self.b01, self.b11
        g = math.gcd(a[1], b11)
        if x[1] % g:
            return None
        step = b11 // g
        p0 = x[1] // g * pow(a[1] // g, -1, step) % step
        t0 = (p0 * a[1] - x[1]) // b11
        c = step * a[0] - a[1] // g * b01
        e = p0 * a[0] - x[0] - t0 * b01
        h = math.gcd(c, b00)
        if e % h:
            return None
        period = b00 // h
        u = -(e // h) * pow(c // h, -1, period) % period
        return (p0 + step * u) % (step * period), step * period

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

    def contains(self, x: FieldElem) -> bool:
        g, [xy] = self.with_points((x,))
        return g.contains_pair(*xy)

    def __str__(self) -> str:
        g1, g2 = (format_pair(self.ring, x, y, self.d) for x, y in self.basis)
        return f"<{g1}, {g2}>"


def index(sub: Lattice, sup: Lattice) -> Fraction:
    """Covolume ratio [sup : sub]; a positive integer when sub ⊆ sup."""
    if sub.ring != sup.ring:
        raise RingMismatchError("index of lattices over different rings")
    return Fraction(sub.b00 * sub.b11 * sup.d * sup.d, sup.b00 * sup.b11 * sub.d * sub.d)


def quotient_representatives(sub: Lattice, sup: Lattice) -> Iterator[tuple[int, int]]:
    """Coset representatives of sub in sup, for both over one d, as integer
    pairs over d, [sup : sub] of them.  Both bases are triangular, so
    i·(b00, 0) + j·(b01, b11) of sup, for i and j below the ratios of the
    Hermite diagonals, are one point per coset, i-major.  The lattices are
    checked at the call and the pairs made as they are read, so a caller
    that turns each into a point never holds all the pairs as well."""
    if sub.d != sup.d:
        raise ValueError(f"lattices over denominators {sub.d} and {sup.d}")
    if not (sup.contains_pair(sub.b00, 0) and sup.contains_pair(sub.b01, sub.b11)):
        raise ValueError("quotient_representatives requires sub ⊆ sup")
    rows, cols = sub.b00 // sup.b00, sub.b11 // sup.b11
    return ((i * sup.b00 + j * sup.b01, j * sup.b11) for i in range(rows) for j in range(cols))


@dataclass(frozen=True)
class SumLattice:
    """Γ₁ + Γ₂ as one integer Hermite form, for check_similarity's coset problems.

    Γ₁ and Γ₂ are over one denominator d, every point it is asked about is
    an integer pair over d, and det1 is det(d·Γ₁).  The columns
    k = (h00, 0, …) and lead = (h01, h11, …) span d·(Γ₁ + Γ₂); their last
    two entries are the coefficients, over Γ₁'s basis, of the Γ₁-part of
    each column, so a reduction names a point of Γ₁.
    """

    det1: int
    k: Column
    lead: Column

    @classmethod
    def of(cls, l1: Lattice, l2: Lattice) -> SumLattice:
        """The sum Γ₁ + Γ₂ of two lattices over one denominator d."""
        if l1.ring != l2.ring:
            raise RingMismatchError("sum of lattices over different rings")
        if l1.d != l2.d:
            raise ValueError(f"lattices over denominators {l1.d} and {l2.d}")
        # Columns in the order Γ₁'s basis, then Γ₂'s, which fixes the witness.
        cols = [(l1.b00, 0, 1, 0), (l1.b01, l1.b11, 0, 1), (l2.b00, 0, 0, 0), (l2.b01, l2.b11, 0, 0)]
        k, lead = _hnf_columns(cols)
        return cls(l1.b00 * l1.b11, k, lead)

    def index(self) -> int:
        """[Γ₁ + Γ₂ : Γ₁] = det Γ₁ / det(Γ₁ + Γ₂), which is [Γ₂ : Γ₁ ∩ Γ₂]."""
        return self.det1 // (self.k[0] * self.lead[1])

    def reduce(self, vx: int, vy: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The residue of d·v = (vx, vy) in the cell of Lattice.reduce on
        d·(Γ₁ + Γ₂), and the Γ₁-coefficients of v minus it; for v, v' of one
        residue their difference names a point of Γ₁ ∩ (v - v' + Γ₂)."""
        x1, y1, p0, p1 = self.lead
        kx, _, q0, q1 = self.k
        t, y = divmod(vy, y1)
        x = vx - t * x1
        u = (x * y1 - x1 * y) // (kx * y1)
        return (x - u * kx, y), (t * p0 + u * q0, t * p1 + u * q1)
