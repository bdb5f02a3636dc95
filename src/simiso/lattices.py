"""Planar lattices with exact rational bases over the ring basis {1, u}.

A lattice is stored in a canonical Hermite-style form: upper-triangular
basis with positive diagonal and reduced off-diagonal entry, so two equal
lattices are syntactically equal.  Intersections go through the dual
identity (Γ₁ ∩ Γ₂)* = Γ₁* + Γ₂*, sums through a column Hermite reduction;
everything stays in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rings import FieldElem, RingMismatchError, conj_matrix, mul_matrix

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


def _hnf_columns(cols: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form (h00, h01, h11) of the lattice spanned by integer columns.

    Result basis is ((h00, 0), (h01, h11)) with h00, h11 > 0 and
    0 ≤ h01 < h00.  Raises DegenerateLatticeError on rank < 2.
    """
    lead = None  # single column with nonzero second coordinate
    rest = []  # first coordinates of columns reduced to (x, 0)
    for x, y in cols:
        if x == 0 and y == 0:
            continue
        if y == 0:
            rest.append(x)
            continue
        if lead is None:
            lead = (x, y)
            continue
        x0, y0 = lead
        g, s, t = _xgcd(y0, y)
        lead = (s * x0 + t * x, g)
        rest.append((y // g) * x0 - (y0 // g) * x)
    if lead is None:
        raise DegenerateLatticeError("generators span at most a line")
    k = 0
    for x in rest:
        k = math.gcd(k, x)
    if k == 0:
        raise DegenerateLatticeError("generators span at most a line")
    x1, g = lead
    if g < 0:
        x1, g = -x1, -g
    return k, x1 % k, g


@dataclass(frozen=True)
class Lattice:
    """A full-rank planar lattice; basis columns (b00, 0) and (b01, b11)."""

    ring: str
    b00: Fraction
    b01: Fraction
    b11: Fraction

    @classmethod
    def from_generators(cls, ring: str, generators: list[Vec]) -> Lattice:
        """Lattice spanned by the given rational coordinate pairs."""
        gens = [(Fraction(x), Fraction(y)) for x, y in generators]
        d = math.lcm(*(c.denominator for g in gens for c in g)) if gens else 1
        cols = [(int(x * d), int(y * d)) for x, y in gens]
        h00, h01, h11 = _hnf_columns(cols)
        return cls(ring, Fraction(h00, d), Fraction(h01, d), Fraction(h11, d))

    @classmethod
    def ring_lattice(cls, ring: str) -> Lattice:
        """The full ring Z[i] or Z[ω] (identity basis)."""
        return cls(ring, Fraction(1), Fraction(0), Fraction(1))

    @property
    def det(self) -> Fraction:
        return self.b00 * self.b11

    def generators(self) -> tuple[FieldElem, FieldElem]:
        g1 = FieldElem(self.ring, self.b00, Fraction(0))
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

    def contains_lattice(self, other: Lattice) -> bool:
        return all(self.contains(g) for g in other.generators())

    def point(self, t0: int | Fraction, t1: int | Fraction) -> FieldElem:
        t0, t1 = Fraction(t0), Fraction(t1)
        return FieldElem(self.ring, self.b00 * t0 + self.b01 * t1, self.b11 * t1)

    def reduce_point(self, x: FieldElem) -> FieldElem:
        """Representative of x modulo the lattice in the fundamental domain."""
        t0, t1 = self.coords_of(x)
        return self.point(t0 - math.floor(t0), t1 - math.floor(t1))

    def conjugated(self) -> Lattice:
        m00, m01, m10, m11 = conj_matrix(self.ring)
        g = []
        for x, y in ((self.b00, Fraction(0)), (self.b01, self.b11)):
            g.append((m00 * x + m01 * y, m10 * x + m11 * y))
        return Lattice.from_generators(self.ring, g)

    def dual(self) -> Lattice:
        """Dual lattice w.r.t. the standard pairing on coordinates."""
        d = self.det
        # (B⁻¹)ᵀ columns.
        c1 = (self.b11 / d, -self.b01 / d)
        c2 = (Fraction(0), self.b00 / d)
        return Lattice.from_generators(self.ring, [c1, c2])

    def __str__(self) -> str:
        g1, g2 = self.generators()
        return f"<{g1}, {g2}>"


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


def add(l1: Lattice, l2: Lattice) -> Lattice:
    """The lattice Γ₁ + Γ₂ generated by the union."""
    if l1.ring != l2.ring:
        raise RingMismatchError("sum of lattices over different rings")
    gens = [(g.a, g.b) for g in l1.generators() + l2.generators()]
    return Lattice.from_generators(l1.ring, gens)


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """The set intersection Γ₁ ∩ Γ₂ (full rank for rational bases)."""
    return add(l1.dual(), l2.dual()).dual()


def scale_by(lattice: Lattice, w: FieldElem) -> Lattice:
    """The image lattice w·Γ under multiplication by a field element."""
    if w.ring != lattice.ring:
        raise RingMismatchError("multiplier ring differs from lattice ring")
    if w.is_zero():
        raise DegenerateLatticeError("scaling a lattice by zero")
    m00, m01, m10, m11 = mul_matrix(w)
    gens = []
    for x, y in ((lattice.b00, Fraction(0)), (lattice.b01, lattice.b11)):
        gens.append((m00 * x + m01 * y, m10 * x + m11 * y))
    return Lattice.from_generators(lattice.ring, gens)


def scaling_denominator(l1: Lattice, l2: Lattice) -> int:
    """Minimal positive integer D with D·Γ₁ ⊆ Γ₂."""
    # Entries of B₂⁻¹·B₁; D is the lcm of their denominators.
    entries = []
    for x, y in ((l1.b00, Fraction(0)), (l1.b01, l1.b11)):
        t1 = y / l2.b11
        t0 = (x - l2.b01 * t1) / l2.b00
        entries += [t0, t1]
    return math.lcm(*(e.denominator for e in entries))


def quotient_representatives(sub: Lattice, sup: Lattice) -> list[FieldElem]:
    """Coset representatives of sub in sup; length equals [sup : sub]."""
    # Integer matrix K with sub = sup·K, columns in Hermite form.
    k_cols = []
    for g in sub.generators():
        t0, t1 = sup.coords_of(g)
        if t0.denominator != 1 or t1.denominator != 1:
            raise ValueError("quotient_representatives requires sub ⊆ sup")
        k_cols.append((int(t0), int(t1)))
    h00, _, h11 = _hnf_columns(k_cols)
    return [sup.point(i, j) for i in range(h00) for j in range(h11)]


def coset_intersection_point(
    l1: Lattice, l2: Lattice, v: FieldElem
) -> FieldElem | None:
    """A point of Γ₁ ∩ (v + Γ₂), or None when v ∉ Γ₁ + Γ₂.

    Solves B₁t + B₂t̃ = v over the integers, tracking the Γ₁-part of each
    column combination so the solution point comes out directly.
    """
    gens1 = [(g.a, g.b) for g in l1.generators()]
    gens2 = [(g.a, g.b) for g in l2.generators()]
    denoms = [c.denominator for g in gens1 + gens2 for c in g]
    denoms += [v.a.denominator, v.b.denominator]
    d = math.lcm(*denoms)
    zero = (Fraction(0), Fraction(0))
    cols = [(int(x * d), int(y * d), (x, y)) for x, y in gens1]
    cols += [(int(x * d), int(y * d), zero) for x, y in gens2]
    tx, ty = int(v.a * d), int(v.b * d)

    def axpy(c, p1, p2):
        return (p1[0] + c * p2[0], p1[1] + c * p2[1])

    lead = None
    rest: list[tuple[int, tuple[Fraction, Fraction]]] = []
    for x, y, p in cols:
        if y == 0:
            rest.append((x, p))
            continue
        if lead is None:
            lead = (x, y, p)
            continue
        x0, y0, p0 = lead
        g, s, t = _xgcd(y0, y)
        lead = (s * x0 + t * x, g, axpy(t, (s * p0[0], s * p0[1]), p))
        c0, c1 = y // g, -(y0 // g)
        rest.append((c0 * x0 + c1 * x, axpy(c1, (c0 * p0[0], c0 * p0[1]), p)))
    if lead is None:
        raise DegenerateLatticeError("generators span at most a line")
    kx, kp = 0, zero
    for x, p in rest:
        g, s, t = _xgcd(kx, x)
        kx, kp = g, axpy(t, (s * kp[0], s * kp[1]), p)
    if kx == 0:
        raise DegenerateLatticeError("generators span at most a line")

    x0, y0, p0 = lead
    if ty % y0 != 0:
        return None
    t_lead = ty // y0
    remainder = tx - t_lead * x0
    if remainder % kx != 0:
        return None
    t_k = remainder // kx
    px = t_lead * p0[0] + t_k * kp[0]
    py = t_lead * p0[1] + t_k * kp[1]
    return FieldElem(l1.ring, px, py)
