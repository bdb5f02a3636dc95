"""Exact constructions the tests use as independent references.

The engine no longer calls any of these: it reads n and every sum from one
Hermite form, and its gcds from closed forms.  They stay here so that the
closed forms can be checked against a different route: the intersection
through the dual identity (Γ₁ ∩ Γ₂)* = Γ₁* + Γ₂*, and the Euclidean
algorithm in Z[i] and Z[ω].  Results of the ring functions are fixed only
up to a unit.
"""

from fractions import Fraction

from simiso import lattices as lat
from simiso.lattices import Lattice
from simiso.rings import RingElem


def dual(lattice: Lattice) -> Lattice:
    """Dual lattice w.r.t. the standard pairing on coordinates: (B⁻¹)ᵀ."""
    d = lattice.det
    c1 = (lattice.b11 / d, -lattice.b01 / d)
    c2 = (Fraction(0), lattice.b00 / d)
    return Lattice.from_generators(lattice.ring, [c1, c2])


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """The set intersection Γ₁ ∩ Γ₂ (full rank for rational bases)."""
    return dual(lat.add(dual(l1), dual(l2)))


def ring_divmod(x: RingElem, y: RingElem) -> tuple[RingElem, RingElem]:
    """q, r with x = q·y + r, rounding each coordinate of x/y = x·conj(y)/N(y).

    The rounding error e has coordinates of size at most 1/2, so
    N(e) ≤ 3/4 and N(r) = N(e)·N(y) < N(y) in both rings.
    """
    t, n = x * y.conj(), y.norm()
    q = RingElem(x.ring, (2 * t.a + n) // (2 * n), (2 * t.b + n) // (2 * n))
    return q, x - q * y


def ring_gcd(x: RingElem, y: RingElem) -> RingElem:
    """A greatest common divisor by the Euclidean algorithm."""
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not y.is_zero():
        x, y = y, ring_divmod(x, y)[1]
    return x


def ring_lcm(x: RingElem, y: RingElem) -> RingElem:
    """A least common multiple, x·y / gcd(x, y)."""
    if x.is_zero() or y.is_zero():
        raise ValueError("lcm with a zero argument is undefined")
    q, r = ring_divmod(x * y, ring_gcd(x, y))
    if not r.is_zero():
        raise RuntimeError(f"gcd({x}, {y}) does not divide their product")
    return q
