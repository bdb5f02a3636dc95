"""Exact constructions the tests use as independent references.

The engine no longer calls any of these: it reads n and every sum from one
Hermite form, its gcds from closed forms, every image lattice from the
images of two generators, and every "r·X ⊆ Γ" question from
lattices.least_scale.  They stay here so that those routes can be checked
against a different one: the intersection through the dual identity
(Γ₁ ∩ Γ₂)* = Γ₁* + Γ₂*, the Euclidean algorithm in Z[i] and Z[ω], and 2×2
matrices of multiplication and conjugation over {1, u}.  Results of the
ring functions are fixed only up to a unit.
"""

import math
from fractions import Fraction

from simiso import lattices as lat
from simiso.lattices import Lattice
from simiso.rings import GAUSSIAN, RingElem


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


def mul_matrix(w):
    """Matrix (m00, m01, m10, m11) of multiplication by w over basis {1, u}."""
    p, q = w.a, w.b
    if w.ring == GAUSSIAN:
        return p, -q, q, p
    return p, -q, q, p - q


def conj_matrix(ring):
    """Matrix of complex conjugation over basis {1, u}."""
    if ring == GAUSSIAN:
        return 1, 0, 0, -1
    return 1, -1, 0, -1


def _mapped(lattice, m):
    """The lattice spanned by the basis under the 2×2 matrix m."""
    m00, m01, m10, m11 = m
    cols = ((lattice.b00, Fraction(0)), (lattice.b01, lattice.b11))
    gens = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in cols]
    return Lattice.from_generators(lattice.ring, gens)


def image_lattice(s, lattice):
    """sΓ by matrices: conjugate Γ (one Hermite form), then multiply by w."""
    base = _mapped(lattice, conj_matrix(lattice.ring)) if s.conjugate else lattice
    return _mapped(base, mul_matrix(s.w))


def denominator(lattice, d):
    """den(Γ, R) as r in den = r·|z|: the least positive rational making
    r·B⁻¹·M_z·(M_conj)·B integral."""
    m = mul_matrix(d.z.to_field())
    if d.conjugate:
        c = conj_matrix(lattice.ring)
        m = (
            m[0] * c[0] + m[1] * c[2],
            m[0] * c[1] + m[1] * c[3],
            m[2] * c[0] + m[3] * c[2],
            m[2] * c[1] + m[3] * c[3],
        )
    entries = []
    for x, y in (
        (m[0] * lattice.b00, m[2] * lattice.b00),
        (m[0] * lattice.b01 + m[1] * lattice.b11, m[2] * lattice.b01 + m[3] * lattice.b11),
    ):
        t1 = Fraction(y) / lattice.b11
        t0 = (Fraction(x) - lattice.b01 * t1) / lattice.b00
        entries += [t0, t1]
    big_d = math.lcm(*(e.denominator for e in entries))
    g = math.gcd(*(int(e * big_d) for e in entries))
    return Fraction(big_d, g)


def scaling_denominator(l1, l2):
    """Minimal positive integer D with D·Γ₁ ⊆ Γ₂: the lcm of the
    denominators of the entries of B₂⁻¹·B₁."""
    entries = []
    for x, y in ((l1.b00, Fraction(0)), (l1.b01, l1.b11)):
        t1 = y / l2.b11
        t0 = (x - l2.b01 * t1) / l2.b00
        entries += [t0, t1]
    return math.lcm(*(e.denominator for e in entries))


def lift_scale(gamma):
    """The least rational c with c·R ⊆ Γ, from the Hermite entries: the lcm
    of b00, b11 and, when b01 ≠ 0, |b00·b11/b01|."""
    gens = [gamma.b00, gamma.b11] + ([abs(gamma.det / gamma.b01)] if gamma.b01 else [])
    return Fraction(
        math.lcm(*(g.numerator for g in gens)), math.gcd(*(g.denominator for g in gens))
    )


def contains_lattice(sup, sub):
    """Whether sub ⊆ sup, by testing both generators of sub."""
    return all(sup.contains(g) for g in sub.generators())
