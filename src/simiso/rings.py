"""Exact arithmetic in the planar quadratic rings Z[i] and Z[ω].

Elements are coordinate pairs over the basis {1, u}, where u = i for the
Gaussian ring and u = ω = e^{2πi/3} for the Eisenstein ring.  RingElem has
integer coordinates, FieldElem rational ones; both are immutable and all
operations are pure.  No floating point appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _format_combo(a, b, sym: str) -> str:
    # a + b*u with integer or rational a, b; omits zero terms.
    if b == 0:
        return str(a)
    if b == 1:
        upart = sym
    elif b == -1:
        upart = "-" + sym
    else:
        upart = f"{b}{sym}"
    if a == 0:
        return upart
    sign = "+" if b > 0 else ""
    return f"{a}{sign}{upart}"


@dataclass(frozen=True)
class RingElem:
    """An element a + b·u of Z[i] or Z[ω]."""

    ring: str
    a: int
    b: int

    def __post_init__(self):
        _check_ring(self.ring)

    @classmethod
    def zero(cls, ring: str) -> RingElem:
        return cls(ring, 0, 0)

    @classmethod
    def one(cls, ring: str) -> RingElem:
        return cls(ring, 1, 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def norm(self) -> int:
        """The number-theoretic norm |x|²; non-negative, multiplicative."""
        if self.ring == GAUSSIAN:
            return self.a * self.a + self.b * self.b
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> RingElem:
        if self.ring == GAUSSIAN:
            return RingElem(self.ring, self.a, -self.b)
        # conj(ω) = ω² = -1-ω
        return RingElem(self.ring, self.a - self.b, -self.b)

    def __neg__(self) -> RingElem:
        return RingElem(self.ring, -self.a, -self.b)

    def __add__(self, other: RingElem) -> RingElem:
        _same_ring(self, other)
        return RingElem(self.ring, self.a + other.a, self.b + other.b)

    def __sub__(self, other: RingElem) -> RingElem:
        _same_ring(self, other)
        return RingElem(self.ring, self.a - other.a, self.b - other.b)

    def __mul__(self, other: RingElem) -> RingElem:
        _same_ring(self, other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.ring == GAUSSIAN:
            return RingElem(self.ring, a * c - b * d, a * d + b * c)
        # (a+bω)(c+dω) with ω² = -1-ω
        return RingElem(self.ring, a * c - b * d, a * d + b * c - b * d)

    def to_field(self) -> FieldElem:
        return FieldElem(self.ring, Fraction(self.a), Fraction(self.b))

    def __str__(self) -> str:
        return _format_combo(self.a, self.b, UNIT_SYMBOL[self.ring])


@dataclass(frozen=True)
class FieldElem:
    """An element a + b·u of Q(i) or Q(ω); doubles as a point of the plane."""

    ring: str
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_ring(self.ring)
        # Normalize so equality and hashing see reduced Fractions even when
        # callers pass ints.
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def zero(cls, ring: str) -> FieldElem:
        return cls(ring, Fraction(0), Fraction(0))

    @classmethod
    def one(cls, ring: str) -> FieldElem:
        return cls(ring, Fraction(1), Fraction(0))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> Fraction:
        if self.ring == GAUSSIAN:
            return self.a * self.a + self.b * self.b
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> FieldElem:
        if self.ring == GAUSSIAN:
            return FieldElem(self.ring, self.a, -self.b)
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
        return FieldElem(self.ring, a * c - b * d, a * d + b * c - b * d)

    def inverse(self) -> FieldElem:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero field element")
        c = self.conj()
        return FieldElem(self.ring, c.a / n, c.b / n)

    def __truediv__(self, other: FieldElem) -> FieldElem:
        return self * other.inverse()

    def scale(self, r: Fraction | int) -> FieldElem:
        r = Fraction(r)
        return FieldElem(self.ring, self.a * r, self.b * r)

    def clear_denominators(self) -> tuple[int, RingElem]:
        """Minimal positive n and ring element r with self = r / n."""
        n = math.lcm(self.a.denominator, self.b.denominator)
        return n, RingElem(self.ring, int(self.a * n), int(self.b * n))

    def to_ring(self) -> RingElem:
        if self.a.denominator != 1 or self.b.denominator != 1:
            raise ValueError(f"{self} has non-integer coordinates")
        return RingElem(self.ring, int(self.a), int(self.b))

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def __str__(self) -> str:
        d = math.lcm(self.a.denominator, self.b.denominator)
        na, nb = int(self.a * d), int(self.b * d)
        core = _format_combo(na, nb, UNIT_SYMBOL[self.ring])
        if d == 1:
            return core
        if na != 0 and nb != 0:
            return f"({core})/{d}"
        return f"{core}/{d}"


def units(ring: str) -> tuple[RingElem, ...]:
    """All units of the ring: 4 for Z[i], 6 for Z[ω]."""
    _check_ring(ring)
    if ring == GAUSSIAN:
        coords = ((1, 0), (0, 1), (-1, 0), (0, -1))
    else:
        # ±1, ±ω, ±(1+ω); note 1+ω = -ω².
        coords = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    return tuple(RingElem(ring, a, b) for a, b in coords)


def canonical_associate(z: RingElem) -> RingElem:
    """The canonical unit multiple of z, used to normalize gcd/lcm outputs.

    For Z[i] it is the associate with a > 0 and b ≥ 0.  For Z[ω] that sector
    spans two of the six associates, so the condition is sharpened to
    a > 0 and 0 ≤ b < a, a half-open 60° sector hit exactly once.
    """
    if z.is_zero():
        raise ValueError("zero has no canonical associate")
    if z.ring == GAUSSIAN:
        good = [c for u in units(z.ring) if (c := z * u).a > 0 and c.b >= 0]
    else:
        good = [c for u in units(z.ring) if (c := z * u).a > 0 and 0 <= c.b < c.a]
    if len(good) != 1:
        raise RuntimeError(f"{z} has {len(good)} canonical associates")
    return good[0]


def ring_divmod(x: RingElem, y: RingElem) -> tuple[RingElem, RingElem]:
    """Euclidean division: q, r with x = q·y + r and norm(r) < norm(y)."""
    _same_ring(x, y)
    if y.is_zero():
        raise ZeroDivisionError("ring division by zero")
    t = x.to_field() / y.to_field()
    qa = math.floor(t.a + Fraction(1, 2))
    qb = math.floor(t.b + Fraction(1, 2))
    q = RingElem(x.ring, qa, qb)
    r = x - q * y
    if r.norm() >= y.norm():
        raise RuntimeError(f"remainder {r} of {x} by {y} is not smaller")
    return q, r


def ring_gcd(x: RingElem, y: RingElem) -> RingElem:
    """Greatest common divisor, normalized to the canonical associate."""
    _same_ring(x, y)
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not y.is_zero():
        _, r = ring_divmod(x, y)
        x, y = y, r
    return canonical_associate(x)


def exact_div(x: RingElem, y: RingElem) -> RingElem:
    """x / y, raising if y does not divide x exactly."""
    q = x.to_field() / y.to_field()
    return q.to_ring()


def ring_lcm(x: RingElem, y: RingElem) -> RingElem:
    """Least common multiple, normalized to the canonical associate."""
    _same_ring(x, y)
    if x.is_zero() or y.is_zero():
        raise ValueError("lcm with a zero argument is undefined")
    g = ring_gcd(x, y)
    return canonical_associate(exact_div(x * y, g))


def content_and_primitive(z: RingElem) -> tuple[int, RingElem]:
    """Split z ≠ 0 as c·z0 with c = gcd(a, b) > 0 and z0 primitive."""
    if z.is_zero():
        raise ValueError("zero has no primitive part")
    c = math.gcd(z.a, z.b)
    return c, RingElem(z.ring, z.a // c, z.b // c)


def mul_matrix(w: FieldElem) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Matrix (m00, m01, m10, m11) of multiplication by w over basis {1, u}."""
    p, q = w.a, w.b
    if w.ring == GAUSSIAN:
        return p, -q, q, p
    return p, -q, q, p - q


def conj_matrix(ring: str) -> tuple[int, int, int, int]:
    """Matrix of complex conjugation over basis {1, u}."""
    _check_ring(ring)
    if ring == GAUSSIAN:
        return 1, 0, 0, -1
    return 1, -1, 0, -1
