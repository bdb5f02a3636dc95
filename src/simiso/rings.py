"""Exact arithmetic in the planar quadratic rings Z[i] and Z[ω].

Elements are coordinate pairs over the basis {1, u}, where u = i for the
Gaussian ring and u = ω = e^{2πi/3} for the Eisenstein ring.  FieldElem is
the one element type: its coordinates are exact, int or Fraction, and Python
compares and hashes the two alike, so an element of the ring Z[u] is simply
one with integer coordinates inside the field Q(u).  Elements are immutable
and all operations are pure.  No floating point appears anywhere.

The module holds what the engine uses: addition, multiplication,
conjugation, and the norm, which pair_norm also gives for bare coordinates.
There is no Euclidean division: every gcd the engine needs comes from a
closed form or a Hermite form.  Every point prints through format_pair,
which writes the point (x + y·u)/d of integers x, y, d in lowest terms:
FieldElem.__str__ hands it its coordinates over their least common
denominator, and the command line hands it the integer pairs a packing, a
lattice, a similarity or a direction already holds, with no Fraction
between.  Documents are read straight to such integers, so a packing builds
its shifts, and a Similarity its w, as FieldElems only when they are first
read.  RingElem remains as a second name of FieldElem for code written
against the former integer class, such as the benchmark's workloads.
Value, the one base of every immutable value class of the package, is here.
"""

from __future__ import annotations

import math
from numbers import Rational

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
RINGS = (GAUSSIAN, EISENSTEIN)

UNIT_SYMBOL = {GAUSSIAN: "i", EISENSTEIN: "ω"}


class RingMismatchError(ValueError):
    """Two operands live in different quadratic rings."""


def check_ring(ring: str) -> None:
    if ring not in RINGS:
        raise ValueError(f"unknown ring tag {ring!r}")


def _same_ring(x, y) -> None:
    if x.ring != y.ring:
        raise RingMismatchError(f"cannot mix {x.ring} and {y.ring} elements")


class Value:
    """An immutable value: Value.__new__ sets its slots once, in order (the
    base classes' first), and no slot is set or deleted after.  It is equal
    and hashed on _key(), by default its slots, and copied, pickled and
    printed as the call _made_by() names, by default Cls(slot, …)."""

    __slots__ = ()
    _names: tuple[str, ...] = ()  # per class: the slots in order, with _setters

    def __init_subclass__(cls):
        cls._names = (*cls._names, *vars(cls).get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._names)

    def __new__(cls, *values):
        if len(values) != len(cls._setters):
            raise TypeError(f"{cls.__name__} takes {len(cls._setters)} values, not {len(values)}")
        value = object.__new__(cls)
        for set_slot, slot in zip(cls._setters, values):
            set_slot(value, slot)
        return value

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def _made_by(self):
        return type(self), Value._key(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self._made_by()

    def __repr__(self) -> str:
        maker, args = self._made_by()
        return f"{maker.__qualname__}({', '.join(map(repr, args))})"


class FieldElem(Value):
    """An element a + b·u of Q(i) or Q(ω); doubles as a point of the plane.
    The arithmetic takes checked operands' ring, so skips check_ring."""

    __slots__ = ("ring", "a", "b")

    def __new__(cls, ring: str, a: Rational, b: Rational) -> FieldElem:
        check_ring(ring)
        return Value.__new__(cls, ring, a, b)

    @classmethod
    def zero(cls, ring: str) -> FieldElem:
        return cls(ring, 0, 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> Rational:
        """The number-theoretic norm |x|²; non-negative, multiplicative."""
        return pair_norm(self.ring, self.a, self.b)

    def conj(self) -> FieldElem:
        if self.ring == GAUSSIAN:
            return Value.__new__(FieldElem, self.ring, self.a, -self.b)
        # conj(ω) = ω² = -1-ω
        return Value.__new__(FieldElem, self.ring, self.a - self.b, -self.b)

    def __neg__(self) -> FieldElem:
        return Value.__new__(FieldElem, self.ring, -self.a, -self.b)

    def __add__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        return Value.__new__(FieldElem, self.ring, self.a + other.a, self.b + other.b)

    def __sub__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        return Value.__new__(FieldElem, self.ring, self.a - other.a, self.b - other.b)

    def __mul__(self, other: FieldElem) -> FieldElem:
        _same_ring(self, other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.ring == GAUSSIAN:
            return Value.__new__(FieldElem, self.ring, a * c - b * d, a * d + b * c)
        # (a+bω)(c+dω) with ω² = -1-ω
        return Value.__new__(FieldElem, self.ring, a * c - b * d, a * d + b * c - b * d)

    def scale(self, r: Rational) -> FieldElem:
        return Value.__new__(FieldElem, self.ring, self.a * r, self.b * r)

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


def pair_norm(ring: str, a: Rational, b: Rational) -> Rational:
    """The norm |a + b·u|² of the coordinates a, b."""
    if ring == GAUSSIAN:
        return a * a + b * b
    return a * a - a * b + b * b


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

