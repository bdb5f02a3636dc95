"""Similarity maps of the plane as ring-field multipliers.

A map is x ↦ w·x, or x ↦ w·conj(x) for the reflection family T = R·T_r.
Its scaling factor β = |w| is never stored as a real number: it lives as a
rational multiple of the symbolic surd |z| of a primitive direction z, and
scaling-factor sets are finite unions of residue classes of such rationals.
A Similarity is the integer triple (e, a, b) of w = (a + b·u)/e in lowest
terms, made by Similarity.from_ints; Similarity(w) reads a FieldElem w
over its least common denominator.  Similarity.map_pairs maps integer
pairs over any denominator d to integer pairs over e·d, and the image
lattice sΓ, decompose, compose and β² read the same triple.  A Direction
holds z = a + b·u as its integer pair, Direction.similarity(p/q) is the
triple (q, p·a, p·b), and the Scal sweep maps by z's ints alone (_times),
so neither builds a Fraction.
den(Γ, R), the least β with βRΓ ⊆ Γ as the integer pair of its ratio to
|z|, is read from the images of Γ's integer basis under z's ints.
One printer, _class_text, writes a residue class against "den" or |z|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rings import (GAUSSIAN, FieldElem, RingMismatchError, check_ring, format_pair,
                    over_denominator, pair_norm, ring_coordinates)
from .lattices import Lattice


class Value:
    """An immutable value, its slots set once by _made: equal and hashed on
    _key(), and copied, pickled and printed as the call _made_by() names."""

    __slots__ = ()

    @classmethod
    def _made(cls, **slots):
        value = object.__new__(cls)
        for name, slot in slots.items():
            object.__setattr__(value, name, slot)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        name, args = self._made_by()
        return getattr(type(self), name), args

    def __repr__(self) -> str:
        name, args = self._made_by()
        return f"{type(self).__name__}.{name}({', '.join(map(repr, args))})"


class _IntegerMap(Value):
    """A map held as a ring, a tuple of ints and a conjugate flag."""

    __slots__ = ("ring", "ints", "conjugate")

    def _key(self):
        return self.ring, self.ints, self.conjugate

    def _made_by(self):
        return "from_ints", (self.ring, *self.ints, self.conjugate)


class Similarity(_IntegerMap):
    """The map x ↦ w·x (or x ↦ w·conj(x) when conjugate is set); ints is
    (e, a, b) with w = (a + b·u)/e, e > 0 and gcd(a, b, e) = 1.

    from_ints is the one constructor that canonicalises; Similarity(w,
    conjugate) reads the FieldElem w over its least common denominator and
    calls it.  w is built from ints each time it is read.
    """

    __slots__ = ()

    def __new__(cls, w: FieldElem, conjugate: bool = False) -> Similarity:
        e, (a, b) = over_denominator((w.a, w.b))
        return cls.from_ints(w.ring, e, a, b, conjugate)

    @classmethod
    def from_ints(cls, ring: str, e: int, a: int, b: int, conjugate: bool = False) -> Similarity:
        """The similarity with w = (a + b·u)/e for integers a, b and e ≠ 0,
        written in lowest terms over e > 0."""
        check_ring(ring)
        if a == 0 and b == 0:
            raise ValueError("similarity multiplier must be nonzero")
        if e == 0:
            raise ValueError("similarity denominator must be nonzero")
        g = math.gcd(e, a, b) if e > 0 else -math.gcd(e, a, b)
        return cls._made(ring=ring, ints=(e // g, a // g, b // g), conjugate=conjugate)

    @property
    def w(self) -> FieldElem:
        e, a, b = self.ints
        return FieldElem(self.ring, Fraction(a, e), Fraction(b, e))

    def map_pairs(self, points) -> tuple[int, list[tuple[int, int]]]:
        """e, the denominator of w, and the images of integer pairs over any d
        as integer pairs over e·d."""
        e, a, b = self.ints
        return e, _times(self.ring, a, b, self.conjugate, points)

    def image_lattice(self, lattice: Lattice) -> Lattice:
        """sΓ over e·d, e the denominator of w: the images of the integer
        basis of d·Γ span e·d·sΓ."""
        e, images = self.map_pairs(lattice.basis)
        return Lattice.spanned(lattice.ring, e * lattice.d, images)

    def scale_sq(self) -> Fraction:
        """β² = N(a + b·u)/e² as an exact rational."""
        e, a, b = self.ints
        return Fraction(pair_norm(self.ring, a, b), e * e)

    def __str__(self) -> str:
        e, a, b = self.ints
        return f"x ↦ ({format_pair(self.ring, a, b, e)})·{'conj(x)' if self.conjugate else 'x'}"


class Direction(_IntegerMap):
    """An isometry z/|z| (optionally composed with conjugation), z primitive,
    held as the integer pair ints = (a, b) of z = a + b·u.

    from_ints is the one constructor that checks; Direction(z, conjugate)
    reads a FieldElem z with integer coordinates and calls it.  No unit
    normalization is applied: z and iz are distinct rotations.
    """

    __slots__ = ()

    def __new__(cls, z: FieldElem, conjugate: bool = False) -> Direction:
        return cls.from_ints(z.ring, *ring_coordinates(z), conjugate)

    @classmethod
    def from_ints(cls, ring: str, a: int, b: int, conjugate: bool = False) -> Direction:
        """The direction of z = a + b·u, for integers a, b with gcd 1."""
        check_ring(ring)
        if a == 0 and b == 0:
            raise ValueError("direction element must be nonzero")
        if math.gcd(a, b) != 1:
            raise ValueError(f"direction element {format_pair(ring, a, b, 1)} is not primitive")
        return cls._made(ring=ring, ints=(a, b), conjugate=conjugate)

    def norm(self) -> int:
        return pair_norm(self.ring, *self.ints)

    def similarity(self, ratio: Fraction | int) -> Similarity:
        """The similarity with β = ratio·|z| along this direction: w is
        (p·a + p·b·u)/q for ratio = p/q."""
        a, b = self.ints
        p = ratio.numerator
        return Similarity.from_ints(self.ring, ratio.denominator, p * a, p * b, self.conjugate)

    def __str__(self) -> str:
        z = format_pair(self.ring, *self.ints, 1)
        return f"({z})/|{z}|" + ("·conj" if self.conjugate else "")


def _times(ring: str, a: int, b: int, conjugate: bool, points) -> list[tuple[int, int]]:
    """The products (a + b·u)·x, or (a + b·u)·conj(x), of integer pairs x:
    FieldElem.__mul__ on ints."""
    gaussian = ring == GAUSSIAN
    if conjugate:
        points = [(x, -y) if gaussian else (x - y, -y) for x, y in points]
    c = 0 if gaussian else b  # ω² = -1 - ω adds -b·y to the u coordinate
    return [(a * x - b * y, a * y + b * x - c * y) for x, y in points]


def decompose(s: Similarity) -> tuple[Fraction, Direction]:
    """Split s as w = r·z with r = p/q > 0 in lowest terms and z primitive:
    with w = (a + b·u)/e, r = gcd(a, b)/e, as gcd(a, b, e) = 1."""
    e, a, b = s.ints
    c = math.gcd(a, b)
    return Fraction(c, e), Direction.from_ints(s.ring, a // c, b // c, s.conjugate)


def compose(s2: Similarity, s1: Similarity) -> Similarity:
    """The map x ↦ s2(s1(x)): w2·w1, or w2·conj(w1) when s2 conjugates,
    over e2·e1."""
    if s1.ring != s2.ring:
        raise RingMismatchError(f"cannot mix {s2.ring} and {s1.ring} elements")
    e2, a2, b2 = s2.ints
    e1, a1, b1 = s1.ints
    [(a, b)] = _times(s2.ring, a2, b2, s2.conjugate, [(a1, b1)])
    return Similarity.from_ints(s2.ring, e2 * e1, a, b, s2.conjugate != s1.conjugate)


def denominator(lattice: Lattice, d: Direction) -> tuple[int, int]:
    """den(Γ, R) = (a/b)·|z|, as the pair (a, b) in lowest terms.

    a/b is the least positive rational r with r·z(Γ) ⊆ Γ, z(Γ) being Γ under
    x ↦ z·x (or z·conj(x)), so the least β = r|z| with βRΓ ⊆ Γ; the r' that
    work are r·Z.  Lattice.least_scale reads r from the images of the
    integer basis of d·Γ under z's ints.  For full ring lattices r = 1.
    """
    return lattice.least_scale(_times(d.ring, *d.ints, d.conjugate, lattice.basis))


@dataclass(frozen=True)
class ResidueClass:
    """The rationals {p/q : p ≡ r (mod modulus) for r ∈ residues, gcd(p,q)=1}."""

    q: int
    modulus: int
    residues: frozenset[int]

    def contains_ratio(self, ratio: Fraction) -> bool:
        return (
            ratio.denominator == self.q
            and ratio.numerator % self.modulus in self.residues
        )

    def display(self, norm_z: int | None = None) -> str:
        """Its residues in order, joined by ∪: written against the symbol
        "den" (table cells) when norm_z is None, else with |z| = √norm_z; a square
        N(z) collapses a class to kZ only at q = 1, where every p is prime to q."""
        q = self.q
        if norm_z is None:
            lead, unit = ("den" if q == 1 else f"(1/{q})·den"), None
        else:
            s = math.isqrt(norm_z)
            root, unit = (str(s), s) if s * s == norm_z else (f"√{norm_z}", None)
            lead, unit = (root, unit) if q == 1 else (f"1/{q}·{root}", None)
        return " ∪ ".join(_class_text(lead, unit, self.modulus, r) for r in sorted(self.residues))


@dataclass(frozen=True)
class ScalSet:
    """A scaling-factor set: rational multiples of the symbolic surd |z|.

    classes describe which ratios p/q occur; an element of the set is
    (p/q)·|z| for any admitted reduced fraction.  Empty classes mean the
    direction admits no scaling factor at all.
    """

    direction: Direction
    classes: tuple[ResidueClass, ...]

    def is_empty(self) -> bool:
        return not self.classes

    def contains_ratio(self, ratio: Fraction | int) -> bool:
        return any(c.contains_ratio(ratio) for c in self.classes)

    def min_positive_ratio(self) -> Fraction | None:
        """The ratio of den(L, R) = ratio·|z|, or None when empty."""
        best = None
        for c in self.classes:
            for r in c.residues:
                start = r if r > 0 else c.modulus
                for k in range(c.q):
                    p = start + k * c.modulus
                    if math.gcd(p, c.q) == 1:
                        cand = Fraction(p, c.q)
                        if best is None or cand < best:
                            best = cand
                        break
        return best

    def display(self) -> str:
        """Union-of-residue-classes display, with |z| substituted as a surd
        or collapsed integer; a table cell writes one class against the
        symbol "den" instead (ResidueClass.display)."""
        if not self.classes:
            return "∅"
        norm_z = self.direction.norm()
        classes = sorted(self.classes, key=lambda c: (c.q, c.modulus, min(c.residues)))
        return " ∪ ".join(c.display(norm_z) for c in classes)


def format_scale(ratio: Fraction, norm_z: int) -> str:
    """Display of β = ratio·√norm_z, collapsing perfect squares."""
    s = math.isqrt(norm_z)
    if s * s == norm_z:
        return str(ratio * s)
    if ratio == 1:
        return f"√{norm_z}"
    return f"{ratio}·√{norm_z}"


def _class_text(lead: str, unit: int | None, modulus: int, r: int) -> str:
    """The class (r + modulus·Z)·lead of one residue r; unit is lead's value
    when it is an integer over q = 1, so that r = 0 collapses to a multiple
    of Z and a unit lead is left out."""
    if r:
        body = f"({r}+{modulus}Z)"
        return body if unit == 1 else f"{lead}·{body}"
    if unit is not None:
        return "Z" if (coeff := unit * modulus) == 1 else f"{coeff}Z"
    return f"{lead}·Z" if modulus == 1 else f"{lead}·{modulus}Z"


def scal_lattice(lattice: Lattice, d: Direction) -> ScalSet:
    """Scal(Γ, R) = den(Γ, R)·Z for den = (a/b)·|z|: the p/q in (a/b)·Z are
    the multiples p of a over each divisor q of b."""
    a, b = denominator(lattice, d)
    return ScalSet(d, tuple(ResidueClass(b // k, a, frozenset({0}))
                            for k in range(1, b + 1) if b % k == 0))
