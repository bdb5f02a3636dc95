"""Similarity maps of the plane as ring-field multipliers.

A map is x ↦ w·x, or x ↦ w·conj(x) for the reflection family T = R·T_r.
Its scaling factor β = |w| is never stored as a real number: it lives as a
rational multiple of the symbolic surd |z| of a primitive direction z, and
scaling-factor sets are finite unions of residue classes of such rationals.
A Similarity reads w once, when it is made, as the integers (e, a, b) of
w = (a + b·u)/e in lowest terms: Similarity.map_pairs maps integer pairs over
any denominator d to integer pairs over e·d, and the image lattice sΓ and
decompose read the same triple.  den(Γ, R), the least β with βRΓ ⊆ Γ as the
integer pair of its ratio to |z|, is read from the images of Γ's integer
basis under z's ints; a Direction holds z as ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rings import GAUSSIAN, FieldElem, over_denominator, ring_coordinates
from .lattices import Lattice


@dataclass(frozen=True)
class Similarity:
    """The map x ↦ w·x (or x ↦ w·conj(x) when conjugate is set); ints is
    (e, a, b) with w = (a + b·u)/e, e > 0 and gcd(a, b, e) = 1."""

    w: FieldElem
    conjugate: bool = False
    ints: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e, (a, b) = over_denominator((self.w.a, self.w.b))
        if a == 0 and b == 0:
            raise ValueError("similarity multiplier must be nonzero")
        object.__setattr__(self, "ints", (e, a, b))

    @property
    def ring(self) -> str:
        return self.w.ring

    def apply(self, x: FieldElem) -> FieldElem:
        return self.w * (x.conj() if self.conjugate else x)

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
        """β² as an exact rational."""
        return self.w.norm()

    def __str__(self) -> str:
        return f"x ↦ ({self.w})·{'conj(x)' if self.conjugate else 'x'}"


@dataclass(frozen=True)
class Direction:
    """An isometry z/|z| (optionally composed with conjugation), z primitive.

    No unit normalization is applied: z and iz are distinct rotations.
    """

    z: FieldElem
    conjugate: bool = False

    def __post_init__(self):
        if self.z.is_zero():
            raise ValueError("direction element must be nonzero")
        a, b = ring_coordinates(self.z)
        if math.gcd(a, b) != 1:
            raise ValueError(f"direction element {self.z} is not primitive")
        object.__setattr__(self, "z", FieldElem(self.z.ring, a, b))

    @property
    def ring(self) -> str:
        return self.z.ring

    def norm(self) -> int:
        return self.z.norm()

    def similarity(self, ratio: Fraction | int) -> Similarity:
        """The similarity with β = ratio·|z| along this direction."""
        return Similarity(self.z.scale(ratio), self.conjugate)

    def __str__(self) -> str:
        base = f"({self.z})/|{self.z}|"
        return base + ("·conj" if self.conjugate else "")


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
    return Fraction(c, e), Direction(FieldElem(s.ring, a // c, b // c), s.conjugate)


def compose(s2: Similarity, s1: Similarity) -> Similarity:
    """The map x ↦ s2(s1(x))."""
    w1 = s1.w.conj() if s2.conjugate else s1.w
    return Similarity(s2.w * w1, s2.conjugate != s1.conjugate)


def denominator(lattice: Lattice, d: Direction) -> tuple[int, int]:
    """den(Γ, R) = (a/b)·|z|, as the pair (a, b) in lowest terms.

    a/b is the least positive rational r with r·z(Γ) ⊆ Γ, z(Γ) being Γ under
    x ↦ z·x (or z·conj(x)), so the least β = r|z| with βRΓ ⊆ Γ; the r' that
    work are r·Z.  Lattice.least_scale reads r from the images of the
    integer basis of d·Γ under z's ints.  For full ring lattices r = 1.
    """
    return lattice.least_scale(_times(d.ring, d.z.a, d.z.b, d.conjugate, lattice.basis))


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

    def display(self, symbolic: bool = False) -> str:
        """Union-of-residue-classes display.

        Symbolic form writes classes against the symbol "den" (table rows);
        the concrete form substitutes |z| as a surd or collapsed integer.
        """
        if not self.classes:
            return "∅"
        parts = []
        for c in sorted(self.classes, key=lambda c: (c.q, c.modulus, min(c.residues))):
            for r in sorted(c.residues):
                if symbolic:
                    parts.append(_symbolic_class(c.q, c.modulus, r))
                else:
                    parts.append(_concrete_class(c.q, c.modulus, r, self.direction.norm()))
        return " ∪ ".join(parts)


def _symbolic_class(q: int, modulus: int, r: int) -> str:
    if r == 0:
        body = "den·Z" if modulus == 1 else f"den·{modulus}Z"
    else:
        body = f"den·({r}+{modulus}Z)"
    return body if q == 1 else f"(1/{q})·{body}"


def format_scale(ratio: Fraction, norm_z: int) -> str:
    """Display of β = ratio·√norm_z, collapsing perfect squares."""
    s = math.isqrt(norm_z)
    if s * s == norm_z:
        return str(ratio * s)
    if ratio == 1:
        return f"√{norm_z}"
    return f"{ratio}·√{norm_z}"


def _concrete_class(q: int, modulus: int, r: int, norm_z: int) -> str:
    s = math.isqrt(norm_z)
    square = s * s == norm_z
    if r == 0:
        if square:
            coeff = Fraction(modulus * s, q)
            return "Z" if coeff == 1 else f"{coeff}Z"
        lead = format_scale(Fraction(1, q), norm_z)
        return f"{lead}·Z" if modulus == 1 else f"{lead}·{modulus}Z"
    body = f"({r}+{modulus}Z)"
    if square and Fraction(s, q) == 1:
        return body
    return f"{format_scale(Fraction(1, q), norm_z)}·{body}"


def _den_ratio_classes(a: int, b: int) -> tuple[ResidueClass, ...]:
    """Classes describing the set (a/b)·Z of rationals, a/b reduced."""
    out = []
    for d in range(1, b + 1):
        if b % d == 0:
            out.append(ResidueClass(q=b // d, modulus=a, residues=frozenset({0})))
    return tuple(out)


def scal_lattice(lattice: Lattice, d: Direction) -> ScalSet:
    """Scal(Γ, R) = den(Γ, R)·Z, as residue classes of ratios of |z|."""
    return ScalSet(d, _den_ratio_classes(*denominator(lattice, d)))
