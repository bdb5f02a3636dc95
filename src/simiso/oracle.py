"""Independent brute-force verifier for packing similarity decisions.

Nothing here uses the component-counting characterization: containment of
s(L) in L is settled by sweeping one fundamental domain of a common period
lattice, which is a finite, complete proof for periodic point sets.  All
arithmetic is exact; there are no tolerances.  Γ, sΓ and the common
period are built once per call over one denominator, on which the index
count tests each candidate of a bounding box as an integer pair, the images
of the shifts taken from Similarity.map_pairs.  It holds no window code:
render enumerates the points of its figures itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import lattices
from .lattices import Lattice
from .packings import PointPacking
from .rings import FieldElem, GAUSSIAN
from .similarity import Direction, Similarity


def _period_frame(packing: PointPacking, s: Similarity) -> tuple[Lattice, Lattice, Lattice]:
    """Γ, sΓ and the common period D·Γ of L and s(L), all over sΓ's
    denominator e·d, for the least integer D with D·Γ ⊆ sΓ."""
    img = s.image_lattice(packing.lattice)
    gamma = packing.lattice.over(img.d)
    d = img.least_scale(gamma.basis)[0]
    return gamma, img, Lattice(gamma.ring, gamma.d, d * gamma.b00, d * gamma.b01, d * gamma.b11)


def certify_subpacking(packing: PointPacking, s: Similarity) -> tuple[bool, FieldElem | None]:
    """Decide s(L) ⊆ L exactly; on refutation return a point of s(L) \\ L.

    Both sets are unions of cosets of the common period lattice P, so
    checking every point of s(L) inside one fundamental domain of P is a
    complete proof of containment.
    """
    return _certify(packing, s, *_period_frame(packing, s)[1:])


def _certify(packing: PointPacking, s: Similarity, img: Lattice, period: Lattice):
    reps = lattices.quotient_representatives(period, img)
    for x_k in packing.shifts:
        base = s.apply(x_k)
        for rep in reps:
            point = base + rep
            if not packing.contains(point):
                return False, point
    return True, None


class NotContained(ValueError):
    """s(L) ⊄ L; point is the point of s(L) \\ L that certification found."""

    def __init__(self, point: FieldElem):
        super().__init__(f"s(L) is not a subpacking of L: {point} is not in L")
        self.point = point


def index_by_counting(packing: PointPacking, s: Similarity) -> Fraction:
    """Density ratio of L to s(L), counted in one fundamental domain.

    Certifies s(L) ⊆ L first and raises NotContained otherwise; the result
    always equals |w|² = β².  One frame of Γ, sΓ and the period serves both,
    and the count takes every shift and its image as integer pairs over it.
    """
    gamma, img, period = _period_frame(packing, s)
    ok, point = _certify(packing, s, img, period)
    if not ok:
        raise NotContained(point)
    e, images = s.map_pairs(packing.residues)
    shifts = [(e * x, e * y) for x, y in packing.residues]
    return Fraction(_count_in_cell(gamma, shifts, period), _count_in_cell(img, images, period))


def _count_in_cell(base: Lattice, shifts, cell: Lattice) -> int:
    """Points of ∪(x + base) inside the fundamental domain of cell, for
    base, cell and the integer pairs x over one denominator.  (X, Y) has
    coordinates (X·c11 - c01·Y, c00·Y)/(c00·c11) over cell's basis."""
    c00, c01, c11 = cell.b00, cell.b01, cell.b11
    count = 0
    for sx, sy in shifts:
        for t0, t1 in _unit_cell_preimage(base, cell, sx, sy):
            x, y = base.b00 * t0 + base.b01 * t1 + sx, base.b11 * t1 + sy
            count += 0 <= x * c11 - c01 * y < c00 * c11 and 0 <= y < c11
    return count


def _unit_cell_preimage(base: Lattice, cell: Lattice, sx: int, sy: int):
    """Integer pairs t whose point t0·(b00, 0) + t1·(b01, b11) + (sx, sy)
    of base can land in cell's unit cell."""
    # Scaled by c00·c11, the coords in cell of that point are
    # t0·(m00, m01) + t1·(m10, m11) + (k0, k1); bound each coordinate of t
    # by transporting the corners of the scaled unit square back.
    def scaled_coords(x: int, y: int) -> tuple[int, int]:
        return x * cell.b11 - cell.b01 * y, cell.b00 * y

    (m00, m01), (m10, m11) = scaled_coords(base.b00, 0), scaled_coords(base.b01, base.b11)
    k0, k1 = scaled_coords(sx, sy)
    det = m00 * m11 - m01 * m10  # > 0: both Hermite diagonals are positive
    side = cell.b00 * cell.b11
    t0s, t1s = zip(*(((u0 - k0) * m11 - (u1 - k1) * m10, (u1 - k1) * m00 - (u0 - k0) * m01)
                      for u0 in (0, side) for u1 in (0, side)))
    for t0 in range(min(t0s) // det, -(-max(t0s) // det) + 1):
        for t1 in range(min(t1s) // det, -(-max(t1s) // det) + 1):
            yield t0, t1


def scal_set_bruteforce(
    packing: PointPacking, d: Direction, p_bound: int, q_bound: int
) -> set[Fraction]:
    """All ratios p/q within bounds whose β = (p/q)|z| is certified."""
    if p_bound < 1 or q_bound < 1:
        raise ValueError("bounds must be at least 1")
    out = set()
    for q in range(1, q_bound + 1):
        for p in range(1, p_bound + 1):
            if math.gcd(p, q) != 1:
                continue
            ok, _ = certify_subpacking(packing, d.similarity(Fraction(p, q)))
            if ok:
                out.add(Fraction(p, q))
    return out


@dataclass(frozen=True)
class RandomCase:
    packing: PointPacking
    similarity: Similarity


def random_case(
    rng: random.Random,
    ring: str,
    max_norm: int = 100,
    p_bound: int = 10,
    q_bound: int = 4,
    shift_denominator: int = 6,
    max_components: int = 4,
) -> RandomCase:
    """A random packing over the ring lattice plus a random similarity.

    Used by the randomized engine/oracle equivalence sweeps; the packing
    shifts always include 0 and stay pairwise incongruent.
    """
    base = Lattice.ring_lattice(ring)
    z = _random_primitive(rng, ring, max_norm)
    while True:
        p = rng.randint(1, p_bound)
        q = rng.randint(1, q_bound)
        if math.gcd(p, q) == 1:
            break
    conjugate = rng.random() < 0.5
    s = Direction(z, conjugate).similarity(Fraction(p, q))

    m = rng.randint(1, max_components)
    shifts = [FieldElem.zero(ring)]
    while len(shifts) < m:
        den = rng.randint(1, shift_denominator)
        x = FieldElem(
            ring,
            Fraction(rng.randint(0, den - 1), den),
            Fraction(rng.randint(0, den - 1), den),
        )
        if all(not base.contains(x - y) for y in shifts):
            shifts.append(x)
    return RandomCase(PointPacking(base, tuple(shifts)), s)


def _random_primitive(rng: random.Random, ring: str, max_norm: int) -> FieldElem:
    bound = math.isqrt(max_norm) + (1 if ring == GAUSSIAN else 2)
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        e = FieldElem(ring, a, b)
        if not e.is_zero() and e.norm() <= max_norm and math.gcd(a, b) == 1:
            return e
