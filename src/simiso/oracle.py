"""Independent brute-force verifier for packing similarity decisions.

Nothing here uses the component-counting characterization: containment of
s(L) in L is settled by sweeping one fundamental domain of a common period
lattice, which is a finite, complete proof for periodic point sets.  All
arithmetic is exact rational; there are no tolerances.  It holds no window
code: render enumerates the points of its figures itself.
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


def _common_period(packing: PointPacking, s: Similarity) -> Lattice:
    """A lattice of periods shared by L and s(L): D·Γ with D·Γ ⊆ sΓ."""
    img = s.image_lattice(packing.lattice)
    base = packing.lattice
    d = lattices.least_scale(img, base.generators()).numerator
    return Lattice(base.ring, base.d, d * base.b00, d * base.b01, d * base.b11)


def certify_subpacking(
    packing: PointPacking, s: Similarity
) -> tuple[bool, FieldElem | None]:
    """Decide s(L) ⊆ L exactly; on refutation return a point of s(L) \\ L.

    Both sets are unions of cosets of the common period lattice P, so
    checking every point of s(L) inside one fundamental domain of P is a
    complete proof of containment.
    """
    period = _common_period(packing, s)
    img = s.image_lattice(packing.lattice)
    reps = lattices.quotient_representatives(period, img)
    for x_k in packing.shifts:
        base = s.apply(x_k)
        for rep in reps:
            point = base + rep
            if not packing.contains(point):
                return False, point
    return True, None


def index_by_counting(packing: PointPacking, s: Similarity) -> Fraction:
    """Density ratio of L to s(L), counted in one fundamental domain.

    Requires s(L) ⊆ L (certified); the result always equals |w|² = β².
    """
    ok, _ = certify_subpacking(packing, s)
    if not ok:
        raise ValueError("s(L) is not a subpacking of L")
    period = _common_period(packing, s)
    count_l = _count_in_cell(packing.lattice, packing.shifts, period)
    img = s.image_lattice(packing.lattice)
    count_img = _count_in_cell(img, tuple(s.apply(x) for x in packing.shifts), period)
    return Fraction(count_l, count_img)


def _count_in_cell(
    base: Lattice, shifts: tuple[FieldElem, ...], cell: Lattice
) -> int:
    """Points of ∪(x + base) inside the fundamental domain of cell."""
    count = 0
    for x in shifts:
        count += sum(
            1
            for t0, t1 in _unit_cell_preimage(base, cell, x)
            if _in_unit_square(cell.coords_of(base.point(t0, t1) + x))
        )
    return count


def _unit_cell_preimage(base: Lattice, cell: Lattice, x: FieldElem):
    """Integer pairs t whose image point can land in cell's unit cell."""
    # coords in cell of base.point(t) + x are affine in t; bound each
    # coordinate of t by transporting the unit square corners back.
    m00, m01 = cell.coords_of(base.point(1, 0) - base.point(0, 0))
    m10, m11 = cell.coords_of(base.point(0, 1) - base.point(0, 0))
    # cell coords = t0*(m00,m01) + t1*(m10,m11) + c
    c0, c1 = cell.coords_of(x)
    det = m00 * m11 - m01 * m10
    t_corners = []
    for u0 in (0, 1):
        for u1 in (0, 1):
            r0, r1 = Fraction(u0) - c0, Fraction(u1) - c1
            t_corners.append(
                (
                    (r0 * m11 - r1 * m10) / det,
                    (r1 * m00 - r0 * m01) / det,
                )
            )
    lo0 = math.floor(min(t[0] for t in t_corners))
    hi0 = math.ceil(max(t[0] for t in t_corners))
    lo1 = math.floor(min(t[1] for t in t_corners))
    hi1 = math.ceil(max(t[1] for t in t_corners))
    for t0 in range(lo0, hi0 + 1):
        for t1 in range(lo1, hi1 + 1):
            yield t0, t1


def _in_unit_square(coords: tuple[Fraction, Fraction]) -> bool:
    return 0 <= coords[0] < 1 and 0 <= coords[1] < 1


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
