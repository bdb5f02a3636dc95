"""Independent brute-force verifier for packing similarity decisions.

Nothing here uses the component-counting characterization: containment of
s(L) in L is settled by sweeping one fundamental domain of a common period
lattice, which is a finite, complete proof for periodic point sets.  All
arithmetic is exact; there are no tolerances.  Γ, sΓ and the common
period P are built once per walk over one denominator, and the walk's
m²·[sΓ : P] membership tests are counted on that frame: a call over
MAX_POINTS is refused before it tests any point.  Certification counts,
per pair (k, j), the tested points of s(x_k) + sΓ that land in x_j + Γ,
from which the correspondence τ and the index n follow without the
engine's characterization.  It holds no window code: render enumerates
the points of its figures itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import lattices
from .lattices import Lattice
from .packings import PointPacking
from .rings import FieldElem, GAUSSIAN, pair_norm
from .similarity import Direction, Similarity

# Most membership tests one call lets the oracle make, summed over its walks.
MAX_POINTS = 100_000


def _period_frame(packing: PointPacking, s: Similarity) -> tuple[Lattice, Lattice, Lattice]:
    """Γ, sΓ and the common period D·Γ of L and s(L), all over sΓ's
    denominator e·d, for the least integer D with D·Γ ⊆ sΓ."""
    img = s.image_lattice(packing.lattice)
    gamma = packing.lattice.over(img.d)
    d = img.least_scale(gamma.basis)[0]
    return gamma, img, Lattice(gamma.ring, gamma.d, d * gamma.b00, d * gamma.b01, d * gamma.b11)


def _check_walk(packing: PointPacking, frames) -> None:
    """Refuse walks over the frames (Γ, sΓ, P) of more than MAX_POINTS
    membership tests in all: _certify tests the [sΓ : P] representatives
    of each of the m image components against up to m components."""
    points = sum(packing.m ** 2 * lattices.index(period, img) for _, img, period in frames)
    if points > MAX_POINTS:
        raise ValueError(f"the oracle would test about {math.ceil(points)} points; "
                         f"at most {MAX_POINTS} are allowed")


def certify_subpacking(packing: PointPacking, s: Similarity) -> tuple[bool, FieldElem | None]:
    """Whether s(L) ⊆ L, and on refutation the point of s(L) \\ L that
    index_by_counting found."""
    try:
        index_by_counting(packing, s)
    except NotContained as refuted:
        return False, refuted.point
    return True, None


def _certify(packing: PointPacking, s: Similarity, img: Lattice, period: Lattice):
    """c_kj for each (k, j) with c_kj > 0: how many of the tested points
    s(x_k) + r, r over sΓ/P, lie in x_j + Γ; NotContained at the first
    point in no component."""
    reps = [img.element(*r) for r in lattices.quotient_representatives(period, img)]
    gamma, shifts, w = packing.lattice, packing.shifts, s.w
    counts: dict[tuple[int, int], int] = {}
    for k, x_k in enumerate(shifts):
        base = w * (x_k.conj() if s.conjugate else x_k)
        for rep in reps:
            point = base + rep
            j = next((j for j, x_j in enumerate(shifts) if gamma.contains(point - x_j)), None)
            if j is None:
                raise NotContained(point)
            counts[k, j] = counts.get((k, j), 0) + 1
    return counts


class NotContained(ValueError):
    """s(L) ⊄ L; point is the point of s(L) \\ L that certification found."""

    def __init__(self, point: FieldElem):
        super().__init__(f"s(L) is not a subpacking of L: {point} is not in L")
        self.point = point


@dataclass(frozen=True)
class Correspondence:
    """τ, the pairs (k, j) in order with c_kj > 0, and n, the values
    [sΓ : P] / c_kj: each meeting is a coset of Γ ∩ sΓ, so consistent counts
    give the one n = [sΓ : Γ ∩ sΓ].  index is det(sΓ)/det(Γ) = [L : s(L)]."""

    index: Fraction
    n: frozenset[Fraction]
    tau: tuple[tuple[int, int], ...]


def index_by_counting(packing: PointPacking, s: Similarity) -> Correspondence:
    """The correspondence of s(L) ⊆ L from the certification's counts in
    one cell of the period P; NotContained when s(L) ⊄ L.

    Both sets are unions of cosets of the common period lattice P, so
    checking every point of s(L) inside one fundamental domain of P is a
    complete proof of containment.
    """
    gamma, img, period = frame = _period_frame(packing, s)
    _check_walk(packing, [frame])
    counts = _certify(packing, s, img, period)
    cell = lattices.index(period, img)
    return Correspondence(lattices.index(img, gamma), frozenset(cell / c for c in counts.values()),
                          tuple(sorted(counts)))


def coprime_ratios(p_bound: int, q_bound: int) -> list[Fraction]:
    """Every p/q in lowest terms with 1 ≤ p ≤ p_bound and 1 ≤ q ≤ q_bound."""
    if p_bound < 1 or q_bound < 1:
        raise ValueError("bounds must be at least 1")
    return [Fraction(p, q) for q in range(1, q_bound + 1) for p in range(1, p_bound + 1)
            if math.gcd(p, q) == 1]


def scal_set_bruteforce(
    packing: PointPacking, d: Direction, p_bound: int, q_bound: int
) -> set[Fraction]:
    """The ratios of coprime_ratios whose β = (p/q)|z| is certified; their
    walks are bounded together before any is walked."""
    ratios = coprime_ratios(p_bound, q_bound)
    similarities = [d.similarity(ratio) for ratio in ratios]
    frames = [_period_frame(packing, s) for s in similarities]
    _check_walk(packing, frames)
    out = set()
    for ratio, s, (_, img, period) in zip(ratios, similarities, frames):
        try:
            _certify(packing, s, img, period)
        except NotContained:
            continue
        out.add(ratio)
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
    shifts always include 0 and stay pairwise incongruent.  Each shift is
    drawn as i/den, j/den and kept as an integer pair over the lcm of 1 to
    shift_denominator; m is clamped to the number of such pairs, so the draw ends.
    """
    a, b = _random_primitive(rng, ring, max_norm)
    while True:
        p = rng.randint(1, p_bound)
        q = rng.randint(1, q_bound)
        if math.gcd(p, q) == 1:
            break
    s = Similarity.from_ints(ring, q, p * a, p * b, rng.random() < 0.5)

    d = math.lcm(*range(1, shift_denominator + 1))
    distinct = {(i * (d // den), j * (d // den))
                for den in range(1, shift_denominator + 1) for i in range(den) for j in range(den)}
    m = min(rng.randint(1, max_components), len(distinct))
    shifts = [(0, 0)]
    while len(shifts) < m:
        den = rng.randint(1, shift_denominator)
        x = (rng.randint(0, den - 1) * (d // den), rng.randint(0, den - 1) * (d // den))
        # In [0, 1)², x ≡ y mod the ring lattice only when x == y.
        if x not in shifts:
            shifts.append(x)
    return RandomCase(PointPacking.from_pairs(Lattice(ring, d, d, 0, d), shifts), s)


def _random_primitive(rng: random.Random, ring: str, max_norm: int) -> tuple[int, int]:
    bound = math.isqrt(max_norm) + (1 if ring == GAUSSIAN else 2)
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        if 0 < pair_norm(ring, a, b) <= max_norm and math.gcd(a, b) == 1:
            return a, b
