"""Exact constructions the tests use as independent references.

The engine no longer calls any of these: it reads n, every sum and every
Scal congruence from one integer Hermite form, its gcds from closed forms,
every image lattice from the images of two generators, and every
"r·X ⊆ Γ" question from Lattice.least_scale; a Lattice is an integer
Hermite basis over one denominator; packings keep their shifts as integer
residues and test corollary (i) on them; a similarity maps integer pairs,
so the frame Γ + sΓ of a decision is built on integers; render enumerates
its circles on integers; the Scal solve merges its congruences by CRT; the
oracle counts the index on integer pairs.  They stay here so
that those routes can be checked against a different one: the lattice with
three Fraction fields that Lattice replaced, the sum as a lattice, the
residue of a point mod Γ and the corollary (i) containment on Fraction
points, the frame built from FieldElem images over their least common
denominator and the decision read from it, least_scale on FieldElem
points, the congruences on Fraction coordinates and the walk over
every residue of their modulus, the window enumeration on Fraction points,
the oracle's count of the points in one period cell on Fraction points,
the intersection through the dual identity (Γ₁ ∩ Γ₂)* = Γ₁* + Γ₂*, the
Euclidean algorithm in Z[i] and Z[ω], and 2×2 matrices of multiplication
and conjugation over {1, u}.  Results of the ring functions are fixed only up to a unit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from simiso import lattices as lat, packings as pk
from simiso.lattices import Lattice
from simiso.rings import GAUSSIAN, FieldElem, RingElem, RingMismatchError, over_denominator


@dataclass(frozen=True)
class FractionLattice:
    """A lattice as Lattice held it before it kept one denominator: basis
    columns (b00, 0) and (b01, b11) with Fraction entries, the Hermite form
    of the generators divided back by their common denominator."""

    ring: str
    b00: Fraction
    b01: Fraction
    b11: Fraction

    @classmethod
    def from_generators(cls, ring, generators):
        d, ints = over_denominator([c for g in generators for c in g])
        (b00, *_), (b01, b11, *_) = lat._hnf_columns(
            [(x, y, 0, 0) for x, y in zip(ints[::2], ints[1::2])])
        return cls(ring, Fraction(b00, d), Fraction(b01, d), Fraction(b11, d))

    @classmethod
    def of(cls, lattice):
        """The Fraction form of a Lattice."""
        return cls(lattice.ring, *(Fraction(c, lattice.d)
                                   for c in (lattice.b00, lattice.b01, lattice.b11)))

    @property
    def det(self):
        return self.b00 * self.b11

    def generators(self):
        return FieldElem(self.ring, self.b00, 0), FieldElem(self.ring, self.b01, self.b11)

    def coords_of(self, x):
        """Solve B·t = coords(x); the lattice contains x iff t is integral."""
        if x.ring != self.ring:
            raise RingMismatchError(f"{x.ring} point in {self.ring} lattice")
        t1 = x.b / self.b11
        t0 = (x.a - self.b01 * t1) / self.b00
        return t0, t1

    def contains(self, x):
        t0, t1 = self.coords_of(x)
        return t0.denominator == 1 and t1.denominator == 1

    def point(self, t0, t1):
        return FieldElem(self.ring, self.b00 * t0 + self.b01 * t1, self.b11 * t1)

    def __str__(self):
        g1, g2 = self.generators()
        return f"<{g1}, {g2}>"


def add(l1: Lattice, l2: Lattice) -> Lattice:
    """The lattice Γ₁ + Γ₂ generated by the union."""
    if l1.ring != l2.ring:
        raise RingMismatchError("sum of lattices over different rings")
    gens = [(g.a, g.b) for g in l1.generators() + l2.generators()]
    return Lattice.from_generators(l1.ring, gens)


def dual(lattice: Lattice) -> Lattice:
    """Dual lattice w.r.t. the standard pairing on coordinates: (B⁻¹)ᵀ."""
    lattice = FractionLattice.of(lattice)
    d = lattice.det
    c1 = (lattice.b11 / d, -lattice.b01 / d)
    c2 = (Fraction(0), lattice.b00 / d)
    return Lattice.from_generators(lattice.ring, [c1, c2])


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """The set intersection Γ₁ ∩ Γ₂ (full rank for rational bases)."""
    return dual(add(dual(l1), dual(l2)))


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
    lattice = FractionLattice.of(lattice)
    cols = ((lattice.b00, Fraction(0)), (lattice.b01, lattice.b11))
    gens = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in cols]
    return Lattice.from_generators(lattice.ring, gens)


def image_lattice(s, lattice):
    """sΓ by matrices: conjugate Γ (one Hermite form), then multiply by w."""
    base = _mapped(lattice, conj_matrix(lattice.ring)) if s.conjugate else lattice
    return _mapped(base, mul_matrix(s.w))


def least_scale(lattice, points):
    """Least r > 0 with r·x in the lattice for every given FieldElem x, over
    the least common denominator of the lattice and the points."""
    lattice, xy = lattice.with_points(points)
    return Fraction(*lattice.least_scale(xy))


def sum_lattice(l1, l2, points):
    """SumLattice.of for lattices over any denominators and FieldElem points,
    all rewritten over the lcm of both denominators and the points'."""
    l1, xy = l1.over(math.lcm(l1.d, l2.d)).with_points(points)
    return lat.SumLattice.of(l1, l2.over(l1.d), xy)


def frame(packing, s):
    """Γ + sΓ with the points x_k and then s(x_k), from FieldElem images: sΓ
    spanned by the images of Γ's generators under s.apply, and each s(x_k)
    by s.apply, all over their least common denominator."""
    gamma = packing.lattice
    img = Lattice.from_generators(gamma.ring, [(y.a, y.b) for y in map(s.apply, gamma.generators())])
    return sum_lattice(gamma, img, packing.shifts + tuple(map(s.apply, packing.shifts)))


def check_similarity(packing, s):
    """The decision read from the FieldElem frame, as (accepted, n, τ,
    witness, failing_k, reached)."""
    total, m = frame(packing, s), packing.m
    n, targets = total.index(), total.points[:m]
    hits = []
    for k, (ax, ay) in enumerate(total.points[m:]):
        reached = []
        for j, (bx, by) in enumerate(targets):
            coeffs = total.solve(ax - bx, ay - by)
            if coeffs is not None:
                reached.append(j)
                hits.append((k, j, coeffs))
        if len(reached) != n:
            return False, n, (), (), k, tuple(reached)
    gamma = packing.lattice
    witness = tuple((k, j, packing.shifts[j] + gamma.point(*t)) for k, j, t in hits)
    return True, n, tuple((k, j) for k, j, _ in hits), witness, None, ()


def denominator(lattice, d):
    """den(Γ, R) as r in den = r·|z|: the least positive rational making
    r·B⁻¹·M_z·(M_conj)·B integral."""
    lattice = FractionLattice.of(lattice)
    m = mul_matrix(d.z)
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
    l1, l2 = FractionLattice.of(l1), FractionLattice.of(l2)
    entries = []
    for x, y in ((l1.b00, Fraction(0)), (l1.b01, l1.b11)):
        t1 = y / l2.b11
        t0 = (x - l2.b01 * t1) / l2.b00
        entries += [t0, t1]
    return math.lcm(*(e.denominator for e in entries))


def lift_scale(gamma):
    """The least rational c with c·R ⊆ Γ, from the Hermite entries: the lcm
    of b00, b11 and, when b01 ≠ 0, |b00·b11/b01|."""
    gamma = FractionLattice.of(gamma)
    gens = [gamma.b00, gamma.b11] + ([abs(gamma.det / gamma.b01)] if gamma.b01 else [])
    return Fraction(
        math.lcm(*(g.numerator for g in gens)), math.gcd(*(g.denominator for g in gens))
    )


def reduce_point(lattice, x):
    """The representative of x mod Γ in the fundamental domain, from the
    Fraction coordinates of x over Γ's basis."""
    lattice = FractionLattice.of(lattice)
    t0, t1 = lattice.coords_of(x)
    return lattice.point(t0 - math.floor(t0), t1 - math.floor(t1))


def shift_pair_in_nth_lattice(packing, n):
    """Corollary (i) as containment: some pair of distinct shifts differs by
    a point of (1/n)Γ, that is n·(x_j - x_i) ∈ Γ on Fraction points."""
    gamma = FractionLattice.of(packing.lattice)
    return any(
        gamma.contains((x_j - x_i).scale(n))
        for i, x_i in enumerate(packing.shifts)
        for j, x_j in enumerate(packing.shifts)
        if i != j
    )


def contains_lattice(sup, sub):
    """Whether sub ⊆ sup, by testing both generators of sub."""
    sup = FractionLattice.of(sup)
    return all(sup.contains(g) for g in sub.generators())


def congruence_residue(a, x, order):
    """The residue p mod order with p·a ≡ x (mod Z²), or None when none does.

    order is the lcm of the denominators of a, so p·a takes order distinct
    values mod Z² and at most one residue solves both coordinates.
    """
    residue, step = 0, 1  # the solutions so far are residue + step·Z
    for a_i, x_i in zip(a, x):
        target = x_i * order
        if target.denominator != 1:
            return None
        coeff = int(a_i * order)
        # (residue + step·t)·coeff ≡ target (mod order), solved for t.
        c, e = coeff * step, int(target) - coeff * residue
        g = math.gcd(c, order)
        if e % g:
            return None
        period = order // g
        t = (e // g) * pow(c // g, -1, period) % period
        residue, step = residue + step * t, step * period
    return residue % order


def sweep_conditions(packing, trial):
    """The per-q step of the Scal sweep on Fraction coordinates: n = [S : R]
    for S = R + trial(R), and per k the order o_k of a_k = trial(x_k) in
    Q(u)/S with the targets j of each residue of p mod o_k."""
    gamma = packing.lattice
    total = add(gamma, trial.image_lattice(gamma))
    n = lat.integer_index(gamma, total)
    total = FractionLattice.of(total)
    targets = [total.coords_of(x_j) for x_j in packing.shifts]
    conditions = []
    for x_k in packing.shifts:
        a_k = total.coords_of(trial.apply(x_k))
        o_k = math.lcm(a_k[0].denominator, a_k[1].denominator)
        by_residue = {}
        for j, x_j in enumerate(targets):
            r = congruence_residue(a_k, x_j, o_k)
            if r is not None:
                by_residue.setdefault(r, []).append(j)
        conditions.append((o_k, by_residue))
    return n, conditions


def sweep_direction(packing, d):
    """The Scal solve by walking residues, as the engine did before it merged
    the component congruences: for each admissible q with n ≤ m, every
    residue r mod L = lcm(q, o_1, …, o_m) prime to q at which each component
    k of the lift meets exactly n components, with its τ."""
    packing = pk.lift_to_ring(packing)
    m = packing.m
    multiple = d.norm() if d.conjugate else 1
    out = []
    for q in range(1, min(math.isqrt(multiple), m) + 1):
        if multiple % (q * q):
            continue
        n, conditions = sweep_conditions(packing, d.similarity(Fraction(1, q)))
        if n > m:
            continue
        modulus = math.lcm(q, *(o_k for o_k, _ in conditions))
        accepted = {}
        for r in range(modulus):
            if math.gcd(r, q) != 1:
                continue
            tau = []
            for k, (o_k, by_residue) in enumerate(conditions):
                js = by_residue.get(r % o_k, ())
                if len(js) != n:
                    break
                tau.extend((k, j) for j in js)
            else:
                accepted[r] = tuple(tau)
        out.append((q, modulus, accepted))
    return out


def points_in_window(packing, window):
    """Exactly the points of the packing inside a half-open coordinate box
    [x0, x1) × [y0, y1) over {1, u}, as sorted Fraction points."""
    x0, y0, x1, y1 = (Fraction(c) for c in window)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("window must have positive area")
    base = FractionLattice.of(packing.lattice)
    out = []
    for s in packing.shifts:
        t1_lo = math.ceil((y0 - s.b) / base.b11)
        t1_hi = math.ceil((y1 - s.b) / base.b11)  # exclusive
        for t1 in range(t1_lo, t1_hi):
            x_off = s.a + base.b01 * t1
            t0_lo = math.ceil((x0 - x_off) / base.b00)
            t0_hi = math.ceil((x1 - x_off) / base.b00)
            for t0 in range(t0_lo, t0_hi):
                out.append(base.point(t0, t1) + s)
    out.sort(key=lambda p: (p.a, p.b))
    return out


def count_in_cell(base: Lattice, shifts, cell: Lattice) -> int:
    """The oracle's former count, on Fraction points: the points of
    ∪(x + base) inside the fundamental domain of cell."""
    cell = FractionLattice.of(cell)
    count = 0
    for x in shifts:
        count += sum(
            1
            for t0, t1 in unit_cell_preimage(base, cell, x)
            if all(0 <= c < 1 for c in cell.coords_of(base.point(t0, t1) + x))
        )
    return count


def unit_cell_preimage(base: Lattice, cell: FractionLattice, x: FieldElem):
    """Integer pairs t whose image point can land in cell's unit cell."""
    # coords in cell of base.point(t) + x are affine in t; bound each
    # coordinate of t by transporting the unit square corners back.
    m00, m01 = cell.coords_of(base.point(1, 0) - base.point(0, 0))
    m10, m11 = cell.coords_of(base.point(0, 1) - base.point(0, 0))
    c0, c1 = cell.coords_of(x)
    det = m00 * m11 - m01 * m10
    t_corners = []
    for u0 in (0, 1):
        for u1 in (0, 1):
            r0, r1 = Fraction(u0) - c0, Fraction(u1) - c1
            t_corners.append(((r0 * m11 - r1 * m10) / det, (r1 * m00 - r0 * m01) / det))
    lo0 = math.floor(min(t[0] for t in t_corners))
    hi0 = math.ceil(max(t[0] for t in t_corners))
    lo1 = math.floor(min(t[1] for t in t_corners))
    hi1 = math.ceil(max(t[1] for t in t_corners))
    return [(t0, t1) for t0 in range(lo0, hi0 + 1) for t1 in range(lo1, hi1 + 1)]
