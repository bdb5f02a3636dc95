"""Exact constructions the tests use as independent references.

Each one computes what an engine function computes by a different route,
mostly on Fraction and FieldElem values, so a test that compares the two
checks the engine's integer arithmetic against plain field arithmetic:
- lattices: the three-Fraction-field lattice (FractionLattice), points and
  coset representatives as FieldElems, sums, duals and intersections
  through (Γ₁ ∩ Γ₂)* = Γ₁* + Γ₂*, least_scale on FieldElem points and the
  residue of a point mod Γ;
- rings: the Euclidean algorithm in Z[i] and Z[ω], content and primitive
  part, and 2×2 matrices of multiplication and conjugation over {1, u};
- packings: membership, the lift to R from FieldElem cosets, the frame
  Γ + sΓ from FieldElem images, the decision by one coset solve per pair,
  den(Γ, R), corollary (i), and the Scal sweep walking every residue of
  its modulus with each trial map z/q built as a FieldElem;
- render: the window enumeration on Fraction points, the circle bound on
  Fraction corners, and the figure drawn component by component;
- oracle: the size of its walk from a closed form of its period over z(Γ);
- similarity: the two printers of one residue class that
  ResidueClass.display joined into one, against the symbol "den" and
  with |z| = √N(z).
Results of the ring functions are fixed only up to a unit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from simiso import lattices as lat, packings as pk, render as rd
from simiso.lattices import Lattice
from simiso.similarity import Similarity
from simiso.rings import (GAUSSIAN, FieldElem, RingElem, RingMismatchError, over_denominator,
                          ring_coordinates)


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
        b00, b01, b11 = lat._hnf_columns(list(zip(ints[::2], ints[1::2])))
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


def point(lattice, t0, t1):
    """t0·(b00, 0) + t1·(b01, b11) of a Lattice, as a FieldElem."""
    return FractionLattice.of(lattice).point(t0, t1)


def quotient_representatives(sub, sup):
    """Coset representatives of sub in sup as FieldElem points, for lattices
    over any denominators: i·g₁ + j·g₂ of sup, i-major."""
    d = math.lcm(sub.d, sup.d)
    sub, fine = sub.over(d), sup.over(d)
    if not (fine.contains_pair(sub.b00, 0) and fine.contains_pair(sub.b01, sub.b11)):
        raise ValueError("quotient_representatives requires sub ⊆ sup")
    rows, cols = sub.b00 // fine.b00, sub.b11 // fine.b11
    return [point(sup, i, j) for i in range(rows) for j in range(cols)]


def lift_to_ring(packing):
    """The lift as the engine built it from FieldElem cosets: c the least
    rational with c·R ⊆ Γ, and each component (x_k + r)/c for r over the
    representatives of Γ/c·R, residue-major."""
    gamma = packing.lattice
    if gamma == Lattice.ring_lattice(gamma.ring):
        return packing
    c = Fraction(*gamma.least_scale([(gamma.d, 0), (0, gamma.d)]))
    sub = Lattice(gamma.ring, c.denominator, c.numerator, 0, c.numerator)
    m = packing.m * lat.index(sub, gamma).numerator
    if m > pk.MAX_LIFTED_COMPONENTS:
        raise ValueError(f"the packing lifts to {m} components over the ring "
                         f"lattice; at most {pk.MAX_LIFTED_COMPONENTS} are supported")
    reps = quotient_representatives(sub, gamma)
    shifts = tuple((x + r).scale(1 / c) for x in packing.shifts for r in reps)
    return pk.PointPacking(Lattice.ring_lattice(gamma.ring), shifts)


def oracle_points(packing, d, ratios):
    """The points the oracle tests, summed over s = r·z for the ratios r,
    from a closed form of its period instead of the frame it walks.

    The oracle's common period is D·Γ ⊆ sΓ.  Certifying s takes the
    [sΓ : D·Γ] = D²/N(w) coset representatives of each of the m image
    components and tests each against the m components, m²·D²/N(w) in all.
    As sΓ = r·z(Γ), D is the numerator of r·r₀ for the least r₀ with
    r₀·Γ ⊆ z(Γ): one Hermite form, over Γ's denominator as z is integral.
    """
    gamma = packing.lattice
    r0 = Fraction(*d.similarity(1).image_lattice(gamma).least_scale(gamma.basis))
    return sum(packing.m ** 2 * (r * r0).numerator ** 2 / (r * r * d.norm()) for r in ratios)


def packing_contains(packing, x) -> bool:
    """Whether the FieldElem x lies in some component x_k + Γ."""
    return any(packing.lattice.contains(x - s) for s in packing.shifts)


def generators(lattice: Lattice):
    """The Hermite basis of a Lattice as two FieldElem points."""
    return [lattice.element(*b) for b in lattice.basis]


def apply(s, x):
    """s(x) for a FieldElem point x: w·x, or w·conj(x) when s conjugates."""
    return s.w * (x.conj() if s.conjugate else x)


def add(l1: Lattice, l2: Lattice) -> Lattice:
    """The lattice Γ₁ + Γ₂ generated by the union."""
    if l1.ring != l2.ring:
        raise RingMismatchError("sum of lattices over different rings")
    gens = [(g.a, g.b) for g in generators(l1) + generators(l2)]
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


def content_and_primitive(z: FieldElem) -> tuple[int, FieldElem]:
    """Split z ≠ 0 in the ring as c·z0 with c = gcd(a, b) > 0 and z0
    primitive, on FieldElem coordinates: decompose's split of an integral w."""
    if z.is_zero():
        raise ValueError("zero has no primitive part")
    a, b = ring_coordinates(z)
    c = math.gcd(a, b)
    return c, FieldElem(z.ring, a // c, b // c)

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


def sum_frame(l1, l2, points):
    """Γ₁ + Γ₂ as Lattice.spanned on both Hermite bases, with Γ₁ and the
    FieldElem points as integer pairs, all over the lcm of both
    denominators and the points'; returns (Γ₁, Γ₁ + Γ₂, pairs)."""
    l1, xy = l1.over(math.lcm(l1.d, l2.d)).with_points(points)
    return l1, Lattice.spanned(l1.ring, l1.d, [*l1.basis, *l2.over(l1.d).basis]), xy


def frame(packing, s):
    """Γ + sΓ as a Lattice with the targets x_k and the images s(x_k), from
    FieldElem images: sΓ spanned by the images of Γ's generators under
    apply, the sum by add, and each s(x_k) by apply, all over their
    least common denominator."""
    gamma = packing.lattice
    img = Lattice.from_generators(gamma.ring, [(y.a, y.b) for y in
                                               (apply(s, g) for g in generators(gamma))])
    images = tuple(apply(s, x) for x in packing.shifts)
    total, xy = add(gamma, img).with_points(packing.shifts + images)
    return total, xy[:packing.m], xy[packing.m:]


def coset_point(l1, l2, v):
    """A point of Γ₁ ∩ (v + Γ₂), or None when v ∉ Γ₁ + Γ₂, from a fresh
    Hermite form of Γ₁ + Γ₂ scaled by the denominators of Γ₁, Γ₂ and v,
    tracking Γ₁-parts as Fraction pairs: the per-pair solve that residues
    on one frame replaced."""
    gens1 = [(g.a, g.b) for g in generators(l1)]
    gens2 = [(g.a, g.b) for g in generators(l2)]
    denoms = [c.denominator for g in gens1 + gens2 for c in g]
    denoms += [v.a.denominator, v.b.denominator]
    d = math.lcm(*denoms)
    zero = (Fraction(0), Fraction(0))
    cols = [(int(x * d), int(y * d), (x, y)) for x, y in gens1]
    cols += [(int(x * d), int(y * d), zero) for x, y in gens2]
    tx, ty = int(v.a * d), int(v.b * d)

    def axpy(c, p1, p2):
        return (p1[0] + c * p2[0], p1[1] + c * p2[1])

    lead = None
    rest = []
    for x, y, p in cols:
        if y == 0:
            rest.append((x, p))
            continue
        if lead is None:
            lead = (x, y, p)
            continue
        x0, y0, p0 = lead
        g, s, t = lat._xgcd(y0, y)
        lead = (s * x0 + t * x, g, axpy(t, (s * p0[0], s * p0[1]), p))
        c0, c1 = y // g, -(y0 // g)
        rest.append((c0 * x0 + c1 * x, axpy(c1, (c0 * p0[0], c0 * p0[1]), p)))
    kx, kp = 0, zero
    for x, p in rest:
        g, s, t = lat._xgcd(kx, x)
        kx, kp = g, axpy(t, (s * kp[0], s * kp[1]), p)
    x0, y0, p0 = lead
    if ty % y0 != 0:
        return None
    t_lead = ty // y0
    remainder = tx - t_lead * x0
    if remainder % kx != 0:
        return None
    t_k = remainder // kx
    return FieldElem(l1.ring, t_lead * p0[0] + t_k * kp[0], t_lead * p0[1] + t_k * kp[1])


def check_similarity(packing, s):
    """The per-pair decision: n = [sΓ : Γ ∩ sΓ] through intersect and one
    coset_point per pair (k, j), each on its own Hermite form.  Returns
    (accepted, n, τ, witness, failing_k, reached), the witness as FieldElem
    points: s(x_k) + σ for the σ among i·s(g0) + t·s(g1), 0 ≤ i < o and
    0 ≤ t < n/o, with s(x_k) + σ - x_j ∈ Γ, where g0, g1 is Γ's Hermite
    basis and o the least integer with o·s(g0) ∈ Γ, found by counting up."""
    gamma = packing.lattice
    img = s.image_lattice(gamma)
    n = lat.index(intersect(gamma, img), img)
    tau = []
    for k, x_k in enumerate(packing.shifts):
        sx = apply(s, x_k)
        reached = [j for j, x_j in enumerate(packing.shifts)
                   if coset_point(gamma, img, sx - x_j) is not None]
        if len(reached) != n:
            return False, n, (), (), k, tuple(reached)
        tau += [(k, j) for j in reached]
    g0, g1 = (apply(s, g) for g in generators(gamma))
    o = 1
    while not gamma.contains(g0.scale(o)):
        o += 1
    sigmas = [g0.scale(i) + g1.scale(t) for i in range(o) for t in range(n // o)]
    witness = []
    for k, j in tau:
        sx, x_j = apply(s, packing.shifts[k]), packing.shifts[j]
        [point] = [sx + sigma for sigma in sigmas if gamma.contains(sx + sigma - x_j)]
        witness.append((k, j, point))
    return True, n, tuple(tau), tuple(witness), None, ()


def denominator(lattice, d):
    """den(Γ, R) as r in den = r·|z|: the least positive rational making
    r·B⁻¹·M_z·(M_conj)·B integral."""
    lattice = FractionLattice.of(lattice)
    m = mul_matrix(FieldElem(d.ring, *d.ints))
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
    return all(sup.contains(g) for g in generators(sub))


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
    n = lat.index(gamma, total)
    total = FractionLattice.of(total)
    targets = [total.coords_of(x_j) for x_j in packing.shifts]
    conditions = []
    for x_k in packing.shifts:
        a_k = total.coords_of(apply(trial, x_k))
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
        z = FieldElem(d.ring, *d.ints)
        trial = Similarity(z.scale(Fraction(1, q)), d.conjugate)  # z/q as a FieldElem
        n, conditions = sweep_conditions(packing, trial)
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


def circle_bound(packing, image, window):
    """render.circle_bound on the Fraction corners: ⌊h·d/b11⌋ + 1 rows of
    ⌊w·d/b00⌋ + 1 points per component of Γ and of sΓ, when given."""
    x0, y0, x1, y1 = window
    drawn = [packing.lattice] + ([image] if image else [])
    return sum(packing.m * ((y1 - y0) * g.d // g.b11 + 1) * ((x1 - x0) * g.d // g.b00 + 1)
               for g in drawn)


def render_window_points(lattice, shift, window):
    """render's points of shift + Γ in the window as its enumeration stood
    before one frame served every component: Γ, the corners and the
    FieldElem shift over their least common denominator per component,
    sorted, as float pairs (a/d, b/d)."""
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise ValueError("window must have positive area")
    corners = (FieldElem(lattice.ring, x0, y0), FieldElem(lattice.ring, x1, y1))
    g, [(x0, y0), (x1, y1), (sa, sb)] = lattice.with_points((*corners, shift))
    d, b00, b01, b11 = g.d, g.b00, g.b01, g.b11
    out = []
    for t1 in range(-((sb - y0) // b11), -((sb - y1) // b11)):
        a0, b = sa + b01 * t1, sb + b11 * t1
        for t0 in range(-((a0 - x0) // b00), -((a0 - x1) // b00)):
            out.append((a0 + b00 * t0, b))
    out.sort()
    return [(a / d, b / d) for a, b in out]


def render_svg(packing, s, image, window):
    """render.render_svg drawn component by component: each shift and each
    image apply(s, x_k) enumerated by render_window_points, and both
    coordinates of every circle formatted from its float."""
    ring = packing.ring
    x0, y0, x1, y1 = window
    corners = [rd.to_xy(ring, float(cx), float(cy)) for cx in (x0, x1) for cy in (y0, y1)]
    min_x = min(c[0] for c in corners)
    max_x = max(c[0] for c in corners)
    min_y = min(c[1] for c in corners)
    max_y = max(c[1] for c in corners)
    pad = 0.05 * max(max_x - min_x, max_y - min_y)
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    size = rd.SIZE
    scale = size / max(max_x - min_x, max_y - min_y)
    height = round((max_y - min_y) * scale)

    def circles(lattice, shift, r):
        points = (rd.to_xy(ring, *p) for p in render_window_points(lattice, shift, window))
        return [f'<circle cx="{(x - min_x) * scale:.2f}" '
                f'cy="{(max_y - y) * scale:.2f}" r="{r}"/>' for x, y in points]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{height}" '
        f'viewBox="0 0 {size} {height}">',
        f'<rect width="{size}" height="{height}" fill="white"/>',
    ]
    legend = []
    for k, x_k in enumerate(packing.shifts):
        color = rd.PACKING_COLORS[k % len(rd.PACKING_COLORS)]
        lines.append(f'<g fill="none" stroke="{color}" stroke-width="1.2">')
        lines += circles(packing.lattice, x_k, "4.0")
        lines.append("</g>")
        legend.append((color, f"{x_k}+Γ"))
    if s is not None:
        for k, x_k in enumerate(packing.shifts):
            color = rd.IMAGE_COLORS[k % len(rd.IMAGE_COLORS)]
            lines.append(f'<g fill="{color}">')
            lines += circles(image, apply(s, x_k), "2.4")
            lines.append("</g>")
            legend.append((color, f"image of {x_k}+Γ"))
    ly = 16
    for color, label in legend:
        lines.append(f'<circle cx="12" cy="{ly - 4}" r="4.0" fill="{color}"/>')
        lines.append(
            f'<text x="22" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{rd._escape(label)}</text>'
        )
        ly += 16
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def symbolic_class(q, modulus, r):
    """The class p ≡ r (mod modulus) of ratios p/q, written against the
    symbol den of a table cell."""
    if r == 0:
        body = "den·Z" if modulus == 1 else f"den·{modulus}Z"
    else:
        body = f"den·({r}+{modulus}Z)"
    return body if q == 1 else f"(1/{q})·{body}"


def concrete_class(q, modulus, r, norm_z):
    """The same class written with |z| = √norm_z.  At q = 1 with norm_z a
    square, |z| = s is an integer: r = 0 collapses to the multiple (s·modulus)Z
    and a lead s = 1 is left out.  Over q > 1 the lead 1/q·|z| is always
    written, as the class holds only the p prime to q."""
    s = math.isqrt(norm_z)
    if q == 1 and s * s == norm_z:
        if r == 0:
            return "Z" if s * modulus == 1 else f"{s * modulus}Z"
        return f"({r}+{modulus}Z)" if s == 1 else f"{s}·({r}+{modulus}Z)"
    lead = str(s) if s * s == norm_z else f"√{norm_z}"
    lead = lead if q == 1 else f"1/{q}·{lead}"
    if r == 0:
        return f"{lead}·Z" if modulus == 1 else f"{lead}·{modulus}Z"
    return f"{lead}·({r}+{modulus}Z)"
