"""Lattice operation tests: membership, index, intersection, sum, scaling."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simiso import lattices as lat
from simiso.lattices import DegenerateLatticeError, Lattice
from simiso.rings import (
    EISENSTEIN,
    GAUSSIAN,
    FieldElem,
    RingElem,
    RingMismatchError,
)
from simiso.similarity import Similarity

from references import (
    FractionLattice,
    add,
    contains_lattice,
    coset_point,
    dual,
    generators,
    intersect,
    least_scale,
    point,
    quotient_representatives,
    reduce_point,
    ring_gcd,
    ring_lcm,
    scaling_denominator,
    sum_frame,
)

F = Fraction


def fe(ring, a, b):
    return FieldElem(ring, F(a), F(b))


def mul_lattice(ring, a, b, base=None):
    base = base or Lattice.ring_lattice(ring)
    return Similarity(fe(ring, a, b)).image_lattice(base)


ZI = Lattice.ring_lattice(GAUSSIAN)
ZW = Lattice.ring_lattice(EISENSTEIN)
RECT31 = Lattice.from_generators(GAUSSIAN, [(F(3), F(0)), (F(0), F(1))])


class TestConstruction:
    def test_canonical_form(self):
        # Different generator presentations of the same lattice agree
        # syntactically after normalization.
        l1 = Lattice.from_generators(GAUSSIAN, [(F(1), F(2)), (F(-2), F(1))])
        l2 = Lattice.from_generators(GAUSSIAN, [(F(3), F(1)), (F(-1), F(3))])
        # (1+2i)Z[i] == (3+i)... only if same lattice; instead present the
        # same lattice two ways:
        l3 = Lattice.from_generators(GAUSSIAN, [(F(-2), F(1)), (F(5), F(0))])
        assert l1 == l3
        assert l1 != l2
        assert l1.b00 > 0 and l1.b11 > 0 and 0 <= l1.b01 < l1.b00

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            Lattice.from_generators(GAUSSIAN, [(F(1), F(2)), (F(2), F(4))])

    def test_rational_entries(self):
        half = Lattice.from_generators(GAUSSIAN, [(F(1, 2), F(0)), (F(0), F(1, 2))])
        assert FractionLattice.of(half).det == F(1, 4)
        assert lat.index(half, ZI) == F(1, 4)

    def test_over_refuses_a_denominator_it_does_not_divide(self):
        with pytest.raises(ValueError, match="^3 is not a multiple of the denominator 2$"):
            Lattice(GAUSSIAN, 2, 2, 0, 2).over(3)

    def test_ring_mismatch_refused(self):
        with pytest.raises(RingMismatchError, match="^eisenstein point in gaussian lattice$"):
            ZI.with_points([FieldElem(EISENSTEIN, 1, 0)])
        with pytest.raises(RingMismatchError, match="^index of lattices over different rings$"):
            lat.index(ZI, ZW)


class TestContains:
    def test_ring_lattice(self):
        assert ZI.contains(fe(GAUSSIAN, 3, -7))
        assert not ZI.contains(FieldElem(GAUSSIAN, F(1, 2), F(0)))

    def test_rect31(self):
        # Shifts 0, 1, 2 are pairwise incongruent mod {3a+bi}.
        assert not RECT31.contains(fe(GAUSSIAN, 2, 0))
        assert not RECT31.contains(fe(GAUSSIAN, 1, 0))
        assert RECT31.contains(fe(GAUSSIAN, 3, 5))

    def test_hexagonal_shift_outside(self):
        assert not ZW.contains(FieldElem(EISENSTEIN, F(2, 3), F(1, 3)))

    def test_reduce_point(self):
        x = FieldElem(EISENSTEIN, F(4, 3), F(2, 3))
        r = reduce_point(ZW, x)
        assert r == FieldElem(EISENSTEIN, F(1, 3), F(2, 3))
        assert ZW.contains(x - r)


class TestIndex:
    def test_similar_sublattice(self):
        assert lat.index(mul_lattice(GAUSSIAN, 1, 2), ZI) == 5

    def test_self(self):
        assert lat.index(ZW, ZW) == 1

    def test_doubling(self):
        assert lat.index(mul_lattice(EISENSTEIN, 2, 0), ZW) == 4

    def test_rational_for_superlattice(self):
        third = Similarity(FieldElem(GAUSSIAN, F(1, 3), F(0))).image_lattice(ZI)
        assert lat.index(third, ZI) == F(1, 9)

    def test_multiplicative_on_nested_triples(self):
        rng = random.Random(4)
        for _ in range(25):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            base = Lattice.ring_lattice(ring)
            mid = mul_lattice(ring, rng.randint(1, 4), rng.randint(0, 4), base)
            inner = mul_lattice(ring, rng.randint(1, 3), rng.randint(0, 3), mid)
            assert lat.index(inner, base) == lat.index(inner, mid) * lat.index(
                mid, base
            )


class TestIntersect:
    def test_containment_case(self):
        sub = mul_lattice(GAUSSIAN, 1, 2)
        assert intersect(ZI, sub) == sub
        assert intersect(ZW, mul_lattice(EISENSTEIN, 2, 0)) == mul_lattice(
            EISENSTEIN, 2, 0
        )

    def test_lcm_formula(self):
        # qΓ ∩ pzΓ = lcm(pz, q)Γ over the ring lattice.
        z, p, q = RingElem(GAUSSIAN, 1, 2), 2, 5
        pz = RingElem(GAUSSIAN, p * z.a, p * z.b)
        left = intersect(
            mul_lattice(GAUSSIAN, q, 0), mul_lattice(GAUSSIAN, pz.a, pz.b)
        )
        m = ring_lcm(pz, RingElem(GAUSSIAN, q, 0))
        assert left == mul_lattice(GAUSSIAN, m.a, m.b)

    def test_membership_sampling(self):
        rng = random.Random(11)
        for _ in range(6):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            l1 = mul_lattice(ring, rng.randint(1, 3), rng.randint(0, 2))
            l2 = mul_lattice(ring, rng.randint(1, 3), rng.randint(1, 3))
            inter = intersect(l1, l2)
            assert contains_lattice(l1, inter) and contains_lattice(l2, inter)
            hits = 0
            for _ in range(500):
                pt = point(l1, rng.randint(-8, 8), rng.randint(-8, 8))
                if l2.contains(pt):
                    hits += 1
                    assert inter.contains(pt)
            assert hits > 0

    def test_sum_intersect_index_duality(self):
        rng = random.Random(7)
        for _ in range(20):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            l1 = mul_lattice(ring, rng.randint(1, 4), rng.randint(0, 3))
            l2 = mul_lattice(ring, rng.randint(1, 4), rng.randint(1, 4))
            inter = intersect(l1, l2)
            total = add(l1, l2)
            assert lat.index(inter, l2) == lat.index(l1, total)


class TestSum:
    def test_gcd_formula(self):
        # Γ + (pz/q)Γ = (gcd(z, q)/q)Γ with w = (2/5)(1+2i).
        w = FieldElem(GAUSSIAN, F(2, 5), F(4, 5))
        total = add(ZI, Similarity(w).image_lattice(ZI))
        d = ring_gcd(RingElem(GAUSSIAN, 1, 2), RingElem(GAUSSIAN, 5, 0))
        expected = Similarity(FieldElem(GAUSSIAN, F(d.a, 5), F(d.b, 5))).image_lattice(ZI)
        assert total == expected

    def test_idempotent(self):
        assert add(RECT31, RECT31) == RECT31

    def test_refinement(self):
        third = Similarity(FieldElem(EISENSTEIN, F(1, 3), F(0))).image_lattice(ZW)
        assert add(ZW, third) == third


class TestScaleBy:
    def test_identity(self):
        assert Similarity(fe(GAUSSIAN, 1, 0)).image_lattice(RECT31) == RECT31

    def test_similar_sublattice(self):
        scaled = Similarity(fe(GAUSSIAN, 1, 2)).image_lattice(ZI)
        assert contains_lattice(ZI, scaled)
        assert lat.index(scaled, ZI) == 5

    def test_incommensurate_containment(self):
        half = Similarity(FieldElem(GAUSSIAN, F(1, 2), F(1))).image_lattice(ZI)
        assert half.contains(FieldElem(GAUSSIAN, F(1, 2), F(1)))
        assert not contains_lattice(ZI, half)

    def test_n_formula(self):
        # index(wΓ, Γ ∩ wΓ) = q²/|gcd(z,q)|² for w = (p/q)z, over every
        # primitive z of norm ≤ 50 and q ≤ 6.
        for ring in (GAUSSIAN, EISENSTEIN):
            base = Lattice.ring_lattice(ring)
            for a in range(-7, 8):
                for b in range(-7, 8):
                    z = RingElem(ring, a, b)
                    if z.is_zero() or z.norm() > 50 or math.gcd(a, b) != 1:
                        continue
                    for q in range(1, 7):
                        for p in (1, 3):
                            if math.gcd(p, q) != 1:
                                continue
                            w = FieldElem(ring, F(p * a, q), F(p * b, q))
                            img = Similarity(w).image_lattice(base)
                            inter = intersect(base, img)
                            n = lat.index(inter, img)
                            d = ring_gcd(z, RingElem(ring, q, 0))
                            assert n == F(q * q, d.norm())


class TestDualAndQuotients:
    def test_dual_involution(self):
        for l in (ZI, ZW, RECT31, mul_lattice(EISENSTEIN, 2, 1)):
            assert dual(dual(l)) == l

    def test_quotient_representatives(self):
        sub = mul_lattice(GAUSSIAN, 1, 2)
        reps = [ZI.element(*r) for r in lat.quotient_representatives(sub, ZI)]
        assert len(reps) == 5
        for i, r in enumerate(reps):
            assert ZI.contains(r)
            for s in reps[i + 1 :]:
                assert not sub.contains(r - s)

    def test_quotient_representatives_are_integer_pairs(self):
        # i·(b00, 0) + j·(b01, b11) of sup over the common d, i-major: the
        # FieldElem points of the reference, in the same order.
        sup = Lattice.from_generators(EISENSTEIN, [(F(2, 3), F(0)), (F(1, 3), F(1, 2))])
        sub = Lattice(EISENSTEIN, sup.d, 6 * sup.b00, 6 * sup.b01, 2 * sup.b11)
        reps = list(lat.quotient_representatives(sub, sup))
        assert all(type(c) is int for r in reps for c in r) and len(reps) == 12
        assert [sup.element(*r) for r in reps] == quotient_representatives(sub, sup)
        with pytest.raises(ValueError, match="requires sub"):
            lat.quotient_representatives(sup, sub)

    def test_quotient_representatives_refuse_two_denominators(self):
        # Both lattices over one d; rewriting is the caller's.
        sub = Lattice(GAUSSIAN, 1, 2, 0, 2)
        with pytest.raises(ValueError, match="denominators 1 and 2"):
            lat.quotient_representatives(sub, ZI.over(2))
        assert len(list(lat.quotient_representatives(sub.over(2), ZI.over(2)))) == 4

    def test_scaling_denominator(self):
        # The least integer D with D·Γ₁ ⊆ Γ₂ is the numerator of the least
        # rational scale, here and against the matrix reference.
        img = mul_lattice(GAUSSIAN, 1, 2)
        d = least_scale(img, [ZI.element(*b) for b in ZI.basis])
        assert d == 5 == scaling_denominator(ZI, img)
        scaled = Lattice(GAUSSIAN, ZI.d, d.numerator * ZI.b00, d.numerator * ZI.b01,
                         d.numerator * ZI.b11)
        assert contains_lattice(img, scaled)
        assert not contains_lattice(img, ZI)


class TestLeastScale:
    def test_multiples_are_exactly_r_z(self):
        rng = random.Random(9)
        for _ in range(40):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            base = mul_lattice(ring, rng.randint(1, 4), rng.randint(0, 3))
            points = [FieldElem(ring, F(rng.randint(-6, 6), rng.randint(1, 6)),
                                F(rng.randint(-6, 6), rng.randint(1, 6)))
                      for _ in range(rng.randint(1, 3))]
            if all(x.is_zero() for x in points):
                continue
            r = least_scale(base, points)
            assert r > 0
            # t = r·num/k fits exactly when num/k is an integer.
            for k in range(1, 7):
                for num in range(1, 3 * k + 1):
                    t = r * F(num, k)
                    fits = all(base.contains(x.scale(t)) for x in points)
                    assert fits == (num % k == 0), (t, r)

    def test_zero_points_refused(self):
        with pytest.raises(ValueError):
            ZI.least_scale([(0, 0)])


class TestCosetIntersection:
    """Γ₁ + Γ₂ as one Lattice.spanned frame for every point: u - v ∈ Γ₁ + Γ₂
    exactly when u and v share a residue on it."""

    def test_solves_membership(self):
        """The residue lies in the Hermite cell of the sum and a point minus
        it lies in the sum.  Two points share a residue exactly when
        references.coset_point finds a point of Γ₁ ∩ (u - v + Γ₂), and then
        exactly one of i·h0 + t·h1, 0 ≤ i < o, 0 ≤ t < n/o, for Γ₂'s Hermite
        basis h0, h1 and o the least integer with o·h0 ∈ Γ₁, lies in
        v - u + Γ₁: the witness rule of check_similarity."""
        rng = random.Random(3)
        for _ in range(40):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            l1 = mul_lattice(ring, rng.randint(1, 3), rng.randint(0, 2))
            l2 = mul_lattice(ring, rng.randint(1, 3), rng.randint(1, 3))
            u, v = (FieldElem(ring, F(rng.randint(-10, 10), rng.randint(1, 4)),
                              F(rng.randint(-10, 10), rng.randint(1, 4))) for _ in range(2))
            if rng.random() < 0.5:  # u - v in the sum
                v = u + point(l1, rng.randint(-3, 3), rng.randint(-3, 3)) \
                    + point(l2, rng.randint(-3, 3), rng.randint(-3, 3))
            fine, cell, xy = sum_frame(l1, l2, (u, v))
            assert cell == add(l1, l2)
            ru, rv = (cell.reduce(*p) for p in xy)
            for (px, py), (rx, ry) in zip(xy, (ru, rv)):
                assert cell.reduce(rx, ry) == (rx, ry)
                assert cell.contains_pair(px - rx, py - ry)
            ell = coset_point(l1, l2, u - v)
            assert (ell is not None) == (ru == rv) == add(l1, l2).contains(u - v)
            if ell is not None:
                assert l1.contains(ell) and l2.contains(ell - (u - v))
            n = fine.b00 * fine.b11 // (cell.b00 * cell.b11)
            h0, h1 = generators(l2)
            o = least_scale(l1, [h0]).numerator
            sigmas = [h0.scale(i) + h1.scale(t) for i in range(o) for t in range(n // o)]
            assert len(sigmas) == n
            assert not any(l1.contains(a - b) for i, a in enumerate(sigmas) for b in sigmas[:i])
            met = [x for x in sigmas if l1.contains(u - v + x)]
            assert len(met) == (ell is not None)

    def test_index_is_second_isomorphism(self):
        # [Γ₁ + Γ₂ : Γ₁] = [Γ₂ : Γ₁ ∩ Γ₂], on ideals and on rational lattices,
        # read as the ratio of the two determinants over one d.
        rng = random.Random(5)
        for _ in range(40):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            l1 = Lattice.from_generators(ring, [
                (F(rng.randint(1, 4), rng.randint(1, 3)), F(0)),
                (F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(1, 4), rng.randint(1, 3))),
            ])
            l2 = mul_lattice(ring, rng.randint(-3, 3), rng.randint(1, 3), base=l1)
            fine, total, _ = sum_frame(l1, l2, ())
            n = fine.b00 * fine.b11 // (total.b00 * total.b11)
            assert n == lat.index(l1, add(l1, l2))
            assert n == lat.index(intersect(l1, l2), l2)

    def test_columns_span_the_sum(self):
        l1 = RECT31
        l2 = mul_lattice(GAUSSIAN, 1, 2)
        h00, h01, h11 = lat._hnf_columns([*l1.basis, *l2.over(l1.d).basis])
        assert h00 > 0 and h11 > 0 and 0 <= h01 < h00
        assert Lattice(GAUSSIAN, math.lcm(l1.d, l2.d), h00, h01, h11) == add(l1, l2)
        assert sum_frame(l1, l2, ())[1] == add(l1, l2)


@st.composite
def generator_lists(draw):
    """A ring and 2–4 generators with denominators ≤ 12 of (1/den)·H, for a
    sheared H ⊆ Z² of index ≤ 16: H's Hermite columns under a drawn
    unimodular shear, then up to two integer combinations, in drawn order."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    index = draw(st.integers(1, 16))
    h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
    h01, h11 = draw(st.integers(0, h00 - 1)), index // h00
    small = st.integers(-2, 2)
    c = draw(small)
    gens = [(h00 + c * h01, c * h11), (h01, h11)]
    gens += [(a * h00 + b * h01, b * h11) for a, b in draw(st.lists(st.tuples(small, small), max_size=2))]
    den = draw(st.integers(1, 12))
    return ring, [(F(x, den), F(y, den)) for x, y in draw(st.permutations(gens))]


_points = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-12, 12), st.integers(1, 12),
              st.integers(-12, 12), st.integers(1, 12), st.booleans()),
    min_size=1, max_size=5)


class TestLatticeMatchesFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(generator_lists(), _points, st.integers(1, 4))
    def test_integer_lattice_matches_fraction_lattice(self, case, points, k):
        """The integer Hermite triple over d against the Fraction lattice it
        replaced: fields, least d, str, rewriting over k·d, index, the point
        t0·(b00, 0) + t1·(b01, b11) as an integer pair, and contains on
        points of Γ and points off it."""
        ring, gens = case
        lattice = Lattice.from_generators(ring, gens)
        reference = FractionLattice.from_generators(ring, gens)
        fields = (lattice.d, lattice.b00, lattice.b01, lattice.b11)
        assert all(type(c) is int for c in fields) and math.gcd(*fields) == 1
        assert FractionLattice.of(lattice) == reference
        assert str(lattice) == str(reference)

        wide = lattice.over(k * lattice.d)
        assert wide.d == k * lattice.d and FractionLattice.of(wide) == reference
        assert wide == lattice and hash(wide) == hash(lattice)
        assert lat.index(wide, lattice) == 1 == lat.index(lattice, wide)
        base = Lattice.ring_lattice(ring)
        assert lat.index(lattice, base) == reference.det
        assert lat.index(base, wide) == 1 / reference.det

        for t0, t1, a, b, c, e, on_lattice in points:
            x = reference.point(t0, t1)
            xy = (t0 * lattice.b00 + t1 * lattice.b01, t1 * lattice.b11)
            assert lattice.element(*xy) == x == wide.element(k * xy[0], k * xy[1])
            if not on_lattice:
                x = x + FieldElem(ring, F(a, b), F(c, e))
            assert lattice.contains(x) == reference.contains(x) == wide.contains(x)
