"""Similarity decomposition, denominators, lattice scaling-factor sets."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simiso import lattices as lat, similarity as sim
from simiso.lattices import Lattice
from simiso.packings import PointPacking
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, RingElem, RingMismatchError
from simiso.similarity import (
    Direction,
    ResidueClass,
    ScalSet,
    Similarity,
    compose,
    decompose,
    denominator,
    format_scale,
    scal_lattice,
)

from references import apply, concrete_class, contains_lattice, symbolic_class

F = Fraction
ZI = Lattice.ring_lattice(GAUSSIAN)
ZW = Lattice.ring_lattice(EISENSTEIN)
RECT31 = Lattice.from_generators(GAUSSIAN, [(F(3), F(0)), (F(0), F(1))])


def fe(ring, a, b):
    return FieldElem(ring, F(a), F(b))


ring_tag = st.sampled_from([GAUSSIAN, EISENSTEIN])
num = st.integers(min_value=-20, max_value=20)
den = st.integers(min_value=1, max_value=12)


@st.composite
def field_elems(draw, nonzero=False):
    ring = draw(ring_tag)
    a = F(draw(num), draw(den))
    b = F(draw(num), draw(den))
    if nonzero and a == 0 and b == 0:
        a = F(1)
    return FieldElem(ring, a, b)


class TestSimilarity:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Similarity(FieldElem.zero(GAUSSIAN))

    def test_apply_rotation(self):
        s = Similarity(fe(GAUSSIAN, 0, 1))
        assert s.map_pairs([(1, 0)]) == (1, [(0, 1)])

    def test_apply_reflection(self):
        s = Similarity(FieldElem(GAUSSIAN, 1, 0), conjugate=True)
        assert s.map_pairs([(2, 3)]) == (1, [(2, -3)])

    def test_scale_sq(self):
        assert Similarity(fe(GAUSSIAN, 2, 2)).scale_sq() == 8  # β = 2√2


@st.composite
def integer_triples(draw):
    """(ring, e, a, b, conjugate) for w = (a + b·u)/e with e ≠ 0 of either
    sign and (a, b) ≠ 0, often unreduced: a factor k is drawn into all three."""
    k = draw(st.integers(1, 6))
    e = k * draw(st.integers(-12, 12).filter(bool))
    a, b = draw(st.tuples(num, num).filter(any))
    return draw(ring_tag), e, k * a, k * b, draw(st.booleans())


@st.composite
def lattices_with_pairs(draw, ring):
    """A lattice Γ over d ≤ 4 of index ≤ 4 in (1/d)·Z², and a few integer
    pairs over d."""
    d = draw(st.integers(1, 4))
    h00, h11 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gamma = Lattice(ring, d, h00, draw(st.integers(0, h00 - 1)), h11)
    return gamma, draw(st.lists(st.tuples(num, num), min_size=1, max_size=4))


class TestIntegerConstructor:
    """Similarity.from_ints and Direction.from_ints against the FieldElem
    constructors, and the FieldElem products that the triple replaces."""

    @given(integer_triples(), st.data())
    def test_from_ints_matches_fieldelem_entry(self, triple, data):
        ring, e, a, b, conjugate = triple
        w = FieldElem(ring, F(a, e), F(b, e))
        s, t = Similarity.from_ints(ring, e, a, b, conjugate), Similarity(w, conjugate)
        assert s == t and hash(s) == hash(t) and s.ints == t.ints
        assert s.ring == ring and s.conjugate is conjugate
        e2, a2, b2 = s.ints
        assert e2 > 0 and math.gcd(a2, b2, e2) == 1 and (F(a2, e2), F(b2, e2)) == (w.a, w.b)
        assert s.w == t.w == w and str(s) == str(t)
        assert s.scale_sq() == t.scale_sq() == w.norm()
        gamma, pairs = data.draw(lattices_with_pairs(ring))
        assert s.map_pairs(pairs) == t.map_pairs(pairs)
        ex, images = s.map_pairs(pairs)
        for (x, y), (ix, iy) in zip(pairs, images, strict=True):
            point = FieldElem(ring, F(x, gamma.d), F(y, gamma.d))
            assert FieldElem(ring, F(ix, ex * gamma.d), F(iy, ex * gamma.d)) == apply(t, point)
        img = s.image_lattice(gamma)
        assert img == t.image_lattice(gamma) and img.d == t.image_lattice(gamma).d
        assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s
        assert Similarity.from_ints(ring, e, a, b, not conjugate) != t

    @given(ring_tag, st.tuples(num, num).filter(lambda ab: math.gcd(*ab) == 1),
           st.booleans(), st.integers(-30, 30).filter(bool), st.integers(1, 12))
    def test_direction_from_ints(self, ring, z, conjugate, p, q):
        d = Direction.from_ints(ring, *z, conjugate)
        elem = FieldElem(ring, *z)
        assert d == Direction(elem, conjugate) and hash(d) == hash(Direction(elem, conjugate))
        assert FieldElem(ring, *d.ints) == elem and d.ints == z and d.norm() == elem.norm()
        assert str(d) == f"({elem})/|{elem}|" + ("·conj" if conjugate else "")
        assert copy.copy(d) == d and pickle.loads(pickle.dumps(d)) == d
        ratio = F(p, q)
        assert d.similarity(ratio) == Similarity(elem.scale(ratio), conjugate)
        assert d.similarity(p) == Similarity(elem.scale(p), conjugate)

    def test_immutable(self):
        s = Similarity.from_ints(GAUSSIAN, 2, 1, 1)
        d = Direction.from_ints(GAUSSIAN, 1, 1)
        p = PointPacking.from_pairs(Lattice(EISENSTEIN, 3, 3, 1, 3), [(0, 0), (2, 1)])
        for obj, name in ((s, "ints"), (s, "conjugate"), (d, "ints"), (d, "ring"),
                          (p, "residues"), (p, "lattice")):
            with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable: "
                                                     f"cannot set '{name}'"):
                setattr(obj, name, None)

    def test_repr_is_the_constructor_call(self):
        names = {"Lattice": Lattice, "PointPacking": PointPacking,
                 "Similarity": Similarity, "Direction": Direction}
        values = (PointPacking.from_pairs(Lattice(GAUSSIAN, 2, 6, 2, 2), [(1, 0), (3, 1)]),
                  Similarity.from_ints(EISENSTEIN, 3, -2, 1, True),
                  Direction.from_ints(GAUSSIAN, 2, -1))
        for v in values:
            assert eval(repr(v), names) == v
        assert repr(values[1]) == "Similarity.from_ints('eisenstein', 3, -2, 1, True)"

    def test_refusals(self):
        with pytest.raises(ValueError, match="multiplier must be nonzero"):
            Similarity.from_ints(GAUSSIAN, 3, 0, 0)
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            Similarity.from_ints(GAUSSIAN, 0, 1, 0)
        with pytest.raises(ValueError, match="unknown ring tag"):
            Similarity.from_ints("quaternion", 1, 1, 0)
        with pytest.raises(ValueError, match="direction element 2\\+4ω is not primitive"):
            Direction.from_ints(EISENSTEIN, 2, 4)
        with pytest.raises(ValueError, match="unknown ring tag"):
            Direction.from_ints("quaternion", 1, 0)


class TestDecompose:
    @pytest.mark.parametrize(
        "w,ratio,z",
        [
            (fe(GAUSSIAN, 1, 2), F(1), (1, 2)),
            (FieldElem(GAUSSIAN, F(2, 5), F(4, 5)), F(2, 5), (1, 2)),
            (fe(GAUSSIAN, 2, 2), F(2), (1, 1)),
        ],
    )
    def test_examples(self, w, ratio, z):
        r, d = decompose(Similarity(w))
        assert r == ratio
        assert d.ints == z

    def test_negative_folds_into_z(self):
        r, d = decompose(Similarity(fe(GAUSSIAN, -3, 0)))
        assert r == 3 and FieldElem(d.ring, *d.ints) == RingElem(GAUSSIAN, -1, 0)

    @given(field_elems(nonzero=True), st.booleans())
    def test_roundtrip(self, w, conjugate):
        r, d = decompose(Similarity(w, conjugate))
        assert r > 0
        assert math.gcd(*d.ints) == 1
        assert d.conjugate == conjugate
        assert FieldElem(d.ring, *d.ints).scale(r) == w

    def test_roundtrip_bulk(self):
        import random

        rng = random.Random(6)
        for _ in range(1000):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            w = FieldElem(
                ring,
                F(rng.randint(-40, 40), rng.randint(1, 15)),
                F(rng.randint(-40, 40), rng.randint(1, 15)),
            )
            if w.is_zero():
                continue
            r, d = decompose(Similarity(w))
            assert r > 0 and FieldElem(d.ring, *d.ints).scale(r) == w


class TestCompose:
    def test_quarter_turns(self):
        i_turn = Similarity(fe(GAUSSIAN, 0, 1))
        out = compose(i_turn, i_turn)
        assert out.w == fe(GAUSSIAN, -1, 0) and not out.conjugate

    def test_reflection_squares_to_identity(self):
        t = Similarity(FieldElem(GAUSSIAN, 1, 0), conjugate=True)
        out = compose(t, t)
        assert out.w == FieldElem(GAUSSIAN, 1, 0) and not out.conjugate

    def test_rings_mismatch_refused(self):
        s2, s1 = (Similarity.from_ints(ring, 1, 1, 0) for ring in (GAUSSIAN, EISENSTEIN))
        with pytest.raises(RingMismatchError, match="^cannot mix gaussian and eisenstein elements$"):
            compose(s2, s1)

    def test_conjugate_pair(self):
        s2 = Similarity(fe(GAUSSIAN, 1, 2))
        s1 = Similarity(fe(GAUSSIAN, 1, -2))
        out = compose(s2, s1)
        assert out.w == fe(GAUSSIAN, 5, 0)
        # Verified pointwise on sample points.
        for pt in (fe(GAUSSIAN, 1, 0), fe(GAUSSIAN, -2, 3)):
            assert apply(out, pt) == apply(s2, apply(s1, pt))

    @given(field_elems(nonzero=True), field_elems(nonzero=True), st.booleans(), st.booleans())
    def test_matches_pointwise(self, w2, w1, c2, c1):
        if w1.ring != w2.ring:
            return
        s2, s1 = Similarity(w2, c2), Similarity(w1, c1)
        out = compose(s2, s1)
        for pt in (FieldElem(w1.ring, 1, 0), FieldElem(w1.ring, F(1, 2), F(2, 3))):
            assert apply(out, pt) == apply(s2, apply(s1, pt))


class TestDenominator:
    def test_ring_lattice_rotation(self):
        assert denominator(ZI, Direction(RingElem(GAUSSIAN, 1, 2))) == (1, 1)

    def test_rect31_quarter_turn(self):
        assert denominator(RECT31, Direction(RingElem(GAUSSIAN, 0, 1))) == (3, 1)

    def test_hexagonal_unit(self):
        assert denominator(ZW, Direction(RingElem(EISENSTEIN, 1, 1))) == (1, 1)

    def test_reflections_on_ring_lattices(self):
        for ring, base in ((GAUSSIAN, ZI), (EISENSTEIN, ZW)):
            d = Direction(RingElem(ring, 2, 1), conjugate=True)
            assert denominator(base, d) == (1, 1)

    def test_minimality(self):
        # No rational r' in (0, den) with denominator ≤ 12 maps Γ into Γ.
        cases = [
            (ZI, Direction(RingElem(GAUSSIAN, 1, 2))),
            (RECT31, Direction(RingElem(GAUSSIAN, 0, 1))),
            (ZW, Direction(RingElem(EISENSTEIN, 1, 1))),
            (RECT31, Direction(RingElem(GAUSSIAN, 1, 1))),
            (RECT31, Direction(RingElem(GAUSSIAN, 0, 1), conjugate=True)),
            (RECT31, Direction(RingElem(GAUSSIAN, 1, 2), conjugate=True)),
        ]
        for base, d in cases:
            r = Fraction(*denominator(base, d))
            s = d.similarity(r)
            assert contains_lattice(base, s.image_lattice(base))
            for b in range(1, 13):
                for a in range(1, math.ceil(r * b)):
                    rp = F(a, b)
                    if rp >= r:
                        continue
                    img = d.similarity(rp).image_lattice(base)
                    assert not contains_lattice(base, img)


class TestScalLattice:
    def test_ring_lattice(self):
        ss = scal_lattice(ZI, Direction(RingElem(GAUSSIAN, 1, 2)))
        assert ss.contains_ratio(1) and ss.contains_ratio(-4)
        assert not ss.contains_ratio(F(1, 2))
        assert ss.display() == "√5·Z"

    def test_den_with_a_denominator(self):
        # Γ = (2+i)·Z[i] and the reflection along 3+4i: den(Γ, R) = (1/5)·|z|,
        # so (1/5)·Z holds the p/5 and the integers, one class over each q | 5.
        # With |z| = 5 the integers show as 5Z; the reduced p/5 keep their
        # lead 1/5·5, as p runs over the integers prime to 5 only.
        gamma = Lattice.from_generators(GAUSSIAN, [(F(2), F(1)), (F(-1), F(2))])
        ss = scal_lattice(gamma, Direction.from_ints(GAUSSIAN, 3, 4, True))
        assert ss.classes == (ResidueClass(5, 1, frozenset({0})), ResidueClass(1, 1, frozenset({0})))
        assert ss.contains_ratio(F(2, 5)) and ss.contains_ratio(3) and not ss.contains_ratio(F(1, 10))
        assert ss.display() == "5Z ∪ 1/5·5·Z"

    def test_identity_direction(self):
        ss = scal_lattice(RECT31, Direction(RingElem(GAUSSIAN, 1, 0)))
        assert ss.min_positive_ratio() == 1

    def test_min_positive_ratio_steps_up_past_common_factors(self):
        # The p ≡ 3 (mod 4) prime to q = 3 are 7, 11, ..., so the least is 7/3.
        c = sim.ResidueClass(q=3, modulus=4, residues=frozenset({3}))
        assert ScalSet(Direction.from_ints(GAUSSIAN, 1, 0), (c,)).min_positive_ratio() == F(7, 3)

    def test_rect31_quarter_turn(self):
        ss = scal_lattice(RECT31, Direction(RingElem(GAUSSIAN, 0, 1)))
        assert ss.contains_ratio(3) and ss.contains_ratio(-6) and ss.contains_ratio(0)
        assert not ss.contains_ratio(1) and not ss.contains_ratio(2)
        assert ss.display() == "3Z"
        # 0 = 0/1 lies in a class only when q = 1 and 0 is a residue.
        for q, residues, has_zero in ((1, {0}, True), (1, {1, 2}, False),
                                      (2, {0}, False), (2, {1}, False)):
            c = sim.ResidueClass(q, 3, frozenset(residues))
            assert c.contains_ratio(F(0)) is has_zero

    def test_scal_multiplicativity(self):
        # A member of Scal(Γ,R)·Scal(Γ,S) lies in Scal(Γ,RS).
        import random

        rng = random.Random(5)
        for _ in range(60):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            base = Lattice.ring_lattice(ring)
            zs = []
            while len(zs) < 2:
                z = RingElem(ring, rng.randint(-6, 6), rng.randint(-6, 6))
                if not z.is_zero() and math.gcd(z.a, z.b) == 1:
                    zs.append(z)
            d1, d2 = Direction(zs[0]), Direction(zs[1])
            r1 = Fraction(*denominator(base, d1)) * rng.randint(1, 3)
            r2 = Fraction(*denominator(base, d2)) * rng.randint(1, 3)
            product = compose(d2.similarity(r2), d1.similarity(r1))
            rc, dc = decompose(product)
            assert rc % Fraction(*denominator(base, dc)) == 0

    def test_negative_beta(self):
        # β ∈ Scal(Γ,R) implies -βRΓ ⊆ Γ as well.
        for base, d in (
            (ZI, Direction(RingElem(GAUSSIAN, 1, 2))),
            (RECT31, Direction(RingElem(GAUSSIAN, 0, 1))),
            (ZW, Direction(RingElem(EISENSTEIN, 2, 1))),
        ):
            r = Fraction(*denominator(base, d))
            for sign in (1, -1):
                img = d.similarity(sign * r).image_lattice(base)
                assert contains_lattice(base, img)


class TestDirection:
    def test_requires_primitive(self):
        with pytest.raises(ValueError):
            Direction(RingElem(GAUSSIAN, 2, 4))
        with pytest.raises(ValueError):
            Direction(RingElem(GAUSSIAN, 0, 0))

    def test_no_unit_normalization(self):
        assert Direction(RingElem(GAUSSIAN, 0, 1)) != Direction(RingElem(GAUSSIAN, 1, 0))

    def test_integral_fractions_read_as_ints(self):
        d = Direction(FieldElem(GAUSSIAN, Fraction(2), Fraction(1)), conjugate=True)
        assert d == Direction(FieldElem(GAUSSIAN, 2, 1), conjugate=True)
        assert all(type(v) is int for v in d.ints)
        assert d.norm() == 5 and str(d) == "(2+i)/|2+i|·conj"

    def test_non_integral_refused(self):
        for z in (FieldElem(GAUSSIAN, Fraction(1, 2), 0), FieldElem(EISENSTEIN, 1, Fraction(3, 2))):
            with pytest.raises(ValueError, match="not an element of the ring"):
                Direction(z)


class TestDisplay:
    def test_format_scale(self):
        assert format_scale(F(1), 5) == "√5"
        assert format_scale(F(2), 2) == "2·√2"
        assert format_scale(F(2), 1) == "2"
        assert format_scale(F(1), 4) == "2"
        assert format_scale(F(1, 2), 2) == "1/2·√2"

    def test_empty_set(self):
        assert ScalSet(Direction(RingElem(EISENSTEIN, 2, 1)), ()).display() == "∅"

    def test_class_over_q_with_a_surd(self):
        scal = ScalSet(Direction.from_ints(GAUSSIAN, 1, 2), (ResidueClass(2, 3, frozenset({1})),))
        assert scal.display() == "1/2·√5·(1+3Z)"

    def test_class_display_matches_the_two_printers(self):
        # Every class r + modulus·Z over q, q ≤ 7 and modulus ≤ 12, against
        # den and against |z| = √N for N ≤ 49, squares and surds alike: one
        # residue at a time, then all residues of the modulus joined by ∪.
        for q in range(1, 8):
            for modulus in range(1, 13):
                every = ResidueClass(q, modulus, frozenset(range(modulus)))
                assert every.display() == " ∪ ".join(
                    symbolic_class(q, modulus, r) for r in range(modulus))
                for norm_z in range(1, 50):
                    assert every.display(norm_z) == " ∪ ".join(
                        concrete_class(q, modulus, r, norm_z) for r in range(modulus))
                for r in range(modulus):
                    c = ResidueClass(q, modulus, frozenset({r}))
                    assert c.display() == symbolic_class(q, modulus, r)
                    for norm_z in range(1, 50):
                        assert c.display(norm_z) == concrete_class(q, modulus, r, norm_z)
