"""Ring arithmetic tests.  The Euclidean gcd and lcm that other tests use as
references are checked here against brute-force divisor enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simiso.rings import (
    EISENSTEIN,
    GAUSSIAN,
    FieldElem,
    RingElem,
    RingMismatchError,
    format_pair,
    over_denominator,
)
from simiso.similarity import Direction, Similarity, decompose

from references import content_and_primitive, ring_divmod, ring_gcd, ring_lcm

F = Fraction


def g(a, b):
    return RingElem(GAUSSIAN, a, b)


def e(a, b):
    return RingElem(EISENSTEIN, a, b)


def divides(d, x):
    if d.is_zero():
        return x.is_zero()
    t, n = x * d.conj(), d.norm()  # x / d = t / n
    return t.a % n == 0 and t.b % n == 0


def associated(x, y):
    """Whether x and y differ by a unit."""
    return x.norm() == y.norm() and divides(x, y)


def brute_force_gcds(x, y):
    """All maximum-norm common divisors, found by exhaustive search.

    Independent of the Euclidean algorithm: enumerates every candidate with
    norm up to min(norm(x), norm(y)) and keeps the largest-norm divisors.
    """
    bound = min(n for n in (x.norm(), y.norm()) if n > 0)
    side = math.isqrt(bound) + 2
    best_norm, best = 0, []
    for a in range(-side, side + 1):
        for b in range(-side, side + 1):
            cand = RingElem(x.ring, a, b)
            n = cand.norm()
            if n == 0 or n > bound or n < best_norm:
                continue
            if divides(cand, x) and divides(cand, y):
                if n > best_norm:
                    best_norm, best = n, [cand]
                else:
                    best.append(cand)
    return best


coord = st.integers(min_value=-30, max_value=30)
ring_tag = st.sampled_from([GAUSSIAN, EISENSTEIN])


@st.composite
def ring_elems(draw, nonzero=False):
    ring = draw(ring_tag)
    a, b = draw(coord), draw(coord)
    if nonzero and a == 0 and b == 0:
        a = 1
    return RingElem(ring, a, b)


class TestNorm:
    def test_gaussian_norm(self):
        assert g(1, 2).norm() == 5
        assert g(0, 0).norm() == 0

    def test_eisenstein_norm(self):
        assert e(2, 1).norm() == 3
        assert e(1, 1).norm() == 1  # 1+ω is a unit

    @given(ring_elems(), st.data())
    def test_multiplicative(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        assert (x * y).norm() == x.norm() * y.norm()

    def test_multiplicative_bulk(self):
        import random

        rng = random.Random(1)
        for ring in (GAUSSIAN, EISENSTEIN):
            for _ in range(1000):
                x = RingElem(ring, rng.randint(-80, 80), rng.randint(-80, 80))
                y = RingElem(ring, rng.randint(-80, 80), rng.randint(-80, 80))
                assert (x * y).norm() == x.norm() * y.norm()

    @given(ring_elems())
    def test_conj_preserves_norm(self, x):
        assert x.conj().norm() == x.norm()

    def test_positive_definite(self):
        for ring in (GAUSSIAN, EISENSTEIN):
            for a in range(-4, 5):
                for b in range(-4, 5):
                    x = RingElem(ring, a, b)
                    assert x.norm() >= 0
                    assert (x.norm() == 0) == x.is_zero()


class TestConj:
    def test_gaussian(self):
        assert g(3, 4).conj() == g(3, -4)

    def test_eisenstein(self):
        # conj(2+ω) = 1-ω since conj(ω) = -1-ω; norms agree: both 3.
        assert e(2, 1).conj() == e(1, -1)
        assert e(1, -1).norm() == 3 == e(2, 1).norm()

    @given(ring_elems())
    def test_involution(self, x):
        assert x.conj().conj() == x

    @given(ring_elems(), st.data())
    def test_multiplicative(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        assert (x * y).conj() == x.conj() * y.conj()

    def test_field_elem(self):
        x = FieldElem(EISENSTEIN, F(2, 3), F(1, 3))
        assert x.conj().conj() == x
        assert x.conj().norm() == x.norm()


class TestGcd:
    def test_paper_example(self):
        # 5 = (1+2i)(1-2i), so gcd(1+2i, 5) associates to 1+2i.  The
        # exhaustive divisor oracle confirms 5 is the maximal common norm.
        result = ring_gcd(g(1, 2), g(5, 0))
        oracle = brute_force_gcds(g(1, 2), g(5, 0))
        assert associated(result, g(1, 2))
        assert any(associated(result, d) for d in oracle)
        assert {d.norm() for d in oracle} == {5}

    def test_unit_argument(self):
        for z in (g(3, 7), g(-2, 5)):
            assert ring_gcd(z, g(1, 0)).norm() == 1

    def test_idempotent(self):
        assert associated(ring_gcd(e(2, 1), e(2, 1)), e(2, 1))

    def test_zero_one_side(self):
        assert associated(ring_gcd(g(0, 0), g(0, -3)), g(3, 0))

    def test_both_zero(self):
        with pytest.raises(ValueError):
            ring_gcd(g(0, 0), g(0, 0))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            ring_gcd(g(1, 0), e(1, 0))

    @given(ring_elems(nonzero=True), st.data())
    def test_divides_both(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        if y.is_zero():
            y = RingElem(x.ring, 1, 1)
        d = ring_gcd(x, y)
        assert divides(d, x) and divides(d, y)
        assert x.norm() % d.norm() == 0 and y.norm() % d.norm() == 0

    @given(ring_elems(nonzero=True), st.data())
    def test_unit_stable(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        if y.is_zero():
            return
        base = ring_gcd(x, y)
        for u in (RingElem(x.ring, 0, 1), RingElem(x.ring, -1, 0)):  # i or ω, and -1
            assert associated(ring_gcd(x * u, y), base)

    @settings(max_examples=40)
    @given(st.data())
    def test_maximal_norm_against_oracle(self, data):
        ring = data.draw(ring_tag)
        small = st.integers(min_value=-7, max_value=7)
        x = RingElem(ring, data.draw(small), data.draw(small))
        y = RingElem(ring, data.draw(small), data.draw(small))
        if x.is_zero() or y.is_zero():
            return
        oracle = brute_force_gcds(x, y)
        result = ring_gcd(x, y)
        assert result.norm() == oracle[0].norm()
        assert any(associated(result, d) for d in oracle)

    def test_maximal_norm_oracle_up_to_200(self):
        import random

        rng = random.Random(2)
        for ring in (GAUSSIAN, EISENSTEIN):
            done = 0
            while done < 20:
                x = RingElem(ring, rng.randint(-14, 14), rng.randint(-14, 14))
                y = RingElem(ring, rng.randint(-14, 14), rng.randint(-14, 14))
                if x.is_zero() or y.is_zero() or max(x.norm(), y.norm()) > 200:
                    continue
                oracle = brute_force_gcds(x, y)
                result = ring_gcd(x, y)
                assert result.norm() == oracle[0].norm()
                assert any(associated(result, d) for d in oracle)
                done += 1


class TestLcm:
    def test_formula_case(self):
        # lcm(pz, q) for z = 1+2i, p = 1, q = 5.  Norm identity
        # norm(lcm)·norm(gcd) = norm(x)·norm(y) pins the answer; the
        # brute-force common-multiple search below confirms minimality.
        x, y = g(1, 2), g(5, 0)
        m = ring_lcm(x, y)
        assert m.norm() * ring_gcd(x, y).norm() == x.norm() * y.norm()
        side = 8
        commons = [
            RingElem(GAUSSIAN, a, b)
            for a in range(-side, side + 1)
            for b in range(-side, side + 1)
            if not (a == 0 and b == 0)
            and divides(x, RingElem(GAUSSIAN, a, b))
            and divides(y, RingElem(GAUSSIAN, a, b))
        ]
        assert m.norm() == min(c.norm() for c in commons)

    def test_unit(self):
        assert associated(ring_lcm(g(2, 3), g(1, 0)), g(2, 3))

    def test_coprime_integers(self):
        assert associated(ring_lcm(g(2, 0), g(3, 0)), g(6, 0))
        assert associated(ring_lcm(e(2, 0), e(3, 0)), e(6, 0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ring_lcm(g(0, 0), g(2, 0))

    @given(ring_elems(nonzero=True), st.data())
    def test_product_identity(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        if y.is_zero():
            return
        m, d = ring_lcm(x, y), ring_gcd(x, y)
        assert m.norm() * d.norm() == x.norm() * y.norm()
        assert divides(x, m) and divides(y, m)


class TestContentPrimitive:
    """The reference split z = c·z0 agrees with decompose and Direction,
    which split integral multipliers on their integer coordinates."""

    @pytest.mark.parametrize(
        "elem,expected",
        [
            (g(2, 4), (2, g(1, 2))),
            (g(1, 2), (1, g(1, 2))),
            (e(3, 3), (3, e(1, 1))),
        ],
    )
    def test_examples(self, elem, expected):
        assert content_and_primitive(elem) == expected
        assert decompose(Similarity(elem)) == (expected[0], Direction(expected[1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            content_and_primitive(g(0, 0))
        for make in (Similarity, Direction):
            with pytest.raises(ValueError, match="must be nonzero"):
                make(g(0, 0))

    def test_integral_fractions_read_as_ints(self):
        c, z0 = content_and_primitive(FieldElem(GAUSSIAN, F(4), F(-2)))
        assert (c, z0) == (2, g(2, -1))
        assert type(z0.a) is int and type(z0.b) is int
        ratio, d = decompose(Similarity(FieldElem(GAUSSIAN, F(4), F(-2))))
        assert (ratio, FieldElem(d.ring, *d.ints)) == (c, z0) and all(type(v) is int for v in d.ints)

    def test_non_integral_refused(self):
        for split in (content_and_primitive, Direction):
            with pytest.raises(ValueError, match="not an element of the ring"):
                split(FieldElem(EISENSTEIN, F(1, 2), F(1)))

    @given(ring_elems(nonzero=True))
    def test_roundtrip(self, x):
        c, z0 = content_and_primitive(x)
        assert c > 0
        assert math.gcd(z0.a, z0.b) == 1
        scaled = RingElem(x.ring, c * z0.a, c * z0.b)
        assert scaled == x
        assert decompose(Similarity(x)) == (c, Direction(z0))


class TestDivision:
    @given(ring_elems(), st.data())
    def test_divmod(self, x, data):
        y = RingElem(x.ring, data.draw(coord), data.draw(coord))
        if y.is_zero():
            return
        q, r = ring_divmod(x, y)
        assert q * y + r == x
        assert r.norm() < y.norm()


class TestFieldElem:
    def test_clear_denominators(self):
        # x = r/n with n the least denominator, read by over_denominator, and
        # decompose splits w = x as (1/n)·r with r primitive.
        x = FieldElem(EISENSTEIN, F(2, 3), F(1, 6))
        n, (a, b) = over_denominator((x.a, x.b))
        assert n == 6 and e(a, b) == e(4, 1)
        assert e(a, b).scale(F(1, n)) == x
        ratio, d = decompose(Similarity(x))
        assert ratio == F(1, 6) and FieldElem(d.ring, *d.ints) == e(4, 1)

    def test_clear_denominators_minimal(self):
        assert over_denominator((F(1, 2), F(3, 2))) == (2, [1, 3])
        ratio, d = decompose(Similarity(FieldElem(GAUSSIAN, F(1, 2), F(3, 2))))
        assert ratio == F(1, 2) and FieldElem(d.ring, *d.ints) == g(1, 3)
        # The content of the numerator goes into the ratio.
        ratio, d = decompose(Similarity(FieldElem(GAUSSIAN, F(2, 3), F(4, 3))))
        assert ratio == F(2, 3) and FieldElem(d.ring, *d.ints) == g(1, 2)

    def test_str(self):
        assert str(FieldElem(EISENSTEIN, F(2, 3), F(1, 3))) == "(2+ω)/3"
        assert str(FieldElem(GAUSSIAN, F(1, 2), F(0))) == "1/2"
        assert str(FieldElem(GAUSSIAN, F(0), F(0))) == "0"
        assert str(g(1, -1)) == "1-i"
        assert str(e(0, 2)) == "2ω"

    def test_format_pair_lowest_terms(self):
        assert format_pair(EISENSTEIN, 4, 2, 6) == "(2+ω)/3"
        assert format_pair(GAUSSIAN, -3, -6, 6) == "(-1-2i)/2"
        assert format_pair(GAUSSIAN, 0, -4, 2) == "-2i"
        assert format_pair(GAUSSIAN, 3, 0, 9) == "1/3"
        assert format_pair(EISENSTEIN, 0, 0, 7) == "0"

    @given(st.sampled_from((GAUSSIAN, EISENSTEIN)), coord, coord,
           st.integers(1, 60), st.integers(1, 12))
    def test_format_pair_is_the_point_text(self, ring, x, y, d, k):
        # The text depends on the point (x + y·u)/d only, and is the text of
        # that point as a FieldElem.
        text = format_pair(ring, x, y, d)
        assert format_pair(ring, k * x, k * y, k * d) == text
        assert str(FieldElem(ring, F(x, d), F(y, d))) == text
