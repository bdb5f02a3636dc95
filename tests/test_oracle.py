"""Brute-force verifier tests: containment certificates, the correspondence
counted in one period cell, and engine agreement; and render's window
enumeration against the oracle's old one."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simiso import lattices as lat, oracle as orc, packings as pk
from simiso.lattices import Lattice
from simiso.packings import PointPacking
from simiso.presets import preset
from simiso.render import points_in_window, window_frame
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, RingElem, over_denominator
from simiso.similarity import Direction, Similarity

import references as ref

F = Fraction


def fe(ring, a, b):
    return FieldElem(ring, F(a), F(b))


def simw(ring, a, b, conjugate=False):
    return Similarity(fe(ring, a, b), conjugate)


WINDOW = (F(0), F(0), F(3), F(3))


def render_points(lattice, d, shifts, window):
    """render's points of each component shift + Γ, shifts integer pairs
    over d, enumerated in one frame and read as floats (a/D, b/D)."""
    lattice, shifts, box = window_frame(lattice, d, shifts, over_denominator(window))
    return [[(a / lattice.d, b / lattice.d)
             for a, bs in points_in_window(lattice, x, box) for b in bs] for x in shifts]


def window_points(packing, window):
    """render's points of every component of the packing, in one sorted list."""
    gamma = packing.lattice
    return sorted(p for ps in render_points(gamma, gamma.d, packing.residues, window) for p in ps)


class TestPointsInWindow:
    """render.points_in_window, the one window enumeration left; the old
    Fraction enumeration of the oracle is the reference."""

    def test_square_lattice(self):
        assert len(render_points(Lattice.ring_lattice(GAUSSIAN), 1, [(0, 0)], WINDOW)[0]) == 9

    def test_hexagonal(self):
        pts = window_points(preset("hex"), WINDOW)
        assert len(pts) == 18

    def test_shifted_hexagonal_omits_origin(self):
        pts = window_points(preset("hex-shifted"), WINDOW)
        assert len(pts) == 18
        assert (0.0, 0.0) not in pts

    def test_points_really_belong(self):
        packing = preset("rect12")
        window = (F(-2), F(-2), F(2), F(2))
        expected = ref.points_in_window(packing, window)
        assert window_points(packing, window) == sorted((float(p.a), float(p.b)) for p in expected)
        for p in expected:
            assert ref.packing_contains(packing, p)
            assert -2 <= p.a < 2 and -2 <= p.b < 2

    def test_density(self):
        # Count in a window of area A is m·A/det(B) up to boundary terms.
        packing = preset("ex34")
        for size in (6, 12, 24):
            pts = window_points(packing, (F(0), F(0), F(size), F(size)))
            expected = packing.m * size * size / float(ref.FractionLattice.of(packing.lattice).det)
            assert abs(len(pts) - expected) <= 4 * size + 4

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            render_points(Lattice.ring_lattice(EISENSTEIN), 1, [(0, 0)], (F(0), F(0), F(0), F(3)))

    def test_narrow_window_between_columns(self):
        # Γ = ⟨(3, 0), (1, 1)⟩ over d = 2: rows b = -4, -2, 0 start at the
        # residues a ≡ 2, 4, 0 (mod 6), and the window [-5, -4) over d holds
        # only the column a = -5 ≡ 1, so the rows meet no column.  Shifted
        # by (1, 0) over d, the row b = 0 starts at a ≡ 1 and meets it.
        gamma = Lattice(GAUSSIAN, 2, 6, 2, 2)
        assert points_in_window(gamma, (0, 0), (-5, -4, -4, 2)) == []
        assert points_in_window(gamma, (0, 0), (-4, -4, -3, 2)) == [(-4, [-4])]
        assert points_in_window(gamma, (1, 0), (-5, -4, -4, 2)) == [(-5, [0])]

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from((GAUSSIAN, EISENSTEIN)),
        st.tuples(*[st.integers(1, 4)] * 2, st.integers(0, 3), st.integers(1, 3)),
        st.tuples(*[st.fractions(-3, 3, max_denominator=7)] * 2),
        st.tuples(*[st.fractions(-6, 6, max_denominator=5)] * 2),
        st.tuples(*[st.fractions(F(1, 5), 6, max_denominator=5)] * 2),
        st.booleans(),
    )
    def test_matches_reference(self, ring, shape, shift, corner, size, narrow):
        # A sheared Γ = (1/den)·⟨(h00, 0), (h01, h11)⟩ and a window with
        # rational, often negative, corners.  A narrow window lies left of
        # and below the origin and is less wide than the column spacing
        # h00/den, so rows of some residue class meet no column in it, and
        # often the component has no point in it.
        h00, h11, h01, den = shape
        gamma = Lattice.from_generators(ring, [(F(h00, den), F(0)), (F(h01, den), F(h11, den))])
        x = FieldElem(ring, *shift)
        width = size[0]
        if narrow:
            width = size[0] / 7 * F(h00, den)
            corner = tuple(-abs(c) - F(1, 7) for c in corner)
        window = (*corner, corner[0] + width, corner[1] + size[1])
        g, xy = gamma.with_points((x,))
        lattice, [x_xy], box = window_frame(g, g.d, xy, over_denominator(window))
        columns = points_in_window(lattice, x_xy, box)
        assert all(a < c for (a, _), (c, _) in zip(columns, columns[1:]))
        assert all(b < c for _, bs in columns for b, c in zip(bs, bs[1:]))
        expected = ref.points_in_window(PointPacking(gamma, (x,)), window)
        assert [lattice.element(a, b) for a, bs in columns for b in bs] == expected
        assert render_points(g, g.d, xy, window) == [[(float(p.a), float(p.b)) for p in expected]]


class TestCertifySubpacking:
    def test_rect12_octagonal_scaling(self):
        ok, witness = orc.certify_subpacking(preset("rect12"), simw(GAUSSIAN, 2, 2))
        assert ok and witness is None

    def test_hexagonal_doubled_rotation(self):
        ok, _ = orc.certify_subpacking(preset("hex"), simw(EISENSTEIN, 2, 2))
        assert ok

    def test_hexagonal_unit_rotation_refuted(self):
        packing = preset("hex")
        s = simw(EISENSTEIN, 1, 1)
        ok, witness = orc.certify_subpacking(packing, s)
        assert not ok
        # The counterexample is a genuine point of s(L) outside L.
        assert witness is not None
        assert not ref.packing_contains(packing, witness)
        image = PointPacking(s.image_lattice(packing.lattice),
                             tuple(ref.apply(s, x) for x in packing.shifts))
        assert ref.packing_contains(image, witness)

    def test_shifted_hexagonal_symmetry(self):
        ok, _ = orc.certify_subpacking(preset("hex-shifted"), simw(EISENSTEIN, 1, 1))
        assert ok


@st.composite
def counting_cases(draw, max_shift_den=12):
    """A packing over Γ = Lattice.from_generators of a sheared H ⊆ Z² of
    index ≤ 4 with denominators ≤ 12, often not a ring lattice, with m ≤ 3
    shifts of denominator ≤ max_shift_den, and a primitive z = a + bu with
    |a|, |b| ≤ 2 for a rotation or a reflection; both rings."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    h00, h11 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h01, c = draw(st.integers(0, h00 - 1)), draw(st.integers(-2, 2))
    den = draw(st.integers(1, 12))
    gamma = Lattice.from_generators(
        ring, [(F(h00 + c * h01, den), F(c * h11, den)), (F(h01, den), F(h11, den))])
    coord = st.fractions(-1, 1, max_denominator=max_shift_den)
    shifts = [FieldElem.zero(ring)]
    for a, b in draw(st.lists(st.tuples(coord, coord), max_size=2)):
        x = FieldElem(ring, a, b)
        if all(not gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
        lambda ab: math.gcd(*ab) == 1))
    d = Direction(FieldElem(ring, a, b), draw(st.booleans()))
    return PointPacking(gamma, tuple(shifts)), d


@st.composite
def union_cases(draw):
    """Λ = (1/den)·R written as the m = h00·h11 ≤ 4 cosets (i, j)/den of
    Γ = (1/den)·⟨(h00 + c·h01, c·h11), (h01, h11)⟩, den ≤ 7, a sheared
    non-ring Γ, with a nonzero w = a + bu ∈ R, |a|, |b| ≤ 2, for a rotation
    or a reflection; both rings.  s(Λ) ⊆ Λ, so s is accepted, with n up to m
    and τ spread over several targets."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    h00, h11 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h01, c = draw(st.integers(0, h00 - 1)), draw(st.integers(-1, 1))
    den = draw(st.integers(1, 7))
    gamma = Lattice.from_generators(
        ring, [(F(h00 + c * h01, den), F(c * h11, den)), (F(h01, den), F(h11, den))])
    shifts = tuple(fe(ring, F(i, den), F(j, den)) for j in range(h11) for i in range(h00))
    a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda ab: ab != (0, 0)))
    return PointPacking(gamma, shifts), simw(ring, a, b, draw(st.booleans()))


def assert_matches_engine(packing, s):
    """The oracle's n and τ are the engine's, and its index is β²."""
    report = pk.check_similarity(packing, s)
    found = orc.index_by_counting(packing, s)
    assert report.accepted
    assert found.n == {report.n} and found.tau == report.tau
    assert found.index == s.scale_sq()


class TestIndexByCounting:
    def test_hexagonal_doubled_rotation(self):
        # β = 2 for w = 2(1+ω): the density ratio equals β² = norm(w) = 4.
        s = simw(EISENSTEIN, 2, 2)
        found = orc.index_by_counting(preset("hex"), s)
        assert found.index == 4 == s.scale_sq()
        assert found.n == {1} and found.tau == ((0, 0), (1, 1))

    def test_symmetry_has_index_one(self):
        # ex34 is Z[i] as the three cosets of 3Z + iZ; i maps each of them
        # onto a coset of Z + 3iZ, which meets all three.
        found = orc.index_by_counting(preset("ex34"), simw(GAUSSIAN, 0, 1))
        assert found.index == 1 and found.n == {3}
        assert found.tau == tuple((k, j) for k in range(3) for j in range(3))

    def test_shifted_hexagonal_swaps_components(self):
        # 1+ω carries each component of the shifted hexagonal packing onto
        # the other (Table 4, N(z) = 3).
        found = orc.index_by_counting(preset("hex-shifted"), simw(EISENSTEIN, 1, 1))
        assert found.n == {1} and found.tau == ((0, 1), (1, 0))

    def test_requires_containment(self):
        with pytest.raises(ValueError):
            orc.index_by_counting(preset("hex"), simw(EISENSTEIN, 1, 1))

    def test_refusal_carries_a_point_of_the_image_outside_l(self):
        packing, s = preset("hex"), simw(EISENSTEIN, 1, 1)
        with pytest.raises(orc.NotContained) as refused:
            orc.index_by_counting(packing, s)
        point = refused.value.point
        image = PointPacking(s.image_lattice(packing.lattice),
                             tuple(ref.apply(s, x) for x in packing.shifts))
        assert ref.packing_contains(image, point) and not ref.packing_contains(packing, point)

    def test_matches_norm_on_random_accepted_cases(self):
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            case = orc.random_case(
                rng,
                rng.choice((GAUSSIAN, EISENSTEIN)),
                max_norm=20,
                p_bound=3,
                q_bound=2,
            )
            ok, _ = orc.certify_subpacking(case.packing, case.similarity)
            if not ok:
                continue
            assert_matches_engine(case.packing, case.similarity)
            checked += 1

    @settings(max_examples=100, deadline=None)
    @given(counting_cases(max_shift_den=4), st.integers(1, 2))
    def test_index_is_beta_squared_on_accepted_cases(self, case, p):
        # r·z maps Γ's generators and every shift into Γ, so p·r·z maps L
        # into Γ ⊆ L for every p.
        packing, d = case
        z = d.similarity(1)
        gamma = packing.lattice
        r = ref.least_scale(gamma, [ref.apply(z, x)
                                    for x in ref.generators(gamma) + list(packing.shifts)])
        s = d.similarity(p * r)
        assume(lat.index(orc._period_frame(packing, s)[2], gamma) <= 2_500)
        assert_matches_engine(packing, s)

    @settings(max_examples=100, deadline=None)
    @given(union_cases())
    def test_n_and_tau_match_engine(self, case):
        packing, s = case
        assume(lat.index(orc._period_frame(packing, s)[2], packing.lattice) <= 2_500)
        assert_matches_engine(packing, s)


class TestScalSetBruteforce:
    def test_hexagonal_unit_direction(self):
        got = orc.scal_set_bruteforce(preset("hex"), Direction(RingElem(EISENSTEIN, 1, 1)), 9, 1)
        assert got == {F(2), F(3), F(5), F(6), F(8), F(9)}

    def test_rect12_all_integers(self):
        got = orc.scal_set_bruteforce(preset("rect12"), Direction(RingElem(GAUSSIAN, 1, 2)), 4, 1)
        assert got == {F(1), F(2), F(3), F(4)}

    def test_identity_direction(self):
        got = orc.scal_set_bruteforce(preset("hex"), Direction(RingElem(EISENSTEIN, 1, 0)), 3, 1)
        assert F(1) in got

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            orc.scal_set_bruteforce(preset("hex"), Direction(RingElem(EISENSTEIN, 1, 0)), 0, 1)

    def test_refuses_above_the_cap_before_walking(self, monkeypatch):
        # A sweep builds one frame per coprime ratio; over the cap, each of
        # the three entries refuses before _certify tests any point.
        packing, d = preset("hex"), Direction(RingElem(EISENSTEIN, 1, 1))
        coprime = sum(math.gcd(p, q) == 1 for p in range(1, 5) for q in range(1, 4))
        frames, walked = [], []
        period_frame, certify = orc._period_frame, orc._certify
        monkeypatch.setattr(orc, "_period_frame", lambda *a: frames.append(a) or period_frame(*a))
        monkeypatch.setattr(orc, "_certify", lambda *a: walked.append(a) or certify(*a))
        orc.scal_set_bruteforce(packing, d, 4, 3)
        assert len(frames) == len(walked) == coprime
        frames.clear()
        walked.clear()
        monkeypatch.setattr(orc, "MAX_POINTS", packing.m ** 2 - 1)
        s = d.similarity(F(2))
        for entry in (orc.certify_subpacking, orc.index_by_counting):
            with pytest.raises(ValueError, match=f"at most {packing.m ** 2 - 1} are allowed"):
                entry(packing, s)
        with pytest.raises(ValueError, match=f"at most {packing.m ** 2 - 1} are allowed"):
            orc.scal_set_bruteforce(packing, d, 4, 3)
        assert len(frames) == 2 + coprime and walked == []

    def test_matches_engine_classes(self):
        packing = preset("hex-shifted")
        for coords in ((1, 0), (1, 1), (2, 1)):
            d = Direction(RingElem(EISENSTEIN, *coords))
            full = pk.scal_set_packing(packing, d)
            brute = orc.scal_set_bruteforce(packing, d, 7, 2)
            from math import gcd

            engine = {
                F(p, q)
                for p in range(1, 8)
                for q in range(1, 3)
                if gcd(p, q) == 1 and full.contains_ratio(F(p, q))
            }
            assert brute == engine


class TestEngineOracleAgreement:
    def test_randomized(self):
        rng = random.Random(47)
        for _ in range(60):
            case = orc.random_case(rng, rng.choice((GAUSSIAN, EISENSTEIN)))
            engine = pk.check_similarity(case.packing, case.similarity).accepted
            contained, witness = orc.certify_subpacking(case.packing, case.similarity)
            assert engine == contained, (case.packing, case.similarity)
            if witness is not None:
                assert not ref.packing_contains(case.packing, witness)

    def test_nonring_lattice_with_reflections(self):
        # ex34 sits over {3a+bi}, exercising conjugation on a basis the
        # random sweep never produces.
        packing = preset("ex34")
        rng = random.Random(53)
        for _ in range(30):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if a == 0 and b == 0:
                continue
            q = rng.randint(1, 3)
            s = Similarity(
                FieldElem(GAUSSIAN, F(a, q), F(b, q)), rng.random() < 0.5
            )
            engine = pk.check_similarity(packing, s).accepted
            oracle_ok, _ = orc.certify_subpacking(packing, s)
            assert engine == oracle_ok, s

    def test_table_derived_cases(self):
        cases = [
            ("rect12", simw(GAUSSIAN, 1, 2), True),
            ("rect12", simw(GAUSSIAN, 2, 4), True),
            ("rect12", simw(GAUSSIAN, 0, 1), False),
            ("rect12", simw(GAUSSIAN, 0, 2), True),
            ("hex", simw(EISENSTEIN, 3, 0), True),
            ("hex", simw(EISENSTEIN, 1, 1), False),
            ("hex", simw(EISENSTEIN, 2, 2), True),
            ("hex", simw(EISENSTEIN, 2, 1), True),
            ("hex", simw(EISENSTEIN, 1, 0, True), False),
            ("hex", simw(EISENSTEIN, 2, 0, True), True),
            ("hex-shifted", simw(EISENSTEIN, 1, 1), True),
            ("hex-shifted", simw(EISENSTEIN, 3, 3), False),
            ("hex-shifted", simw(EISENSTEIN, 2, 1), False),
            ("ex34", simw(GAUSSIAN, 0, 1), True),
            ("ex22", simw(GAUSSIAN, 1, 1), True),
        ]
        for name, s, expected in cases:
            packing = preset(name)
            engine = pk.check_similarity(packing, s).accepted
            oracle_ok, _ = orc.certify_subpacking(packing, s)
            assert engine == oracle_ok == expected, (name, s)


class TestRandomCase:
    def test_m_is_clamped_to_the_distinct_shifts(self):
        # Over denominators ≤ 1 the only shift is 0, and over denominators
        # ≤ 2 there are four, (0 or 1/2, 0 or 1/2): a draw of more distinct
        # shifts would never end.
        counts = set()
        for seed in range(12):
            rng = random.Random(seed)
            case = orc.random_case(rng, GAUSSIAN, shift_denominator=1)
            assert case.packing.m == 1
            case = orc.random_case(rng, EISENSTEIN, shift_denominator=2, max_components=5)
            counts.add(case.packing.m)
        assert counts == {1, 2, 3, 4}
