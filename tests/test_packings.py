"""Packing engine tests: the component-counting decision, τ, scal sets,
periods and reduction, corollaries, and closure diagnostics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simiso import cli, lattices as lat, packings as pk, similarity as sim
from simiso.lattices import Lattice
from simiso.packings import PointPacking
from simiso.presets import preset
from simiso import render
from simiso.render import render_svg
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, RingElem, over_denominator, pair_norm
from simiso.similarity import Direction, ResidueClass, ScalSet, Similarity

import references as ref
from references import intersect

F = Fraction


def fe(ring, a, b):
    return FieldElem(ring, F(a), F(b))


def simw(ring, a, b, conjugate=False):
    return Similarity(fe(ring, a, b), conjugate)


def witness_points(packing, report):
    """report.witness with each integer pair over the packing's d read as
    the FieldElem point it stands for."""
    return tuple((k, j, packing.lattice.element(*xy)) for k, j, xy in report.witness)


def sweep_frame(packing, d, q):
    """The Scal sweep's frame at q for a packing over R written over D: S
    over q·D with n = [S : R], the targets q·D·x_k and the images D·z·x_k
    (or D·z·conj(x_k)), which are (z/q)·x_k over q·D."""
    ring, z = packing.ring, d.ints
    total, n = pk._sweep_frame(ring, packing.lattice.d, z, q)
    targets = [(q * x, q * y) for x, y in packing.residues]
    return total, n, targets, sim._times(ring, *z, d.conjugate, packing.residues)


HEX_SHIFT = FieldElem(EISENSTEIN, F(2, 3), F(1, 3))


class TestPointPacking:
    def test_shift_normalization(self):
        p = PointPacking(
            Lattice.ring_lattice(GAUSSIAN),
            (fe(GAUSSIAN, 0, 0), FieldElem(GAUSSIAN, F(5, 2), F(3))),
        )
        assert p.shifts[1] == FieldElem(GAUSSIAN, F(1, 2), F(0))

    def test_congruent_shifts_rejected(self):
        with pytest.raises(ValueError):
            PointPacking(
                Lattice.ring_lattice(GAUSSIAN),
                (fe(GAUSSIAN, 0, 0), fe(GAUSSIAN, 1, 1)),
            )

    def test_from_pairs_writes_the_least_denominator(self):
        # Z[i] over 6 with the pairs 0 and 9/6 + i: the packing over d = 2 that
        # PointPacking builds from FieldElems, also after a pickle or a copy.
        import copy
        import pickle

        p = PointPacking.from_pairs(Lattice(GAUSSIAN, 6, 6, 0, 6), [(0, 0), (9, 6)])
        q = PointPacking(Lattice.ring_lattice(GAUSSIAN),
                         (fe(GAUSSIAN, 0, 0), fe(GAUSSIAN, F(3, 2), 1)))
        assert (p.lattice.d, p.lattice.b00, p.lattice.b11) == (2, 2, 2)
        assert p.residues == ((0, 0), (1, 0))
        assert p == q and hash(p) == hash(q)
        assert p.shifts == (fe(GAUSSIAN, 0, 0), fe(GAUSSIAN, F(1, 2), 0))
        assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)
        with pytest.raises(AttributeError):
            p.residues = ()
        # The same residue over d = 2 and d = 3 names 1/2 and 1/3.
        third, half = (PointPacking.from_pairs(Lattice(GAUSSIAN, d, d, 0, d), [(1, 0)])
                       for d in (3, 2))
        assert third.residues == half.residues and third != half

    def test_from_pairs_names_congruent_pairs_as_given(self):
        message = r"^shifts \(1\+i\)/2 and \(7\+5i\)/2 are congruent mod"
        with pytest.raises(ValueError, match=message):
            PointPacking.from_pairs(Lattice(GAUSSIAN, 4, 4, 0, 4), [(2, 2), (6, 0), (14, 10)])


def _meet(lattice, x_k, x_j, s):
    """A point of s(x_k + Γ) ∩ (x_j + Γ) when s(x_k) and x_j share a residue
    on the frame Γ + sΓ, or None when they differ: x_j plus the point of
    Γ ∩ (s(x_k) - x_j + sΓ) that the per-pair solve of
    references.coset_point finds."""
    img = s.image_lattice(lattice)
    _, total, (a, b) = ref.sum_frame(lattice, img, (s.apply(x_k), x_j))
    ell = ref.coset_point(lattice, img, s.apply(x_k) - x_j)
    assert (ell is not None) == (total.reduce(*a) == total.reduce(*b))
    return None if ell is None else x_j + ell


class TestComponentIntersection:
    """s(x_k + Γ) ∩ (x_j + Γ) is empty or offset + (Γ ∩ sΓ)."""

    def test_sublattice_case(self):
        base = Lattice.ring_lattice(GAUSSIAN)
        zero = FieldElem.zero(GAUSSIAN)
        s = simw(GAUSSIAN, 1, 2)
        offset = _meet(base, zero, zero, s)
        assert offset is not None
        assert base.contains(offset)
        img = s.image_lattice(base)
        assert intersect(base, img) == img

    def test_incongruent_shifts_miss(self):
        base = Lattice.ring_lattice(EISENSTEIN)
        got = _meet(base, HEX_SHIFT, FieldElem.zero(EISENSTEIN), simw(EISENSTEIN, 1, 0))
        assert got is None

    def test_ex34_all_pairs_meet(self):
        packing = preset("ex34")
        s = simw(GAUSSIAN, 0, 1)
        for x_k in packing.shifts:
            for x_j in packing.shifts:
                offset = _meet(packing.lattice, x_k, x_j, s)
                assert offset is not None
                # The offset witnesses a point of both components.
                assert packing.lattice.contains(offset - x_j)
                assert s.image_lattice(packing.lattice).contains(
                    offset - s.apply(x_k)
                )

    def test_offset_coset_is_the_intersection(self):
        # Sample points of the returned coset and confirm each lies in both
        # components; sample nearby non-coset points of x_j+Γ and confirm
        # they avoid the image component.
        packing = preset("rect12")
        base = packing.lattice
        s = simw(GAUSSIAN, 2, 2)
        x_k = packing.shifts[1]
        x_j = packing.shifts[0]
        offset = _meet(base, x_k, x_j, s)
        img = s.image_lattice(base)
        inter = intersect(base, img)
        for t0 in range(-2, 3):
            for t1 in range(-2, 3):
                pt = offset + ref.point(inter, t0, t1)
                assert base.contains(pt - x_j)
                assert img.contains(pt - s.apply(x_k))
        stray = offset + ref.point(base, 1, 0)
        if not inter.contains(stray - offset):
            assert not img.contains(stray - s.apply(x_k))


class TestCheckSimilarity:
    def test_rect12_table_row(self):
        packing = preset("rect12")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 1, 2))
        assert report.accepted and report.n == 1
        assert report.tau == ((0, 0), (1, 1))

    def test_ex34_quarter_turn(self):
        packing = preset("ex34")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 0, 1))
        assert report.accepted and report.n == 3
        assert len(report.tau) == 9
        assert set(report.tau) == {(k, j) for k in range(3) for j in range(3)}

    def test_identity_is_diagonal(self):
        packing = preset("hex")
        report = pk.check_similarity(packing, simw(EISENSTEIN, 1, 0))
        assert report.accepted and report.n == 1
        assert report.tau == ((0, 0), (1, 1))

    def test_rejection_reports_component(self):
        packing = preset("hex")
        report = pk.check_similarity(packing, simw(EISENSTEIN, 1, 1))
        assert not report.accepted
        # β = 1 maps the origin component into Γ but strands the second.
        assert report.failing_k == 1
        assert report.tau == ()

    def test_tau_size_law(self):
        rng = random.Random(21)
        from simiso import oracle as orc

        for _ in range(40):
            case = orc.random_case(rng, rng.choice((GAUSSIAN, EISENSTEIN)))
            report = pk.check_similarity(case.packing, case.similarity)
            if report.accepted:
                assert len(report.tau) == case.packing.m * report.n
                assert report.n <= case.packing.m
                per_k = {}
                for k, _ in report.tau:
                    per_k[k] = per_k.get(k, 0) + 1
                assert all(c == report.n for c in per_k.values())

    def test_witness_offsets_lie_in_both_components(self):
        packing = preset("ex34")
        s = simw(GAUSSIAN, 0, 1)
        report = pk.check_similarity(packing, s)
        img = s.image_lattice(packing.lattice)
        for k, j, offset in witness_points(packing, report):
            assert packing.lattice.contains(offset - packing.shifts[j])
            assert img.contains(offset - s.apply(packing.shifts[k]))


class TestScalSetPacking:
    def test_rect12_classes(self):
        packing = preset("rect12")
        ss = pk.scal_set_packing(packing, Direction(RingElem(GAUSSIAN, 1, 2)))
        # √5·2Z ∪ √5·(1+2Z) merges to √5·Z.
        assert ss.display() == "√5·Z"
        ss2 = pk.scal_set_packing(packing, Direction(RingElem(GAUSSIAN, 1, 1)))
        assert [c.display() for c in ss2.classes] == ["den·2Z"]

    def test_hexagonal_classes(self):
        packing = preset("hex")
        ss = pk.scal_set_packing(packing, Direction(RingElem(EISENSTEIN, 1, 1)))
        assert ss.display() == "3Z ∪ (2+3Z)"
        assert ss.min_positive_ratio() == 2

    def test_shifted_hexagonal_empty_class(self):
        packing = preset("hex-shifted")
        ss = pk.scal_set_packing(packing, Direction(RingElem(EISENSTEIN, 2, 1)))
        assert ss.is_empty()

    def test_ex34_quarter_turn_scal_is_z(self):
        # Z[i] written over {3a+bi}: Scal along i is Z, though den(Γ, R) = 3.
        ss = pk.scal_set_packing(preset("ex34"), Direction(RingElem(GAUSSIAN, 0, 1)))
        assert ss.display() == "Z"

    def test_membership_matches_engine(self):
        # Spot-check ratios inside and outside the returned classes against
        # direct accept/reject decisions.
        rng = random.Random(9)
        for packing_name, ring in (("rect12", GAUSSIAN), ("hex", EISENSTEIN), ("hex-shifted", EISENSTEIN)):
            packing = preset(packing_name)
            for _ in range(4):
                while True:
                    z = RingElem(ring, rng.randint(-4, 4), rng.randint(-4, 4))
                    if not z.is_zero() and math.gcd(z.a, z.b) == 1:
                        break
                d = Direction(z, rng.random() < 0.5)
                ss = pk.scal_set_packing(packing, d)
                for _ in range(50):
                    p = rng.randint(-10, 10)
                    q = rng.randint(1, 4)
                    if p == 0 or math.gcd(p, q) != 1:
                        continue
                    ratio = F(p, q)
                    engine = pk.check_similarity(packing, d.similarity(ratio)).accepted
                    assert ss.contains_ratio(ratio) == engine, (packing_name, d, ratio)

    def test_hexagonal_n_is_one(self):
        # Every accepted similarity of the honeycomb (shifted or not) has
        # each image component inside a single packing component.
        rng = random.Random(13)
        for name in ("hex", "hex-shifted"):
            packing = preset(name)
            for _ in range(20):
                while True:
                    z = RingElem(EISENSTEIN, rng.randint(-5, 5), rng.randint(-5, 5))
                    if not z.is_zero() and math.gcd(z.a, z.b) == 1:
                        break
                d = Direction(z, rng.random() < 0.5)
                p, q = rng.randint(1, 9), rng.randint(1, 3)
                if math.gcd(p, q) != 1:
                    continue
                report = pk.check_similarity(packing, d.similarity(F(p, q)))
                if report.accepted:
                    assert report.n == 1

    def test_table_traffic_solves_q_1_only(self):
        # Rotations admit only q = 1, and a reflection only q ≤ m with
        # q² | N(z).  Every table packing has m = 2 components, and a
        # primitive z over Z[ω] has odd norm, so no table reaches q = 2: every
        # cell is a q = 1 solve, over the golden's z with N(z) ≤ 61.
        for name, (preset_name, conjugate, ring) in cli.TABLE_SPECS.items():
            packing = preset(preset_name)
            for a in range(-9, 10):
                for b in range(-9, 10):
                    if math.gcd(a, b) == 1 and pair_norm(ring, a, b) <= 61:
                        d = Direction.from_ints(ring, a, b, conjugate)
                        solved = [q for q, _, _ in pk._sweep_direction(packing, d)]
                        assert solved == [1], (name, a, b)


def _reference_sweep(packing, d):
    """The residue sweep the congruence solve replaced: check_similarity on
    every residue p mod q·N(z)·lcm(shift denominators), for each q."""
    gamma = packing.lattice
    m = packing.m
    norm_z = d.norm()
    lcm_shift = 1
    for x in packing.shifts:
        lcm_shift = math.lcm(lcm_shift, x.a.denominator, x.b.denominator)
    out = []
    for q in range(1, math.isqrt(m * norm_z) + 1):
        img = d.similarity(F(1, q)).image_lattice(gamma)
        n = lat.index(intersect(gamma, img), img)
        if n > m:
            continue
        modulus = q * norm_z * lcm_shift
        accepted = {}
        for r in range(modulus):
            if math.gcd(r, q) != 1:
                continue
            p = r if r != 0 else modulus
            report = pk.check_similarity(packing, d.similarity(F(p, q)))
            if report.accepted:
                accepted[r] = report.tau
        out.append((q, modulus, accepted))
    return out


def _reference_minimal_modulus(accepted, modulus, q):
    universe = [r for r in range(modulus) if math.gcd(r, q) == 1]
    for div in sorted(d for d in range(1, modulus + 1) if modulus % d == 0):
        folded = {r % div for r in accepted}
        if all((r % div in folded) == (r in accepted) for r in universe):
            return div, frozenset(folded)
    return modulus, frozenset(accepted)


def _reference_scal(sweep, d):
    classes = []
    for q, modulus, accepted in sweep:
        if accepted:
            mod, residues = _reference_minimal_modulus(set(accepted), modulus, q)
            classes.append(ResidueClass(q, mod, residues))
    rows = []
    for q, modulus, accepted in sweep:
        by_tau = {}
        for r, tau in accepted.items():
            by_tau.setdefault(tau, set()).add(r)
        for tau, residues in by_tau.items():
            mod, folded = _reference_minimal_modulus(residues, modulus, q)
            rows.append((ResidueClass(q, mod, folded), tau))
    rows.sort(key=lambda rt: (rt[0].q, rt[0].modulus, min(rt[0].residues)))
    return ScalSet(d, tuple(classes)), rows


def _assert_matches_reference(packing, d):
    """The solve equals the reference sweep, and every q the solve skips
    (all q > 1 for rotations, q² ∤ N(z) for reflections) accepts nothing."""
    sweep = _reference_sweep(packing, d)
    scal, rows = _reference_scal(sweep, d)
    assert pk.scal_set_packing(packing, d) == scal
    assert pk.scal_classes_by_tau(packing, d) == rows
    solved = {q for q, _, _ in pk._sweep_direction(packing, d)}
    assert all(not accepted for q, _, accepted in sweep if q not in solved)
    # Each q = 1 τ-group of the reference folds to one residue, so
    # scal_classes_by_tau may write each q = 1 residue as its own row.
    assert all(len(c.residues) == 1 for c, _ in rows if c.q == 1)


# The reference sweep makes about m·N(z)²·lcm/2 decisions, so examples are
# bounded by N(z)·lcm·m to keep the property test near ten seconds.  With
# m ≤ 4 every accepted class has q = 1; a separate case covers q > 1.
SWEEP_BUDGET = 60


@st.composite
def ring_packings_with_directions(draw):
    """A packing over Z[i] or Z[ω] with m ≤ 4 shifts whose coordinates have
    denominators ≤ 12, and a rotation or reflection direction."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    den = draw(st.integers(1, 12))
    m = draw(st.integers(1, min(4, den * den, SWEEP_BUDGET // den)))
    coord = st.integers(0, den - 1).map(lambda t: F(t, den))
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m, unique=True))
    shifts = tuple(FieldElem(ring, a, b) for a, b in pairs)
    lcm = math.lcm(*(c.denominator for x in shifts for c in (x.a, x.b)))
    bound = math.isqrt(SWEEP_BUDGET // (lcm * m))
    z = draw(
        st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
        .map(lambda ab: RingElem(ring, *ab))
        .filter(lambda z: math.gcd(z.a, z.b) == 1)
        .filter(lambda z: z.norm() * lcm * m <= SWEEP_BUDGET)
    )
    packing = PointPacking(Lattice.ring_lattice(ring), shifts)
    return packing, Direction(z, draw(st.booleans()))


ZI = Lattice.ring_lattice(GAUSSIAN)


@st.composite
def lifted_packings_with_trials(draw, max_den=13):
    """A packing over Z[i] or Z[ω] with m ≤ 6 shifts whose coordinates have
    denominators ≤ max_den, and the trial map x ↦ (z/q)·x or (z/q)·conj(x) of
    the Scal sweep at an admissible q: 1, or q ≤ m with q² | N(z) for a
    reflection.  Within m ≤ 6 the only such q > 1 is 5, for z ∈ Z[i] with
    N(z) = 25 and m ≥ 5; half the examples take it."""
    five = draw(st.booleans())
    ring = GAUSSIAN if five else draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    coord = st.integers(1, max_den).flatmap(lambda den: st.integers(0, den - 1).map(lambda t: F(t, den)))
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=5 if five else 1, max_size=6, unique=True))
    packing = PointPacking(Lattice.ring_lattice(ring), tuple(FieldElem(ring, a, b) for a, b in pairs))
    if five:
        z, conjugate, q = draw(st.sampled_from(((3, 4), (4, 3), (-3, 4), (4, -3)))), True, 5
    else:
        small = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        z, conjugate, q = draw(small.filter(lambda ab: math.gcd(*ab) == 1)), draw(st.booleans()), 1
    return packing, Direction(RingElem(ring, *z), conjugate).similarity(F(1, q))


@st.composite
def residue_sets(draw):
    """(A, M, q): q ≤ 64, M ≤ 1,000 a multiple of q, and A a non-empty set
    of residues mod M prime to q.  A is the units of a union of classes mod
    a divisor of M, less up to three residues so that some sets do not fold."""
    q = draw(st.integers(1, 64))
    modulus = q * draw(st.integers(1, 1000 // q))
    div = draw(st.sampled_from([e for e in range(1, modulus + 1) if modulus % e == 0]))
    classes = draw(st.sets(st.integers(0, div - 1), min_size=1, max_size=6))
    units = [r for r in range(modulus) if math.gcd(r, q) == 1 and r % div in classes]
    assume(units)
    dropped = draw(st.sets(st.sampled_from(units), max_size=3))
    accepted = set(units) - dropped
    assume(accepted)
    return accepted, modulus, q


class TestSweepFrame:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from((GAUSSIAN, EISENSTEIN)), st.booleans(),
           st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
           .filter(lambda ab: math.gcd(*ab) == 1),
           st.integers(1, 60), st.integers(1, 12))
    def test_closed_form_matches_hermite_form(self, ring, conjugate, z, q, dd):
        # S = R + (z/q)R over q·D and n = [S : R] in closed form, for any q,
        # admissible or not, against the Hermite form of R + trial(R).
        ring_lattice = Lattice(ring, dd, dd, 0, dd)
        trial = Similarity.from_ints(ring, q, *z, conjugate)
        fine = ring_lattice.over(q * dd)
        image = trial.image_lattice(ring_lattice).over(q * dd)
        expected = Lattice.spanned(ring, q * dd, [*fine.basis, *image.basis])
        total, n = pk._sweep_frame(ring, dd, z, q)
        assert (total.d, total.b00, total.b01, total.b11) == (
            q * dd, expected.b00, expected.b01, expected.b11)
        assert n == lat.index(fine, expected)


class TestCongruenceSolve:
    @settings(max_examples=200, deadline=None)
    @given(lifted_packings_with_trials(max_den=8))
    def test_sweep_matches_residue_walk(self, case):
        # Denominators ≤ 8 keep L ≤ 840, so the reference walks it quickly.
        packing, trial = case
        _, d = sim.decompose(trial)

        def nonempty(sweep):
            return {q: (modulus, accepted) for q, modulus, accepted in sweep if accepted}

        assert nonempty(pk._sweep_direction(packing, d)) == nonempty(ref.sweep_direction(packing, d))

    @settings(max_examples=300, deadline=None)
    @given(residue_sets())
    def test_minimal_modulus_matches_divisor_walk(self, case):
        accepted, modulus, q = case
        assert pk._minimal_modulus(accepted, modulus, q) == _reference_minimal_modulus(
            accepted, modulus, q
        )

    def test_large_modulus_rows(self):
        # Shift denominators 5–13 give L = lcm(5, 7, 8, 9, 11, 13) = 360,360,
        # and each of the three non-zero shifts meets itself or 0 + Z[i].
        shifts = ((0, 0), (F(1, 7), F(1, 8)), (F(1, 9), F(1, 11)), (F(1, 5), F(1, 13)))
        packing = PointPacking(ZI, tuple(FieldElem(GAUSSIAN, a, b) for a, b in shifts))
        rows = {
            (1, 0): [
                (0, ((0, 0), (1, 0), (2, 0), (3, 0))),
                (1, ((0, 0), (1, 1), (2, 2), (3, 3))),
                (70785, ((0, 0), (1, 1), (2, 0), (3, 0))),
                (133056, ((0, 0), (1, 0), (2, 0), (3, 3))),
                (156520, ((0, 0), (1, 0), (2, 2), (3, 0))),
                (203841, ((0, 0), (1, 1), (2, 0), (3, 3))),
                (227305, ((0, 0), (1, 1), (2, 2), (3, 0))),
                (289576, ((0, 0), (1, 0), (2, 2), (3, 3))),
            ],
            (2, 1): [(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
            (4, 1): [(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
        }
        for z, expected in rows.items():
            d = Direction(RingElem(GAUSSIAN, *z))
            got = pk.scal_classes_by_tau(packing, d)
            assert got == [(ResidueClass(1, 360360, frozenset({r})), tau) for r, tau in expected]
            residues = frozenset(r for r, _ in expected)
            assert pk.scal_set_packing(packing, d).classes == (ResidueClass(1, 360360, residues),)

    @settings(max_examples=200, deadline=None)
    @given(ring_packings_with_directions())
    def test_matches_reference_sweep(self, case):
        _assert_matches_reference(*case)

    def test_presets_match_reference_sweep(self):
        for name, ring in (("rect12", GAUSSIAN), ("hex", EISENSTEIN), ("hex-shifted", EISENSTEIN)):
            packing = preset(name)
            for a, b in ((1, 0), (1, 1), (2, 1), (3, -1)):
                for conjugate in (False, True):
                    _assert_matches_reference(packing, Direction(RingElem(ring, a, b), conjugate))

    def test_reflection_with_denominator_five(self):
        # L = ((2+i)/5)·Z[i] as five cosets of Z[i]; x ↦ (p/5)(3+4i)·conj(x)
        # maps it into itself with n = 5, a class with q > 1 that needs m ≥ 5.
        shifts = tuple(FieldElem(GAUSSIAN, F(2 * k % 5, 5), F(k, 5)) for k in range(5))
        packing = PointPacking(Lattice.ring_lattice(GAUSSIAN), shifts)
        d = Direction(RingElem(GAUSSIAN, 3, 4), True)
        rows = pk.scal_classes_by_tau(packing, d)
        assert [(c.q, c.modulus, len(tau)) for c, tau in rows] == [(1, 1, 5), (5, 1, 25)]
        scal = pk.scal_set_packing(packing, d)
        for q in (1, 2, 5, 10):
            for p in range(1, 16):
                if math.gcd(p, q) == 1:
                    accepted = pk.check_similarity(packing, d.similarity(F(p, q))).accepted
                    assert scal.contains_ratio(F(p, q)) == accepted, (p, q)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(a, b) for a in range(-4, 5) for b in range(-4, 5) if a * a + b * b == 25
                            and math.gcd(a, b) == 1]),
           st.tuples(st.fractions(0, 1, max_denominator=3), st.fractions(0, 1, max_denominator=3)))
    def test_q_5_rows_match_reference(self, z, x):
        # The orbit {x, s(x)} + M of x under the isometry s(y) = (z/5)·conj(y),
        # where M = Z[i] + (z/5)Z[i], the k·z/5 over Z[i] for k < 5.  s is an
        # involution and s(M) = M, so s maps L onto itself: every example has
        # a q = 5 row, over m = 5 or 10 components.
        a, b = z
        u, v = x
        orbit = ((u, v), ((a * u + b * v) / 5, (b * u - a * v) / 5))
        shifts = {((c + F(k * a, 5)) % 1, (e + F(k * b, 5)) % 1) for c, e in orbit for k in range(5)}
        packing = PointPacking(ZI, tuple(FieldElem(GAUSSIAN, *xy) for xy in sorted(shifts)))
        d = Direction(RingElem(GAUSSIAN, a, b), True)
        assert any(c.q == 5 for c, _ in pk.scal_classes_by_tau(packing, d))
        _assert_matches_reference(packing, d)

    def test_congruence_residue(self):
        def solve(sum_with, a, x):
            points = (FieldElem(GAUSSIAN, *a), FieldElem(GAUSSIAN, *x))
            total, xy = ref.add(ZI, sum_with).with_points(points)
            return total.congruence(*xy)

        # Over S = Z[i]: p·(1/3, 2/3) ≡ (2/3, 1/3) mod Z² at p ≡ 2 (mod 3) only.
        assert solve(ZI, (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))) == (2, 3)
        assert solve(ZI, (F(1, 3), F(2, 3)), (F(1, 3), F(1, 3))) is None
        assert solve(ZI, (F(1, 2), F(0)), (F(1, 3), F(0))) is None
        # Coordinates of different orders: p·(1/4, 1/6) ≡ (3/4, 1/2) at p ≡ 3 mod 12.
        assert solve(ZI, (F(1, 4), F(1, 6)), (F(3, 4), F(1, 2))) == (3, 12)
        assert solve(ZI, (F(0), F(0)), (F(0), F(0))) == (0, 1)
        # Over S = ((1+i)/2)·Z[i], spanned by 1 and (1+i)/2: (1+i)/4 has
        # order 2, p·(1+i)/4 ≡ 3(1+i)/4 at p ≡ 1 (mod 2), and ≡ 1/2 never.
        half = Similarity(FieldElem(GAUSSIAN, F(1, 2), F(1, 2))).image_lattice(ZI)
        assert solve(half, (F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))) == (1, 2)
        assert solve(half, (F(1, 4), F(1, 4)), (F(1, 2), F(0))) is None

    @settings(max_examples=300, deadline=None)
    @given(lifted_packings_with_trials())
    def test_sum_lattice_congruence_matches_reference(self, case):
        packing, trial = case
        q, a, b = trial.ints  # x ↦ (z/q)·x for z = a + b·u, as z is primitive
        d = Direction.from_ints(packing.ring, a, b, trial.conjugate)
        total, n, targets, scaled_images = sweep_frame(packing, d, q)
        ref_n, conditions = ref.sweep_conditions(packing, trial)
        assert n == ref_n
        for a_k, (o_k, by_residue) in zip(scaled_images, conditions):
            assert total.congruence(a_k, (0, 0)) == (0, o_k)
            residue_of = {j: r for r, js in by_residue.items() for j in js}
            for j, x_j in enumerate(targets):
                solved = total.congruence(a_k, x_j)
                expected = (residue_of[j], o_k) if j in residue_of else None
                assert solved == expected


@st.composite
def sheared_packings_with_directions(draw, max_m=3, min_index=2):
    """A packing with m ≤ max_m shifts of denominator ≤ 3 over (1/den)·H,
    where H ⊆ Z² is a sheared sublattice of index min_index–4 and den ≤ 3,
    and a rotation or reflection direction."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    index = draw(st.integers(min_index, 4))
    h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
    h01 = draw(st.integers(0, h00 - 1))
    den = draw(st.integers(1, 3))
    gamma = Lattice.from_generators(
        ring, [(F(h00, den), F(0)), (F(h01, den), F(index // h00, den))]
    )
    shift_den = draw(st.integers(1, 3))
    coord = st.integers(0, 2 * shift_den - 1).map(lambda t: F(t, shift_den))
    shifts: list[FieldElem] = []
    for a, b in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=max_m)):
        x = FieldElem(ring, a, b)
        if not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    z = draw(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        .map(lambda ab: RingElem(ring, *ab))
        .filter(lambda z: math.gcd(z.a, z.b) == 1)
    )
    return PointPacking(gamma, tuple(shifts)), Direction(z, draw(st.booleans()))


def _ratios(p_bound, q_bound):
    return [
        F(p, q)
        for q in range(1, q_bound + 1)
        for p in range(1, p_bound + 1)
        if math.gcd(p, q) == 1
    ]


@st.composite
def lift_cases(draw):
    """A packing with m ≤ 3 over a sheared Γ = (1/den)·H, both rings, where
    H ⊆ Z² of index 1–30 is under a unimodular shear and den ≤ 12, with
    shifts of denominators ≤ 12.  The lift has m·[Γ : c·R] ≤ 90 components,
    [Γ : c·R] being at most the index, so some lifts are over the cap."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    index = draw(st.integers(1, 30))
    h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
    h01, h11, c = draw(st.integers(0, h00 - 1)), index // h00, draw(st.integers(-2, 2))
    den = draw(st.integers(1, 12))
    gens = [(h00 + c * h01, c * h11), (h01, h11)]
    gamma = Lattice.from_generators(ring, [(F(x, den), F(y, den)) for x, y in gens])
    coord = st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(lambda t: F(*t))
    shifts = []
    for a, b in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3)):
        x = FieldElem(ring, a, b)
        if not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    return PointPacking(gamma, tuple(shifts))


def _assert_lift_matches_reference(packing):
    """The integer lift against the FieldElem lift it replaced: the same
    lattice over the same d, shifts and residues, or the same error."""
    try:
        expected = ref.lift_to_ring(packing)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            pk.lift_to_ring(packing)
        assert str(got.value) == str(err)
        return False
    lifted = pk.lift_to_ring(packing)
    assert lifted.lattice == expected.lattice and lifted.lattice.d == expected.lattice.d
    assert lifted.shifts == expected.shifts and lifted.residues == expected.residues
    return True


class TestLift:
    @settings(max_examples=300, deadline=None)
    @given(lift_cases())
    def test_integer_lift_matches_fieldelem_lift(self, packing):
        _assert_lift_matches_reference(packing)

    def test_integer_lift_matches_fieldelem_lift_on_ex34(self):
        assert _assert_lift_matches_reference(preset("ex34"))

    @settings(max_examples=100, deadline=None)
    @given(sheared_packings_with_directions())
    def test_scal_matches_check_similarity_unlifted(self, case):
        packing, d = case
        scal = pk.scal_set_packing(packing, d)
        for ratio in _ratios(12, 4):
            accepted = pk.check_similarity(packing, d.similarity(ratio)).accepted
            assert scal.contains_ratio(ratio) == accepted, ratio

    @settings(max_examples=50, deadline=None)
    @given(sheared_packings_with_directions())
    def test_scal_matches_oracle(self, case):
        from simiso import oracle as orc

        packing, d = case
        scal = pk.scal_set_packing(packing, d)
        engine = {r for r in _ratios(4, 2) if scal.contains_ratio(r)}
        assert engine == orc.scal_set_bruteforce(packing, d, 4, 2)

    def test_ring_lattice_packing_is_its_own_lift(self):
        packing = preset("hex")
        assert pk.lift_to_ring(packing) is packing

    def test_ex34_lifts_to_nine_thirds(self):
        packing = preset("ex34")
        lifted = pk.lift_to_ring(packing)
        assert lifted.m == 9 and lifted.lattice == Lattice.ring_lattice(GAUSSIAN)
        window = (F(-4), F(-3), F(5), F(4))
        scaled = [x.scale(3) for x in ref.points_in_window(lifted, [c / 3 for c in window])]
        assert sorted(scaled, key=lambda x: (x.a, x.b)) == ref.points_in_window(packing, window)

    @pytest.mark.parametrize("width", [pk.MAX_LIFTED_COMPONENTS, pk.MAX_LIFTED_COMPONENTS + 1])
    def test_lift_cap(self, width):
        # Γ = {width·a + b·u} needs c = width, so the lift has width components.
        gamma = Lattice.from_generators(GAUSSIAN, [(F(width), F(0)), (F(0), F(1))])
        packing = PointPacking(gamma, (FieldElem.zero(GAUSSIAN),))
        if width > pk.MAX_LIFTED_COMPONENTS:
            with pytest.raises(ValueError, match=f"{width} components"):
                pk.lift_to_ring(packing)
        else:
            assert pk.lift_to_ring(packing).m == width


@st.composite
def packings_with_similarities(draw):
    """A packing with m ≤ 4 over Z[i], Z[ω] or a sheared rational Γ of index
    2–4 (see sheared_packings_with_directions), and a rotation or reflection
    along its direction.  Half of the multipliers are random p/q·z with
    p ≤ 6, q ≤ 3; the other half are lcm·den(Γ, R)·z, with lcm the shift
    denominators, which Proposition 4.1 accepts."""
    packing, d = draw(sheared_packings_with_directions(max_m=4, min_index=1))
    if draw(st.booleans()):
        lcm = math.lcm(*(c.denominator for x in packing.shifts for c in (x.a, x.b)))
        ratio = lcm * F(*sim.denominator(packing.lattice, d)) * draw(st.integers(1, 2))
    else:
        ratio = F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    return packing, d.similarity(ratio)


class TestSweepMatchesFieldElemTrials:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        lifted_packings_with_trials(max_den=8).map(lambda c: (c[0], sim.decompose(c[1])[1])),
        sheared_packings_with_directions(),
    ))
    def test_rows_match_fieldelem_trial_walk(self, case):
        # The sweep maps by z's ints over its closed-form frames; the
        # reference builds each trial map from the FieldElem z·(1/q), maps the
        # shifts by FieldElem products and walks every residue.  The cases
        # hold non-ring Γ, lifted first, and q = 5 for m ≥ 5.
        packing, d = case
        rows = _reference_scal(ref.sweep_direction(packing, d), d)[1]
        assert pk.scal_classes_by_tau(packing, d) == rows


class TestDecisionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(packings_with_similarities())
    def test_matches_per_pair_reference(self, case):
        packing, s = case
        report = pk.check_similarity(packing, s)
        got = (report.accepted, report.n, report.tau, witness_points(packing, report),
               report.failing_k, report.reached)
        assert got == ref.check_similarity(packing, s)

    @settings(max_examples=100, deadline=None)
    @given(packings_with_similarities())
    def test_matches_oracle(self, case):
        from simiso import oracle as orc

        packing, s = case
        assert pk.check_similarity(packing, s).accepted == orc.certify_subpacking(packing, s)[0]

    def test_rejection_names_reached_components(self):
        # rect12 under x ↦ ((1+i)/2)·x: n = 2, but s(Γ) meets Γ alone.
        s = Similarity(FieldElem(GAUSSIAN, F(1, 2), F(1, 2)))
        report = pk.check_similarity(preset("rect12"), s)
        assert (report.accepted, report.n, report.failing_k, report.reached) == (False, 2, 0, (0,))


def _fine_packing(k):
    """The point set (1/k)·Z[i], written as m = k² components over Z[i]."""
    return PointPacking(ZI, tuple(FieldElem(GAUSSIAN, F(a, k), F(b, k))
                                  for a in range(k) for b in range(k)))


class TestResidueLookups:
    """A decision reduces each target and each image once, and the Scal
    sweep solves one congruence per component and class of n targets."""

    @pytest.mark.parametrize("k", [4, 6])
    def test_decision_makes_2m_reductions(self, k, monkeypatch):
        # At most 2m reductions on the frame Γ + sΓ, the lattice reduced
        # first, for every decision; then, only when accepted, at most n for
        # the points σ and m·n for the witnesses on Γ, a second object.
        packing = _fine_packing(k)
        m = packing.m
        calls = []
        reduce = Lattice.reduce
        monkeypatch.setattr(Lattice, "reduce", lambda self, *v: calls.append(self) or reduce(self, *v))
        # Accepted at n = 1 (w ∈ Z[i]); rejected at n = 2 and n = 4.
        for s in (simw(GAUSSIAN, 1, 2), simw(GAUSSIAN, 3, 4, True),
                  Similarity(fe(GAUSSIAN, F(1, 2), F(1, 2))), Similarity(fe(GAUSSIAN, F(1, 2), 0))):
            calls.clear()
            report = pk.check_similarity(packing, s)
            frame, on_gamma = calls[0], [c for c in calls if c is not calls[0]]
            assert frame == ref.add(packing.lattice, s.image_lattice(packing.lattice))
            assert len(calls) - len(on_gamma) <= 2 * m
            assert all(c == packing.lattice for c in on_gamma)
            assert len(on_gamma) <= (report.n + m * report.n if report.accepted else 0)
            got = (report.accepted, report.n, report.tau, witness_points(packing, report),
                   report.failing_k, report.reached)
            assert got == ref.check_similarity(packing, s)

    @pytest.mark.parametrize("k", [4, 6])
    def test_sweep_solves_once_per_class_of_n(self, k, monkeypatch):
        packing = _fine_packing(k)
        calls = []
        congruence = Lattice.congruence
        monkeypatch.setattr(Lattice, "congruence",
                            lambda self, *ax: calls.append(ax) or congruence(self, *ax))
        for z, conjugate in (((1, 2), False), ((3, 4), True), ((1, 0), True)):
            d = Direction(fe(GAUSSIAN, *z), conjugate)
            bound = 0  # m times the classes of exactly n targets, per admissible q
            multiple = d.norm() if conjugate else 1
            for q in range(1, min(math.isqrt(multiple), packing.m) + 1):
                if multiple % (q * q) == 0:
                    cell, n, targets, _ = sweep_frame(packing, d, q)
                    firsts = [next(i for i, y in enumerate(targets)
                                   if cell.contains_pair(x[0] - y[0], x[1] - y[1])) for x in targets]
                    sizes = [firsts.count(i) for i in set(firsts)]
                    bound += packing.m * sizes.count(n)
            calls.clear()
            rows = pk.scal_classes_by_tau(packing, d)
            assert len(calls) <= bound
            assert rows == _reference_scal(ref.sweep_direction(packing, d), d)[1]


class TestProposition41Witness:
    def test_rational_shift_packings_admit_the_lcm_witness(self):
        rng = random.Random(17)
        from simiso import oracle as orc

        for _ in range(60):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            case = orc.random_case(rng, ring, p_bound=1, q_bound=1)
            packing = case.packing
            z = orc._random_primitive(rng, ring, 60)
            conjugate = rng.random() < 0.5
            lcm_den = 1
            for x in packing.shifts:
                lcm_den = math.lcm(lcm_den, x.a.denominator, x.b.denominator)
            d = Direction(z, conjugate)
            witness = d.similarity(lcm_den * F(*sim.denominator(packing.lattice, d)))
            assert pk.check_similarity(packing, witness).accepted


class TestInversionSymmetry:
    def test_symmetric_packings(self):
        # For packings with -L = L, acceptance of w implies acceptance of -w.
        rng = random.Random(23)
        for name in ("rect12", "ex34", "ex22"):
            packing = preset(name)
            assert all(
                ref.packing_contains(packing, -x) for x in packing.shifts
            ), f"{name} should be inversion symmetric"
            ring = packing.ring
            for _ in range(25):
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                if a == 0 and b == 0:
                    continue
                q = rng.randint(1, 3)
                w = FieldElem(ring, F(a, q), F(b, q))
                s = Similarity(w, rng.random() < 0.5)
                if pk.check_similarity(packing, s).accepted:
                    neg = Similarity(-w, s.conjugate)
                    assert pk.check_similarity(packing, neg).accepted


def corollaries(report, packing):
    """check_corollaries given the ratio and den(Γ, R) of the report's similarity."""
    ratio, d = sim.decompose(report.similarity)
    return pk.check_corollaries(report, packing, ratio, sim.denominator(packing.lattice, d))


class TestCorollaries:
    def test_ex34(self):
        packing = preset("ex34")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 0, 1))
        diag = corollaries(report, packing)
        assert diag.shift_pair_in_nth_lattice is True
        assert diag.singleton_when_lattice_scaling is None  # β ∉ Scal(Γ,R)
        assert diag.n_beta_in_lattice_scal is True
        assert diag.all_pass()

    def test_hexagonal_vacuous_pair_check(self):
        packing = preset("hex")
        report = pk.check_similarity(packing, simw(EISENSTEIN, 2, 2))
        diag = corollaries(report, packing)
        assert diag.shift_pair_in_nth_lattice is None  # n = 1
        assert diag.singleton_when_lattice_scaling is True
        assert diag.all_pass()

    def test_identity(self):
        packing = preset("rect12")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 1, 0))
        assert corollaries(report, packing).all_pass()

    def test_rejected_report_refused(self):
        packing = preset("hex")
        report = pk.check_similarity(packing, simw(EISENSTEIN, 1, 1))
        with pytest.raises(ValueError):
            corollaries(report, packing)

    def test_den_with_a_denominator(self):
        # Γ = <5, 1+2i> and the reflection along 4+3i: den(Γ, R) = (2/5)·|z|,
        # so ratio/den = p·5/(q·2).  Z[i] written over Γ (10 components) is
        # mapped into itself at ratio 1, where 5/2 ∉ Z leaves (ii) unasked
        # and n = 2 gives n·5/2 ∈ Z; Γ alone is mapped into itself at den.
        gamma = Lattice(GAUSSIAN, 1, 5, 1, 2)
        d = Direction.from_ints(GAUSSIAN, 4, 3, True)
        assert sim.denominator(gamma, d) == (2, 5)
        ring = PointPacking.from_pairs(gamma, [(x, y) for y in range(2) for x in range(5)])
        report = pk.check_similarity(ring, d.similarity(1))
        assert report.accepted and report.n == 2
        assert corollaries(report, ring) == pk.CorollaryDiagnostics(True, None, True)
        alone = PointPacking.from_pairs(gamma, [(0, 0)])
        report = pk.check_similarity(alone, d.similarity(F(2, 5)))
        assert report.accepted and report.n == 1
        assert corollaries(report, alone) == pk.CorollaryDiagnostics(None, True, True)


class TestPeriodsReduce:
    def test_checkerboard(self):
        packing = preset("ex22")
        per = pk.periods(packing)
        assert per.contains(FieldElem(GAUSSIAN, F(1, 2), F(1, 2)))
        assert lat.index(packing.lattice, per) == 2
        reduced = pk.reduce(packing)
        assert reduced.m == 1
        assert lat.index(reduced.lattice, Lattice.ring_lattice(GAUSSIAN)) == F(1, 2)

    def test_other_point_sets_refused(self):
        # The check behind reduce walks per(L)/Γ from each reduced shift.
        packing = preset("ex22")
        zero, half = FieldElem.zero(GAUSSIAN), FieldElem(GAUSSIAN, F(1, 2), F(0))
        twice = Lattice.from_generators(GAUSSIAN, [(F(2), F(0)), (F(0), F(2))])
        for reduced, message in ((PointPacking(twice, (zero,)), "not a sublattice"),
                                 (PointPacking(ZI, (zero,)), "count mismatch"),
                                 (PointPacking(ZI, (zero, half)), "not the same point set")):
            with pytest.raises(RuntimeError, match=message):
                pk._assert_same_point_set(packing, reduced)
        pk._assert_same_point_set(packing, pk.reduce(packing))

    def test_hexagonal_irreducible(self):
        packing = preset("hex")
        assert pk.periods(packing) == packing.lattice
        assert pk.reduce(packing).m == 2

    def test_ex34_reduces_to_square_lattice(self):
        packing = preset("ex34")
        reduced = pk.reduce(packing)
        assert reduced.m == 1
        assert reduced.lattice == Lattice.ring_lattice(GAUSSIAN)

    def test_single_component(self):
        packing = PointPacking(
            Lattice.ring_lattice(EISENSTEIN), (FieldElem.zero(EISENSTEIN),)
        )
        assert pk.periods(packing) == packing.lattice
        assert pk.reduce(packing).m == 1


def _reference_periods(packing):
    """per(L) by the pairwise test: Γ plus every difference x_j - x_k that
    carries each component onto some component, with m² `contains` each."""
    gamma = packing.lattice
    gens = [(g.a, g.b) for g in ref.generators(gamma)]
    for j in range(packing.m):
        for k in range(packing.m):
            t = ref.reduce_point(gamma, packing.shifts[j] - packing.shifts[k])
            if t.is_zero():
                continue
            if _reference_is_period(packing, t):
                gens.append((t.a, t.b))
    return Lattice.from_generators(gamma.ring, gens)


def _reference_is_period(packing, t):
    gamma = packing.lattice
    return all(
        any(gamma.contains(t + x_k - x_j) for x_j in packing.shifts)
        for x_k in packing.shifts
    )


def _reference_reduce(packing):
    """The maximal lattice and the reduced shifts, in first-seen order."""
    maximal = _reference_periods(packing)
    seen = []
    for x in packing.shifts:
        r = ref.reduce_point(maximal, x)
        if r not in seen:
            seen.append(r)
    return maximal, tuple(seen)


@st.composite
def sheared_lattices(draw, min_index=1):
    """(1/den)·H for a sheared sublattice H ⊆ Z² of index min_index–4, den ≤ 3."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    index = draw(st.integers(min_index, 4))
    h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
    h01 = draw(st.integers(0, h00 - 1))
    den = draw(st.integers(1, 3))
    return Lattice.from_generators(
        ring, [(F(h00, den), F(0)), (F(h01, den), F(index // h00, den))]
    )


_coords = st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda t: F(*t))


@st.composite
def reducible_packings(draw):
    """A packing with m ≤ 6 over a sheared Γ.  Half the time its shifts are
    whole orbits x + ⟨g⟩ of a point g of finite order mod Γ, so that g is a
    period and reduce has something to merge."""
    gamma = draw(sheared_lattices())
    count = draw(st.integers(1, 6))
    points = [ref.point(gamma, *draw(st.tuples(_coords, _coords))) for _ in range(count)]
    if draw(st.booleans()):
        g = ref.point(gamma, F(draw(st.integers(0, 3)), 4), F(draw(st.integers(0, 2)), 3))
        orbit = []
        for x in points:
            y = x
            while not any(gamma.contains(y - o) for o in orbit):
                orbit.append(y)
                y = y + g
        points = orbit
    shifts = []
    for x in points:
        if len(shifts) < 6 and not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    return PointPacking(gamma, tuple(shifts))


class TestPeriodsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(reducible_packings())
    def test_periods_and_reduce(self, packing):
        maximal, shifts = _reference_reduce(packing)
        assert pk.periods(packing) == maximal
        reduced = pk.reduce(packing)
        assert reduced.lattice == maximal
        assert reduced.shifts == shifts

    @settings(max_examples=300, deadline=None)
    @given(sheared_lattices(), st.lists(st.tuples(_coords, _coords), min_size=1, max_size=6))
    def test_rejects_exactly_congruent_pairs(self, gamma, coords):
        shifts = tuple(FieldElem(gamma.ring, a, b) for a, b in coords)
        congruent = any(
            gamma.contains(x - y) for i, x in enumerate(shifts) for y in shifts[i + 1 :]
        )
        if congruent:
            with pytest.raises(ValueError, match="congruent"):
                PointPacking(gamma, shifts)
        else:
            packing = PointPacking(gamma, shifts)
            assert packing.shifts == tuple(ref.reduce_point(gamma, x) for x in shifts)


@st.composite
def lattices_with_similarities(draw):
    """A sheared Γ of index 1–4 and a rotation or reflection (p/q)·z along a
    primitive z, with p ≤ 6 and q ≤ 3."""
    gamma = draw(sheared_lattices())
    z = draw(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        .map(lambda ab: RingElem(gamma.ring, *ab))
        .filter(lambda z: math.gcd(z.a, z.b) == 1)
    )
    d = Direction(z, draw(st.booleans()))
    return gamma, d, d.similarity(F(draw(st.integers(1, 6)), draw(st.integers(1, 3))))


class TestLatticeMapsMatchReference:
    """Image lattices from mapped generators and every "r·Γ₁ ⊆ Γ₂" answer
    from least_scale, against the 2×2 matrix routes they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(lattices_with_similarities())
    def test_matches_matrix_reference(self, case):
        from simiso import oracle as orc

        gamma, d, s = case
        img = s.image_lattice(gamma)
        assert img == ref.image_lattice(s, gamma)
        assert F(*sim.denominator(gamma, d)) == ref.denominator(gamma, d)

        period = ref.scaling_denominator(gamma, img)
        packing = PointPacking(gamma, (FieldElem.zero(gamma.ring),))
        assert orc._period_frame(packing, s)[2] == Lattice(
            gamma.ring, gamma.d, period * gamma.b00, period * gamma.b01, period * gamma.b11
        )

        c = ref.lift_scale(gamma)
        sub = Lattice(gamma.ring, c.denominator, c.numerator, 0, c.numerator)
        reps = ref.quotient_representatives(sub, gamma)
        expected = PointPacking(
            Lattice.ring_lattice(gamma.ring), tuple(r.scale(1 / c) for r in reps)
        )
        assert pk.lift_to_ring(packing) == expected


@st.composite
def refined_packings_with_similarities(draw):
    """The lattice (1/D)·R written over a sheared Γ ⊆ (1/D)·R, D the lcm of
    Γ's denominators, and an integer multiple of a primitive direction.  The
    similarity maps (1/D)·R into itself, so it is accepted, often with
    n ≥ 2 and sΓ ⊄ Γ."""
    gamma, d, _ = draw(lattices_with_similarities())
    fine = Lattice(gamma.ring, gamma.d, 1, 0, 1)
    packing = PointPacking(gamma, tuple(ref.quotient_representatives(gamma, fine)))
    return packing, d.similarity(draw(st.integers(1, 3)))


class TestCorollariesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(packings_with_similarities(), refined_packings_with_similarities()))
    def test_matches_containment_reference(self, case):
        """The arithmetic corollary checks against the lattice containments
        they replaced: (1/n)Γ, sΓ ⊆ Γ and n·sΓ ⊆ Γ built as lattices."""
        packing, s = case
        report = pk.check_similarity(packing, s)
        assume(report.accepted)
        expected = _reference_corollaries(report, packing)
        if report.n >= 2:
            # (1/n)Γ as a lattice agrees with the containment n·(x_j - x_i) ∈ Γ.
            one_nth = Similarity(FieldElem(packing.ring, F(1, report.n), F(0)))
            nth = ref.image_lattice(one_nth, packing.lattice)
            assert expected.shift_pair_in_nth_lattice == any(
                nth.contains(x_j - x_i)
                for i, x_i in enumerate(packing.shifts)
                for j, x_j in enumerate(packing.shifts)
                if i != j
            )
        assert corollaries(report, packing) == expected


def _reference_corollaries(report, packing):
    """The three corollaries by containment of Fraction points and lattices:
    n·(x_j - x_i) ∈ Γ, sΓ ⊆ Γ and n·sΓ ⊆ Γ."""
    gamma, n, s = packing.lattice, report.n, report.similarity
    pair = ref.shift_pair_in_nth_lattice(packing, n) if n >= 2 else None
    singleton = None
    if ref.contains_lattice(gamma, ref.image_lattice(s, gamma)):
        singleton = sorted(k for k, _ in report.tau) == list(range(packing.m))
    scaled = Similarity(s.w.scale(n), s.conjugate)
    n_beta = ref.contains_lattice(gamma, ref.image_lattice(scaled, gamma))
    return pk.CorollaryDiagnostics(pair, singleton, n_beta)


@st.composite
def integer_form_cases(draw):
    """Shifts over a sheared Γ of index 1–4 from sheared_lattices, both rings,
    and a rotation or reflection along a primitive z.  A third of the
    packings are (1/D)·R written over Γ with an integer multiple of z, which
    reduce and give n ≥ 2.  The others have m ≤ 6 incongruent shifts with
    denominators ≤ 12, one time in four with a shift repeated mod Γ, and
    half of their multipliers are lcm·den(Γ, R)·z, the other half p/q·z with
    p ≤ 6 and q ≤ 3."""
    gamma = draw(sheared_lattices())
    z = draw(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        .map(lambda ab: RingElem(gamma.ring, *ab))
        .filter(lambda z: math.gcd(z.a, z.b) == 1)
    )
    d = Direction(z, draw(st.booleans()))
    if draw(st.integers(0, 2)) == 0:
        big_d = gamma.d * draw(st.integers(1, 2))
        fine = Lattice(gamma.ring, big_d, 1, 0, 1)
        shifts = ref.quotient_representatives(gamma, fine)
        return gamma, tuple(shifts), d, d.similarity(draw(st.integers(1, 3)))
    den = draw(st.integers(1, 12))
    coord = st.integers(-2 * den, 2 * den).map(lambda t: F(t, den))
    shifts = []
    for a, b in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6)):
        x = FieldElem(gamma.ring, a, b)
        if not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    if draw(st.booleans()):
        shifts[0] = FieldElem.zero(gamma.ring)
    if draw(st.integers(0, 3)) == 0:
        copy = shifts[draw(st.integers(0, len(shifts) - 1))] + ref.point(gamma, 1, -1)
        shifts.insert(draw(st.integers(0, len(shifts))), copy)
    if draw(st.booleans()):
        lcm = math.lcm(*(c.denominator for x in shifts for c in (x.a, x.b)))
        ratio = lcm * ref.denominator(gamma, d) * draw(st.integers(1, 2))
    else:
        ratio = F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    return gamma, tuple(shifts), d, d.similarity(ratio)


class TestIntegerFormMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(integer_form_cases())
    def test_matches_rational_reference(self, case):
        """The integer residues of PointPacking and everything read from them
        against the Fraction routes they replaced: canonical shifts and the
        congruent-shift error, periods and reduce, den, the decision with its
        τ and witnesses, and the three corollaries."""
        gamma, shifts, d, s = case
        congruent = next(((x_j, x_i) for i, x_i in enumerate(shifts) for x_j in shifts[:i]
                          if gamma.contains(x_i - x_j)), None)
        if congruent is not None:
            with pytest.raises(ValueError) as err:
                PointPacking(gamma, shifts)
            assert str(err.value) == (f"shifts {congruent[0]} and {congruent[1]} are "
                                      "congruent mod the generating lattice")
            return
        packing = PointPacking(gamma, shifts)
        assert packing.shifts == tuple(ref.reduce_point(gamma, x) for x in shifts)
        maximal, reduced_shifts = _reference_reduce(packing)
        assert pk.periods(packing) == maximal
        reduced = pk.reduce(packing)
        assert (reduced.lattice, reduced.shifts) == (maximal, reduced_shifts)

        assert F(*sim.denominator(gamma, d)) == ref.denominator(gamma, d)
        report = pk.check_similarity(packing, s)
        got = (report.accepted, report.n, report.tau, witness_points(packing, report),
               report.failing_k, report.reached)
        assert got == ref.check_similarity(packing, s)
        if report.accepted:
            assert corollaries(report, packing) == _reference_corollaries(report, packing)


@st.composite
def frame_cases(draw):
    """A packing with m ≤ 4 over a sheared Γ ≠ R from Lattice.from_generators,
    both rings, with Γ and the shifts of denominators ≤ 12, a rotation or
    reflection and some integer pairs.  A third of the multipliers are w
    with denominators ≤ 12, a third lcm·den(Γ, R)·z, which Proposition 4.1
    accepts; the last third map (1/d)·R, written over Γ, by an integer
    multiple of z, accepted with n ≥ 2 as a rule."""
    ring = draw(st.sampled_from((GAUSSIAN, EISENSTEIN)))
    index = draw(st.integers(1, 6))
    h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
    h01, den = draw(st.integers(0, h00 - 1)), draw(st.integers(1, 12))
    gamma = Lattice.from_generators(ring, [(F(h00, den), F(0)), (F(h01, den), F(index // h00, den))])
    assume(gamma != Lattice.ring_lattice(ring))
    z = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: math.gcd(*ab) == 1))
    d = Direction(RingElem(ring, *z), draw(st.booleans()))
    mode = draw(st.integers(0, 2))
    if mode == 2:
        shifts = ref.quotient_representatives(gamma, Lattice(ring, gamma.d, 1, 0, 1))
        assume(len(shifts) <= 12)
        return PointPacking(gamma, tuple(shifts)), d, d.similarity(draw(st.integers(1, 3))), []
    coord = st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(lambda t: F(*t))
    shifts = []
    for a, b in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4)):
        x = FieldElem(ring, a, b)
        if not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    packing = PointPacking(gamma, tuple(shifts))
    if mode == 1:
        lcm = math.lcm(*(c.denominator for x in packing.shifts for c in (x.a, x.b)))
        s = d.similarity(lcm * F(*sim.denominator(gamma, d)))
    else:
        w = FieldElem(ring, draw(coord), draw(coord))
        assume(not w.is_zero())
        s = Similarity(w, d.conjugate)
    pairs = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=3))
    return packing, d, s, pairs


class TestIntegerFrameMatchesFieldElemFrame:
    """The integer map and the frame Γ + sΓ built on it against the route
    they replaced: s.apply on FieldElem points, sΓ from the images of Γ's
    generators, and the sum of Γ and sΓ over their least common
    denominator; the decision read from the frame against the per-pair
    reference."""

    @settings(max_examples=300, deadline=None)
    @given(frame_cases())
    def test_matches_fieldelem_frame(self, case):
        packing, d, s, pairs = case
        gamma, ring = packing.lattice, packing.ring
        points = list(gamma.basis) + list(packing.residues) + pairs
        e, images = s.map_pairs(points)
        for (x, y), (ix, iy) in zip(points, images, strict=True):
            expected = s.apply(FieldElem(ring, F(x, gamma.d), F(y, gamma.d)))
            assert FieldElem(ring, F(ix, e * gamma.d), F(iy, e * gamma.d)) == expected
        assert s.image_lattice(gamma) == ref.image_lattice(s, gamma)
        assert pk._frame(packing, s)[1] == ref.frame(packing, s)[0]

        report = pk.check_similarity(packing, s)
        got = (report.accepted, report.n, report.tau, witness_points(packing, report),
               report.failing_k, report.reached)
        assert got == ref.check_similarity(packing, s)

        # The sweep's per-q frames, on the lift; the sweep refuses a packing
        # whose lift exceeds the cap before it builds any frame.
        try:
            lifted = pk.lift_to_ring(packing)
        except ValueError:
            return
        for q in range(1, 5):
            total, n, targets, images = sweep_frame(lifted, d, q)
            expected, ref_targets, ref_images = ref.frame(lifted, d.similarity(F(1, q)))
            assert n == lat.index(lifted.lattice, expected)
            for a_k, b_k in zip(images, ref_images, strict=True):
                assert total.congruence(a_k, (0, 0)) == expected.congruence(b_k, (0, 0))
                for x_j, y_j in zip(targets, ref_targets, strict=True):
                    assert total.congruence(a_k, x_j) == expected.congruence(b_k, y_j)


class TestNoFractionOnTheDecisionPath:
    def test_residues_den_and_corollaries_build_no_fraction(self, monkeypatch):
        """The residue and congruence step of PointPacking, den(Γ, R), the
        corollaries, Lattice.from_generators on Fraction generators, periods
        and the frame Γ + sΓ run on integers.  PointPacking builds no
        Fraction, for shifts given outside the canonical cell too: its
        FieldElem shifts are built only when they are read."""
        from simiso import oracle as orc

        rng = random.Random(12)
        cases = []
        for i in range(80):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            index = rng.randint(1, 4)
            h00 = rng.choice([h for h in range(1, index + 1) if index % h == 0])
            den = rng.randint(1, 3)
            gens = [(F(h00, den), F(0)), (F(rng.randrange(h00), den), F(index // h00, den))]
            gamma = Lattice.from_generators(ring, gens)
            d = Direction(orc._random_primitive(rng, ring, 30), rng.random() < 0.5)
            if i % 2:
                # (1/den)·R over Γ: any integer multiple of z maps it into itself.
                fine = Lattice(ring, den, 1, 0, 1)
                shifts = ref.quotient_representatives(gamma, fine)
                s = d.similarity(rng.randint(1, 3))
            else:
                # ℓ = den·[Z² : H]·(shift denominator) maps Γ and every shift into Γ.
                shift_den = rng.randint(2, 12)
                shifts = [FieldElem.zero(ring)]
                for _ in range(rng.randint(0, 5)):
                    x = FieldElem(ring, F(rng.randint(-9, 9), shift_den),
                                  F(rng.randint(-9, 9), shift_den))
                    if not any(gamma.contains(x - y) for y in shifts):
                        shifts.append(x)
                s = d.similarity(den * index * shift_den)
            rebuilt = sum(x != ref.reduce_point(gamma, x) for x in shifts)
            packing = PointPacking(gamma, tuple(shifts))
            report = pk.check_similarity(packing, s)
            assert report.accepted
            cases.append((gamma, tuple(shifts), rebuilt, packing, d, report, sim.decompose(s)[0],
                          gens, s))
        assert sum(c[2] for c in cases) > 0 and any(c[5].n >= 2 for c in cases)

        built = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        for gamma, shifts, rebuilt, packing, d, report, ratio, gens, s in cases:
            PointPacking(gamma, shifts)
            assert built == []
            den = sim.denominator(gamma, d)
            pk.check_corollaries(report, packing, ratio, den)
            assert Lattice.from_generators(gamma.ring, gens) == gamma
            pk.periods(packing)
            pk._frame(packing, s)
            assert built == []

    def test_decision_builds_only_its_witness_points(self, monkeypatch):
        """check_similarity maps the residues and Γ's basis as integer pairs
        and returns its witness points as integer pairs, so no decision,
        accepted or rejected, builds a Fraction.  image_lattice and
        den(Γ, R) build none, for rational w too, and neither does the Scal
        sweep, which maps by z's ints over closed-form frames.  None of them
        multiplies FieldElems."""
        from simiso import oracle as orc

        rng = random.Random(15)
        cases = []
        for i in range(60):
            ring = rng.choice((GAUSSIAN, EISENSTEIN))
            den = rng.randint(1, 6)
            gamma = Lattice.from_generators(ring, [(F(rng.randint(1, 3), den), F(0)),
                                                   (F(rng.randint(-3, 3), den), F(rng.randint(1, 3), den))])
            shifts = [FieldElem.zero(ring)]
            for _ in range(rng.randint(0, 3)):
                x = FieldElem(ring, F(rng.randint(-9, 9), rng.randint(1, 12)),
                              F(rng.randint(-9, 9), rng.randint(1, 12)))
                if not any(gamma.contains(x - y) for y in shifts):
                    shifts.append(x)
            if i % 3 == 2:  # (1/d)·R over Γ, accepted by integer multiples of z
                shifts = ref.quotient_representatives(gamma, Lattice(ring, gamma.d, 1, 0, 1))
            packing = PointPacking(gamma, tuple(shifts))
            d = Direction(orc._random_primitive(rng, ring, 30), rng.random() < 0.5)
            if i % 3 == 2:
                s = d.similarity(rng.randint(1, 3))
            elif i % 3:  # Proposition 4.1: lcm·den(Γ, R)·z is accepted
                lcm = math.lcm(*(c.denominator for x in packing.shifts for c in (x.a, x.b)))
                s = d.similarity(lcm * F(*sim.denominator(gamma, d)))
            else:
                s = d.similarity(F(rng.randint(1, 6), rng.randint(1, 12)))
            ring = Lattice.ring_lattice(gamma.ring)
            ring_shifts = [x for i, x in enumerate(shifts)
                           if not any(ring.contains(x - y) for y in shifts[:i])]
            ring_packing = PointPacking(ring, tuple(ring_shifts))
            q = rng.randint(1, 4)
            cases.append((packing, s, d, pk.check_similarity(packing, s),
                          ring_packing, d.similarity(F(1, q))))
        assert {c[3].accepted for c in cases} == {False, True}
        assert any(c[3].n >= 2 for c in cases if c[3].accepted)

        def refuse(*args):
            raise AssertionError("a FieldElem product on the decision path")

        monkeypatch.setattr(Similarity, "apply", refuse)
        monkeypatch.setattr(FieldElem, "__mul__", refuse)
        built = []
        new = F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        for packing, s, d, report, ring_packing, trial in cases:
            assert pk.check_similarity(packing, s) == report
            assert built == []
            s.image_lattice(packing.lattice)
            sim.denominator(packing.lattice, d)
            pk._frame(ring_packing, trial)
            pk._sweep_direction(ring_packing, d)
            assert built == []

    def test_circle_bound_builds_no_fraction(self, monkeypatch):
        """render_svg's circle bound reads the window and each drawn lattice
        as integers over one frame, and equals the bound read on Fraction
        corners: with the cap one below it the figure is refused naming it,
        and no Fraction is built."""
        cases = []
        for name, w in (("ex34", (0, 1)), ("hex-shifted", (2, 2)), ("rect12", (1, 2))):
            packing = preset(name)
            rotation = Similarity(FieldElem(packing.ring, F(w[0], 3), F(w[1], 2)))
            rotated = rotation.image_lattice(packing.lattice)
            for window in ((F(-4), F(-3), F(5), F(4)), (F(-7, 3), F(1, 2), F(5, 6), F(9, 4))):
                for s, image in ((None, None), (rotation, rotated)):
                    cases.append((packing, s, over_denominator(window),
                                  ref.circle_bound(packing, image, window)))
        built = []
        new = F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        for packing, s, window, expected in cases:
            monkeypatch.setattr(render, "MAX_RENDER_POINTS", expected - 1)
            with pytest.raises(ValueError, match=f"up to {expected} circles"):
                render_svg(packing, s, window)
        assert built == []


class TestNoFieldElemArithmeticOnTheEnginePaths:
    def test_engine_paths_do_no_fieldelem_arithmetic(self, monkeypatch):
        """The lift, the Scal solve, the decision, reduce and render_svg, its
        circle bound included, work on integer pairs: with FieldElem's +, -,
        *, unary - and conj refused they run on ex34 and on a sheared
        Eisenstein Γ and give what they gave before.  Packings, similarities and windows are
        built first."""
        gamma = Lattice.from_generators(EISENSTEIN, [(F(2, 3), F(0)), (F(1, 3), F(1, 2))])
        sheared = PointPacking(gamma, (FieldElem.zero(EISENSTEIN), FieldElem(EISENSTEIN, F(1, 6), F(1, 4))))
        ex34 = preset("ex34")
        directions = [
            (ex34, Direction(RingElem(GAUSSIAN, 0, 1))),
            (ex34, Direction(RingElem(GAUSSIAN, 2, 1), True)),
            (sheared, Direction(RingElem(EISENSTEIN, 1, 1), True)),
            (sheared, Direction(RingElem(EISENSTEIN, 2, 1))),
        ]
        decisions = [(ex34, simw(GAUSSIAN, 0, 1)), (ex34, Similarity(fe(GAUSSIAN, F(1, 2), 0))),
                     (sheared, simw(EISENSTEIN, 12, 0)), (sheared, simw(EISENSTEIN, 0, 12))]
        window = over_denominator((F(-3), F(-5, 2), F(4), F(3)))

        def run():
            out = [(pk.lift_to_ring(packing), pk.scal_classes_by_tau(packing, d),
                    pk.scal_set_packing(packing, d)) for packing, d in directions]
            out.append([pk.check_similarity(packing, s) for packing, s in decisions])
            out.append([pk.reduce(packing) for packing in (ex34, sheared)])
            out.append([render_svg(packing, s, window) for packing, s in decisions])
            return out

        expected = run()
        assert {r.accepted for r in expected[-3]} == {False, True}

        def refuse(*args):
            raise AssertionError("FieldElem arithmetic on an engine path")

        for name in ("__add__", "__sub__", "__mul__", "__neg__", "conj"):
            monkeypatch.setattr(FieldElem, name, refuse)
        assert run() == expected


@st.composite
def exact_cases(draw):
    """A packing with m ≤ 4 over a sheared Γ of index 1–4 and a similarity
    (p/q)·z, every coordinate a Fraction; many of them are integral."""
    gamma = draw(sheared_lattices())
    coord = st.tuples(st.integers(-4, 4), st.sampled_from([1, 1, 2, 3])).map(lambda t: F(*t))
    shifts = []
    for a, b in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4)):
        x = FieldElem(gamma.ring, a, b)
        if not any(gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    z = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: math.gcd(*ab) == 1))
    ratio = F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 1, 2, 3])))
    w = FieldElem(gamma.ring, F(z[0]), F(z[1])).scale(ratio)
    return gamma, shifts, Similarity(w, draw(st.booleans()))


def _written_as(case, kind):
    """The case with each integral coordinate written as kind, int or Fraction."""
    gamma, shifts, s = case

    def coord(v):
        return kind(v.numerator) if v.denominator == 1 else v

    def elem(x):
        return FieldElem(x.ring, coord(x.a), coord(x.b))

    basis = [(coord(g.a), coord(g.b)) for g in ref.generators(gamma)]
    packing = PointPacking(Lattice.from_generators(gamma.ring, basis), tuple(map(elem, shifts)))
    return packing, Similarity(elem(s.w), s.conjugate)


class TestIntAndFractionAgree:
    @settings(max_examples=200, deadline=None)
    @given(exact_cases())
    def test_int_and_fraction_inputs_agree(self, case):
        """Integral coordinates written as int or as Fraction give equal
        results, every coordinate returned is exact and every Lattice field
        an int."""
        results = []
        for kind in (int, F):
            packing, s = _written_as(case, kind)
            report = pk.check_similarity(packing, s)
            lifted = pk.lift_to_ring(packing)
            per = pk.periods(packing)
            ratio, d = sim.decompose(s)
            results.append((
                (report.n, report.tau, witness_points(packing, report), report.failing_k,
                 report.reached),
                lifted, per, pk.scal_classes_by_tau(packing, d), (ratio, d),
                [str(x) for x in packing.shifts],
            ))
            points = [*packing.shifts, *lifted.shifts, d.z]
            coords = [c for x in points for c in (x.a, x.b)]
            assert all(type(c) in (int, F) for c in coords)
            fields = [c for g in (packing.lattice, lifted.lattice, per) for c in (g.d, g.b00, g.b01, g.b11)]
            fields += [c for _, _, xy in report.witness for c in xy]
            assert all(type(c) is int for c in fields)
        assert results[0] == results[1]


class TestShift:
    # L + x is PointPacking(Γ, shifts + x).
    def test_hexagonal_shift(self):
        packing = preset("hex")
        shifted = PointPacking(packing.lattice, tuple(s + HEX_SHIFT for s in packing.shifts))
        assert shifted.shifts[0] == HEX_SHIFT
        # (4+2ω)/3 normalizes to the congruent representative (1+2ω)/3.
        second = shifted.shifts[1]
        assert shifted.lattice.contains(
            second - FieldElem(EISENSTEIN, F(4, 3), F(2, 3))
        )
        assert shifted == preset("hex-shifted")

    def test_zero_shift(self):
        packing = preset("rect12")
        zero = FieldElem.zero(GAUSSIAN)
        assert PointPacking(packing.lattice, tuple(s + zero for s in packing.shifts)) == packing

    def test_lattice_period_shift(self):
        packing = preset("rect12")
        period = fe(GAUSSIAN, 2, -1)
        assert PointPacking(packing.lattice, tuple(s + period for s in packing.shifts)) == packing


class TestClosure:
    def test_hexagonal_monoid(self):
        packing = preset("hex")
        pairs = [
            (simw(EISENSTEIN, 2, 2), simw(EISENSTEIN, 3, 0)),
            (simw(EISENSTEIN, 2, 2), simw(EISENSTEIN, 2, 2)),
            (simw(EISENSTEIN, 2, 1), simw(EISENSTEIN, 3, 0, True)),
        ]
        diag = pk.closure_check(packing, pairs)
        assert diag.all_compositions_accepted()
        assert diag.hypothesis_holds()

    def test_ex34_converse_failure(self):
        # The square lattice over {3a+bi}: compositions stay accepted while
        # Scal(L,R) = Z is not a subset of Scal(Γ,R) = 3Z.
        packing = preset("ex34")
        quarter = simw(GAUSSIAN, 0, 1)
        diag = pk.closure_check(packing, [(quarter, quarter)])
        assert diag.all_compositions_accepted()
        assert not diag.hypothesis_holds()

    def test_identity_pairs(self):
        packing = preset("rect12")
        ident = simw(GAUSSIAN, 1, 0)
        diag = pk.closure_check(packing, [(ident, ident)])
        assert diag.all_compositions_accepted()

    def test_unaccepted_sample_rejected(self):
        packing = preset("hex")
        with pytest.raises(ValueError):
            pk.closure_check(packing, [(simw(EISENSTEIN, 1, 1), simw(EISENSTEIN, 3, 0))])

    def test_reflection_over_ideal_sublattice(self):
        # Γ = (2+i)·Z[i] with m = 1 and x ↦ (p/q)(3+4i)·conj(x): den(Γ, R) = 1/5
        # and Scal(L, R) = Scal(Γ, R) = (1/5)·Z·|z|, with a class at q = 5.
        gamma = Lattice.from_generators(GAUSSIAN, [(F(2), F(1)), (F(-1), F(2))])
        packing = PointPacking(gamma, (FieldElem.zero(GAUSSIAN),))
        d = Direction(RingElem(GAUSSIAN, 3, 4), True)
        assert sim.denominator(gamma, d) == (1, 5)
        assert any(c.q == 5 for c in pk.scal_set_packing(packing, d).classes)
        s = d.similarity(F(1, 5))
        diag = pk.closure_check(packing, [(s, s)])
        assert diag.all_compositions_accepted()
        assert diag.hypothesis_holds()

    def test_inverse_probe(self):
        packing = preset("hex")
        assert pk.inverse_probe(packing, simw(EISENSTEIN, 2, 2)) is True
        assert pk.inverse_probe(preset("ex34"), simw(GAUSSIAN, 0, 1)) is True
