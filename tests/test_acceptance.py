"""Acceptance criteria, one test per criterion, all at exact tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Everything here is exact arithmetic: expected values come
from the published tables and worked examples, or from the independent
brute-force oracle, never from the engine under test.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from simiso import lattices as lat, oracle as orc, packings as pk, similarity as sim
from simiso.cli import table_rows
from simiso.lattices import Lattice
from simiso.presets import preset
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, RingElem
from simiso.similarity import Direction, Similarity

F = Fraction


@contextmanager
def crit(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num:>2}: {label}")
        raise
    print(f"PASS  criterion {num:>2}: {label}")


def fe(ring, a, b):
    return FieldElem(ring, F(a), F(b))


def simw(ring, a, b, conjugate=False):
    return Similarity(fe(ring, a, b), conjugate)


def rows_for(name, zs):
    return [(r["class"], r["scal"], r["tau"]) for r in table_rows(name, explicit=list(zs))]


HEX_DIAG = "{((2+ω)/3,(2+ω)/3),((1+2ω)/3,(1+2ω)/3)}"
HEX_CROSS = "{((2+ω)/3,(1+2ω)/3),((1+2ω)/3,(2+ω)/3)}"
EIS_SAMPLES = {
    1: [(1, 0), (1, 3), (3, 1)],
    2: [(1, 1), (2, 3), (3, 2)],
    0: [(2, 1), (1, 2), (1, 5)],
}


def test_criterion_1_table_1():
    with crit(1, "Table 1 rows for the 1×2 rectangular lattice"):
        per_class = {
            (1, 0): [
                ("(a,b)≡(1,0) mod 2", "den·2Z", "{(0,0),(1/2,0)}"),
                ("(a,b)≡(1,0) mod 2", "den·(1+2Z)", "{(0,0),(1/2,1/2)}"),
            ],
            (0, 1): [("(a,b)≡(0,1) mod 2", "den·2Z", "{(0,0),(1/2,0)}")],
            (1, 1): [("(a,b)≡(1,1) mod 2", "den·2Z", "{(0,0),(1/2,0)}")],
        }
        samples = {
            (1, 0): [(1, 2), (3, 2)],
            (0, 1): [(2, 1), (2, 3)],
            (1, 1): [(1, 1), (3, 1)],
        }
        for key, zs in samples.items():
            got = rows_for("t1", zs)
            assert got == per_class[key] * len(zs), (key, got)


def test_criterion_2_tables_2_and_3():
    with crit(2, "Tables 2 and 3 rows for the hexagonal packing"):
        t2_expected = {
            1: [
                ("a+b≡1 mod 3", "den·3Z", "{(0,0),((2+ω)/3,0)}"),
                ("a+b≡1 mod 3", "den·(1+3Z)", "{(0,0),((2+ω)/3,(2+ω)/3)}"),
            ],
            2: [
                ("a+b≡2 mod 3", "den·3Z", "{(0,0),((2+ω)/3,0)}"),
                ("a+b≡2 mod 3", "den·(2+3Z)", "{(0,0),((2+ω)/3,(2+ω)/3)}"),
            ],
            0: [("a+b≡0 mod 3", "den·Z", "{(0,0),((2+ω)/3,0)}")],
        }
        t3_expected = {
            1: [
                ("a+b≡1 mod 3", "den·3Z", "{(0,0),((2+ω)/3,0)}"),
                ("a+b≡1 mod 3", "den·(2+3Z)", "{(0,0),((2+ω)/3,(2+ω)/3)}"),
            ],
            2: [
                ("a+b≡2 mod 3", "den·3Z", "{(0,0),((2+ω)/3,0)}"),
                ("a+b≡2 mod 3", "den·(1+3Z)", "{(0,0),((2+ω)/3,(2+ω)/3)}"),
            ],
            0: [("a+b≡0 mod 3", "den·Z", "{(0,0),((2+ω)/3,0)}")],
        }
        for key, zs in EIS_SAMPLES.items():
            assert rows_for("t2", zs) == t2_expected[key] * len(zs)
            assert rows_for("t3", zs) == t3_expected[key] * len(zs)
        # The rotation/reflection asymmetry: the residue of the
        # component-preserving class swaps 1+3Z ↔ 2+3Z between the tables.
        assert t2_expected[1][1][1] == "den·(1+3Z)" and t3_expected[1][1][1] == "den·(2+3Z)"
        assert t2_expected[2][1][1] == "den·(2+3Z)" and t3_expected[2][1][1] == "den·(1+3Z)"


def test_criterion_3_tables_4_and_5():
    with crit(3, "Tables 4 and 5 rows; empty classes certify os(x+L) ⊊ os(Γ)"):
        t4_expected = {
            1: [
                ("a+b≡1 mod 3", "den·(1+3Z)", HEX_DIAG),
                ("a+b≡1 mod 3", "den·(2+3Z)", HEX_CROSS),
            ],
            2: [
                ("a+b≡2 mod 3", "den·(1+3Z)", HEX_CROSS),
                ("a+b≡2 mod 3", "den·(2+3Z)", HEX_DIAG),
            ],
            0: [("a+b≡0 mod 3", "∅", "∅")],
        }
        t5_expected = {
            1: [
                ("a+b≡1 mod 3", "den·(1+3Z)", HEX_CROSS),
                ("a+b≡1 mod 3", "den·(2+3Z)", HEX_DIAG),
            ],
            2: [
                ("a+b≡2 mod 3", "den·(1+3Z)", HEX_DIAG),
                ("a+b≡2 mod 3", "den·(2+3Z)", HEX_CROSS),
            ],
            0: [("a+b≡0 mod 3", "∅", "∅")],
        }
        for key, zs in EIS_SAMPLES.items():
            assert rows_for("t4", zs) == t4_expected[key] * len(zs)
            assert rows_for("t5", zs) == t5_expected[key] * len(zs)
        shifted = preset("hex-shifted")
        for a, b in EIS_SAMPLES[0]:
            for conjugate in (False, True):
                d = Direction(RingElem(EISENSTEIN, a, b), conjugate)
                assert pk.scal_set_packing(shifted, d).is_empty()
                # The same direction does act on Γ, so os(x+L) ⊊ os(Γ).
                assert sim.denominator(shifted.lattice, d)[0] > 0
        # The displayed second shift is the paper's (4+2ω)/3 reduced into
        # the fundamental domain.
        assert shifted.lattice.contains(
            shifted.shifts[1] - FieldElem(EISENSTEIN, F(4, 3), F(2, 3))
        )


def test_criterion_4_denominator_example():
    with crit(4, "den(Z[i], 1+2i) displays √5 and Scal(Γ,R) = √5·Z"):
        base = Lattice.ring_lattice(GAUSSIAN)
        d = Direction(RingElem(GAUSSIAN, 1, 2))
        ratio = Fraction(*sim.denominator(base, d))
        assert sim.format_scale(ratio, d.norm()) == "√5"
        scal = sim.scal_lattice(base, d)
        assert scal.display() == "√5·Z"
        assert scal.contains_ratio(3) and not scal.contains_ratio(F(1, 2))


def test_criterion_5_square_over_rect31():
    with crit(5, "quarter turn of Z[i] over {3a+bi}: n = 3, τ = V×V"):
        packing = preset("ex34")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 0, 1))
        assert report.accepted and report.n == 3
        assert len(report.tau) == 9
        assert set(report.tau) == {(k, j) for k in range(3) for j in range(3)}
        ratio, d = sim.decompose(report.similarity)
        diag = pk.check_corollaries(report, packing, ratio, sim.denominator(packing.lattice, d))
        assert False not in diag.values() and diag["shift_pair_in_nth_lattice"] is True
        # x_1 - x_0 lies in (1/3)Γ.
        assert packing.lattice.contains((packing.shifts[1] - packing.shifts[0]).scale(3))


def test_criterion_6_rect12_octagonal():
    with crit(6, "w = 2+2i on the 1×2 rectangular packing: both into Γ"):
        packing = preset("rect12")
        report = pk.check_similarity(packing, simw(GAUSSIAN, 2, 2))
        assert report.accepted and report.n == 1
        assert report.tau == ((0, 0), (1, 0))
        pairs = [(packing.shifts[k], packing.shifts[j]) for k, j in report.tau]
        assert [str(a) for a, _ in pairs] == ["0", "1/2"]
        assert all(str(b) == "0" for _, b in pairs)


def test_criterion_7_hexagonal_doubled_rotation():
    with crit(7, "w = 2(1+ω) on hex: τ diagonal, Scal = 3Z ∪ (2+3Z), den = 2"):
        packing = preset("hex")
        report = pk.check_similarity(packing, simw(EISENSTEIN, 2, 2))
        assert report.accepted and report.tau == ((0, 0), (1, 1))
        d = Direction(RingElem(EISENSTEIN, 1, 1))
        scal = pk.scal_set_packing(packing, d)
        assert scal.display() == "3Z ∪ (2+3Z)"
        ratio = scal.min_positive_ratio()
        assert sim.format_scale(ratio, d.norm()) == "2"


def test_criterion_8_shifted_hexagonal_equality():
    with crit(8, "w = 1+ω on the shifted hex packing: s(x+L) = x+L exactly"):
        packing = preset("hex-shifted")
        s = simw(EISENSTEIN, 1, 1)
        assert pk.check_similarity(packing, s).accepted
        contained, _ = orc.certify_subpacking(packing, s)
        assert contained
        # Subset plus density ratio 1 forces set equality.
        assert orc.index_by_counting(packing, s).index == 1


def test_criterion_9_engine_oracle_equivalence():
    with crit(9, "engine/oracle agreement on 200 random instances per ring"):
        rng = random.Random(20260809)
        for ring in (GAUSSIAN, EISENSTEIN):
            for _ in range(200):
                case = orc.random_case(rng, ring)
                engine = pk.check_similarity(case.packing, case.similarity).accepted
                oracle_ok, _ = orc.certify_subpacking(case.packing, case.similarity)
                assert engine == oracle_ok, (case.packing, case.similarity)


def test_criterion_10_rational_shift_witness():
    with crit(10, "lcm(shift denominators)·den witness accepted, 100 per ring"):
        rng = random.Random(41)
        for ring in (GAUSSIAN, EISENSTEIN):
            for _ in range(100):
                case = orc.random_case(rng, ring, p_bound=1, q_bound=1)
                packing = case.packing
                z = orc._random_primitive(rng, ring, 80)
                d = Direction.from_ints(ring, *z, rng.random() < 0.5)
                lcm_den = 1
                for x in packing.shifts:
                    lcm_den = math.lcm(lcm_den, x.a.denominator, x.b.denominator)
                beta = lcm_den * Fraction(*sim.denominator(packing.lattice, d))
                assert pk.check_similarity(packing, d.similarity(beta)).accepted


def test_criterion_11_closure_and_converse_failure():
    with crit(11, "monoid closure on hex samples; converse fails on ex34"):
        packing = preset("hex")
        rng = random.Random(5)
        pool = []
        while len(pool) < 10:
            z = orc._random_primitive(rng, EISENSTEIN, 13)
            d = Direction.from_ints(EISENSTEIN, *z, rng.random() < 0.5)
            scal = pk.scal_set_packing(packing, d)
            members = [
                F(p, c.q)
                for c in scal.classes
                for r in c.residues
                for p in ((r or c.modulus), (r or c.modulus) + c.modulus)
                if math.gcd(p, c.q) == 1
            ]
            if not members:
                continue
            pool.append(d.similarity(rng.choice(members)))
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
        composed, hypothesis = pk.closure_check(packing, pairs)
        assert len(composed) == 50 and all(composed)
        assert hypothesis and all(holds for _, holds in hypothesis)

        ex34 = preset("ex34")
        quarter = simw(GAUSSIAN, 0, 1)
        composed34, hypothesis34 = pk.closure_check(ex34, [(quarter, quarter)])
        assert composed34 == (True,)
        assert not all(holds for _, holds in hypothesis34)
        # Concretely: β = 1 scales L into itself but Γ into a non-sublattice.
        assert pk.check_similarity(ex34, quarter).accepted
        assert sim.denominator(ex34.lattice, Direction(RingElem(GAUSSIAN, 0, 1))) == (3, 1)


def test_criterion_12_periods_and_reduction():
    with crit(12, "checkerboard reduces to covolume 1/2; hex is irreducible"):
        ex22 = preset("ex22")
        reduced = pk.reduce(ex22)
        assert reduced.m == 1
        assert lat.index(reduced.lattice, Lattice.ring_lattice(GAUSSIAN)) == F(1, 2)
        hexp = preset("hex")
        assert pk.periods(hexp) == hexp.lattice
        assert pk.reduce(hexp) == hexp
