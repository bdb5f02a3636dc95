"""Point packings and their similarity isometries.

The decision engine follows the component-counting characterization: a
similarity s with image lattice sΓ maps the packing into itself exactly
when every component image meets n = [sΓ : Γ ∩ sΓ] components, recorded in
the correspondence set τ.  Each decision builds one integer Hermite form of
the frame Γ + sΓ, which gives n and each J_k as one residue class of it;
witness points are integer pairs, made only once the similarity is accepted.

A packing keeps Γ over its least denominator d and its shifts as integer
residues mod d·Γ, built by PointPacking.from_pairs from integer pairs, and
the similarity maps those residues and Γ's basis as integer pairs
(Similarity.map_pairs).  So the frame, congruence, periods, reduction,
witness offsets, corollary (i) and the lift to R are integer arithmetic; a
Fraction is built only to hand a point back as a FieldElem.

Scaling-factor sets are solved per denominator q over the ring lattice R,
to which every packing is first lifted.  For β = (p/q)|z| with gcd(p, q) = 1,
the frame S = R + sR and n = [S : R] depend on q and z only, and
_sweep_direction reads them in closed form.  Each k meeting a residue class
of the targets mod S is then a linear congruence in p.  The components'
congruences are merged by the Chinese remainder theorem, which keeps τ with
each residue, and _minimal_modulus folds the result by its group of
periods into one ResidueClass of the smallest modulus; neither step walks
the residues of that modulus.  At q = 1, the q of every cell of Tables
1–5, each merged residue is a row of its own, and scal_classes_by_tau says
why.  check_corollaries and closure_check return plain dicts and tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lattices, similarity as sim
from .lattices import Lattice
from .rings import FieldElem, format_pair, pair_norm
from .similarity import Direction, ResidueClass, ScalSet, Similarity, Value


# Largest component count of a lifted packing; the Scal solve is quadratic in it.
MAX_LIFTED_COMPONENTS = 64
# Most residues the Scal solve keeps per q while it merges the congruences.
MAX_SCAL_RESIDUES = 2_000


class PointPacking(Value):
    """A finite union of shifted copies x_k + Γ of one generating lattice.

    The lattice is stored over the packing's own denominator d, the least one
    over which Γ and every shift are integral, and residues holds d·x_k for
    each shift, its canonical residue mod d·Γ, so two components are one
    exactly when their residues are equal; the given shifts must be pairwise
    incongruent.  A packing whose shifts include 0 models L; one without
    models a shifted packing x + L.  Every question mod Γ (congruence,
    periods, corollary (i), witnesses) is answered on these integers.

    from_pairs is the one constructor that canonicalises; PointPacking(Γ,
    shifts) puts FieldElem shifts over one denominator with Γ and calls it.
    shifts, the FieldElem of each residue, is built each time it is read.
    As a similarity.Value a packing is immutable, equal when its lattice, d
    and residues are, and copied, pickled and printed as its from_pairs call.
    """

    __slots__ = ("lattice", "residues")

    def __new__(cls, lattice: Lattice, shifts) -> PointPacking:
        return cls.from_pairs(*lattice.with_points(shifts))

    @classmethod
    def from_pairs(cls, lattice: Lattice, pairs) -> PointPacking:
        """The packing with shifts x_k given as the integer pairs d·x_k over
        the lattice's denominator d, in order; each pair is reduced mod d·Γ,
        and everything is then written over the least denominator."""
        if not pairs:
            raise ValueError("a packing needs at least one component")
        ring, d, b00, b01, b11 = lattice.ring, lattice.d, lattice.b00, lattice.b01, lattice.b11
        given: dict[tuple[int, int], int] = {}  # canonical residue -> index given
        for i, xy in enumerate(pairs):
            r = lattice.reduce(*xy)
            if r in given:
                first, again = (format_pair(ring, *pairs[j], d) for j in (given[r], i))
                raise ValueError(f"shifts {first} and {again} are congruent mod the "
                                 "generating lattice")
            given[r] = i
        residues = tuple(given)
        g = math.gcd(d, b00, b01, b11, *(c for r in residues for c in r))
        if g > 1:
            lattice = Lattice(ring, d // g, b00 // g, b01 // g, b11 // g)
            residues = tuple((x // g, y // g) for x, y in residues)
        return cls._made(lattice=lattice, residues=residues)

    @property
    def shifts(self) -> tuple[FieldElem, ...]:
        return tuple(self.lattice.element(x, y) for x, y in self.residues)

    @property
    def ring(self) -> str:
        return self.lattice.ring

    @property
    def m(self) -> int:
        return len(self.residues)

    def _key(self):
        return self.lattice, self.lattice.d, self.residues

    def _made_by(self):
        return "from_pairs", (self.lattice, list(self.residues))

    def __str__(self) -> str:
        ring, d = self.ring, self.lattice.d
        comps = " ∪ ".join(f"({format_pair(ring, x, y, d)}+Γ)" for x, y in self.residues)
        return f"{comps} over Γ={self.lattice}"


@dataclass(frozen=True)
class SimilarityReport:
    """Outcome of the component-counting test for one similarity; a
    rejection names the first k with |J_k| < n and, in reached, its J_k.
    witness gives per τ pair a point of s(x_k + Γ) ∩ (x_j + Γ) over d."""

    accepted: bool
    n: int
    tau: tuple[tuple[int, int], ...]
    witness: tuple[tuple[int, int, tuple[int, int]], ...]
    similarity: Similarity
    failing_k: int | None = None
    reached: tuple[int, ...] = ()


def check_similarity(packing: PointPacking, s: Similarity) -> SimilarityReport:
    """Decide whether s maps the packing into itself; report n and τ.

    Accepted iff every index set J_k = {j : s(x_k) - x_j ∈ Γ + sΓ} has size
    exactly n = [sΓ : Γ ∩ sΓ].  |J_k| never exceeds n, so rejection reports
    the first k with |J_k| < n.  One Hermite form of the frame Γ + sΓ serves
    the decision: n = [Γ + sΓ : Γ] is the ratio of the two determinants, and
    J_k is the targets x_j that share s(x_k)'s residue on the frame.

    The witness of (k, j) is s(x_k) + σ, for σ the point of sΓ in the class
    of x_j - s(x_k) mod Γ among i·s(g0) + t·s(g1), 0 ≤ i < o, 0 ≤ t < n/o,
    where g0, g1 is Γ's Hermite basis and o the least integer with
    o·s(g0) ∈ Γ.  These are one point per class of (Γ + sΓ)/Γ, a group of
    order n: s(g0) has order o in it, and s(g1) generates its quotient by
    ⟨s(g0)⟩.  s(x_k) + σ lies in x_j + Γ, so it divides by e exactly.
    """
    fine, frame, (g0, g1), targets, images = _frame(packing, s)
    n = fine.b00 * fine.b11 // (frame.b00 * frame.b11)
    classes: dict[tuple[int, int], list[int]] = {}  # residue on the frame -> its targets j
    for j, b in enumerate(targets):
        classes.setdefault(frame.reduce(*b), []).append(j)
    tau: list[tuple[int, int]] = []
    for k, a in enumerate(images):
        met = classes.get(frame.reduce(*a), [])
        if len(met) != n:
            return SimilarityReport(False, n, (), (), s, k, tuple(met))
        tau += [(k, j) for j in met]
    o = fine.least_scale([g0])[0]
    sigma = {}  # residue mod Γ -> its point of sΓ, all over e·d
    for i in range(o):
        for t in range(n // o):
            x, y = i * g0[0] + t * g1[0], i * g0[1] + t * g1[1]
            sigma[fine.reduce(x, y)] = x, y
    e = fine.d // packing.lattice.d
    witness = []
    for k, j in tau:
        (ax, ay), (bx, by) = images[k], targets[j]
        x, y = sigma[fine.reduce(bx - ax, by - ay)]
        witness.append((k, j, ((ax + x) // e, (ay + y) // e)))
    return SimilarityReport(True, n, tuple(tau), tuple(witness), s)


def _frame(
    packing: PointPacking, s: Similarity
) -> tuple[Lattice, Lattice, list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Γ and the frame Γ + sΓ over e·d, e the denominator of w, with the
    images e·d·s(g) of Γ's Hermite basis, the targets e·d·x_k of every
    component and the images e·d·s(x_k), all mapped as integer pairs."""
    gamma = packing.lattice
    e, mapped = s.map_pairs([*gamma.basis, *packing.residues])
    fine = gamma.over(e * gamma.d)
    frame = Lattice.spanned(gamma.ring, fine.d, [*fine.basis, *mapped[:2]])
    targets = [(e * x, e * y) for x, y in packing.residues]
    return fine, frame, mapped[:2], targets, mapped[2:]


def lift_to_ring(packing: PointPacking) -> PointPacking:
    """The point set scaled by 1/c, as the components (x_k + r)/c over R.

    c = a/b is the least positive rational with c·R ⊆ Γ and r runs over
    Γ/c·R.  Over Γ's d, c·R is side·Z² with side = a·d/b, an integer as
    c·d·Z² ⊆ d·Γ, so d·r is an integer pair of quotient_representatives and
    (x_k + r)/c is b·(d·x_k + d·r) over a·d: the lift rescales the residues,
    residue-major, and hands the pairs to PointPacking.from_pairs over the
    ring lattice written over a·d.  Similarities commute with the scaling,
    so s(L) ⊆ L holds exactly when it holds for the lift.  Raises ValueError
    above MAX_LIFTED_COMPONENTS.
    """
    gamma = packing.lattice
    if gamma.d == gamma.b00 == gamma.b11 and gamma.b01 == 0:  # Γ is R
        return packing
    a, b = gamma.least_scale([(gamma.d, 0), (0, gamma.d)])  # R over d
    side = a * gamma.d // b
    m = packing.m * side * side // (gamma.b00 * gamma.b11)  # m·[Γ : c·R], as c·R ⊆ Γ
    if m > MAX_LIFTED_COMPONENTS:
        raise ValueError(f"the packing lifts to {m} components over the ring "
                         f"lattice; at most {MAX_LIFTED_COMPONENTS} are supported")
    sub = Lattice(gamma.ring, gamma.d, side, 0, side)  # c·R over d
    reps = list(lattices.quotient_representatives(sub, gamma))
    den = a * gamma.d
    pairs = [(b * (x + rx), b * (y + ry)) for x, y in packing.residues for rx, ry in reps]
    return PointPacking.from_pairs(Lattice(gamma.ring, den, den, 0, den), pairs)


def _sweep_frame(ring: str, dd: int, z: tuple[int, int], q: int) -> tuple[Lattice, int]:
    """S = R + (z/q)R over q·D, for R written over D and z = a + b·u
    primitive, and n = [S : R]: the closed form of _sweep_direction.
    N = gcd(q, N(z)) = 1 gives qR + zR = R, so S = (1/q)·R and n = q²; the
    sweep meets N = 1 only at q = 1, where S = R."""
    a, b = z
    big_n = math.gcd(q, pair_norm(ring, a, b))
    if big_n == 1:
        return Lattice(ring, q * dd, dd, 0, dd), q * q
    [(ux, uy)] = sim._times(ring, a, b, False, [(0, 1)])  # z·u
    _, s, t = lattices._xgcd(b, uy)
    return Lattice(ring, q * dd, dd * big_n, dd * ((s * a + t * ux) % big_n), dd), q * q // big_n


def _sweep_direction(
    packing: PointPacking, d: Direction
) -> list[tuple[int, int, dict[int, tuple[tuple[int, int], ...]]]]:
    """Accepted residues of p, with their τ, per admissible q for β = (p/q)|z|.

    τ indexes the components of the lift to R, written over D.  s(L) ⊆ L
    implies sᵏ(L) ⊆ L, and n of sᵏ is unbounded while its multiplier keeps
    a denominator, as z is primitive.  So rotations admit only q = 1 and
    reflections, with s² = p²N(z)/q², only q with q² | N(z).  There every
    prime of q splits and z, being primitive, is divisible by its full
    power at one prime above it, so n = q²/N(gcd(q, z)) = q: only q ≤ m are
    tried, whatever N(z) is.  For gcd(p, q) = 1, S = R + sR =
    (1/q)·(qR + zR), for either flag as conj(R) = R, and n = [S : R] do not
    depend on p, so both come once per q in closed form (_sweep_frame), as
    qR + zR has the Hermite basis (N, 0), (c, 1):
    - its u-coordinates have gcd 1, as those of z and z·u are b and a or
      a - b, and gcd(a, b) = 1;
    - N, the gcd of the 2×2 minors of q, q·u, z and z·u, is gcd(q, N(z));
    - c is the first coordinate of s·z + t·(z·u), mod N, for s and t with
      s·b + t·y(z·u) = 1.
    So q·D·S has the basis (D·N, 0), (D·c, D), and n = q²/N.

    As s(x_k) = p·a_k with a_k = (z/q)·x_k (or (z/q)·conj(x_k)), the
    integer pair D·z·x_k over q·D for every q, p·a_k meets a residue class
    of the targets mod S at no p or at one residue of p modulo the order o_k
    of a_k in Q(u)/S (Lattice.congruence).  Scaling by q/gcd(q, z) carries
    S onto R, so o_k divides the denominators of x_k.

    The accepted residues start as the units mod q with an empty τ.  Each k
    keeps the residues mod o_k at which it meets a class of n targets, one
    congruence per class, and merges them in by CRT over non-coprime moduli
    (Cohen, GTM 138, §1.3.3), extending τ by its pairs (k, j).  The result
    is every residue mod L = lcm(q, o_1, …, o_m) prime to q at which each k
    meets n components, at a cost bounded by the residues kept, not by L;
    ValueError above MAX_SCAL_RESIDUES.
    """
    packing = lift_to_ring(packing)
    ring, dd, residues = packing.ring, packing.lattice.d, packing.residues
    multiple = d.norm() if d.conjugate else 1  # every admissible q² divides it
    images = sim._times(ring, *d.ints, d.conjugate, residues)
    out = []
    for q in range(1, min(math.isqrt(multiple), packing.m) + 1):
        if multiple % (q * q):
            continue
        frame, n = _sweep_frame(ring, dd, d.ints, q)
        targets = [(q * x, q * y) for x, y in residues]
        modulus = q
        accepted = {r: () for r in range(q) if math.gcd(r, q) == 1}
        classes: dict[tuple[int, int], list[int]] = {}  # residue mod S -> its targets j
        for j, x_j in enumerate(targets):
            classes.setdefault(frame.reduce(*x_j), []).append(j)
        full = [js for js in classes.values() if len(js) == n]
        for k, a_k in enumerate(images):
            meets = {}  # s -> the (k, j) of the class met at p ≡ s (mod o_k)
            for js in full:
                solved = frame.congruence(a_k, targets[js[0]])
                if solved is not None:
                    s, o_k = solved
                    meets[s] = tuple([(k, j) for j in js])
            if not meets:
                accepted = {}
                break
            g = math.gcd(modulus, o_k)
            step = o_k // g
            lift = pow(modulus // g, -1, step)  # r + modulus·t ≡ s (mod o_k)
            accepted = {r + modulus * ((s - r) // g * lift % step): tau + pairs
                        for r, tau in accepted.items() for s, pairs in meets.items()
                        if (s - r) % g == 0}
            modulus *= step
            if len(accepted) > MAX_SCAL_RESIDUES:
                raise ValueError(f"Scal along {d} at q = {q} needs more than "
                                 f"{MAX_SCAL_RESIDUES} residues (packings.MAX_SCAL_RESIDUES)")
        out.append((q, modulus, accepted))
    return out


def scal_set_packing(packing: PointPacking, d: Direction) -> ScalSet:
    """The full set Scal(L, R) for a packing over any rational lattice.

    Residue classes are merged to the smallest modulus that still matches
    the solve, which restores the compact union-of-classes form.
    """
    return ScalSet(d, tuple(_minimal_modulus(set(accepted), modulus, q)
                            for q, modulus, accepted in _sweep_direction(packing, d) if accepted))


def scal_classes_by_tau(
    packing: PointPacking, d: Direction
) -> list[tuple[ResidueClass, tuple[tuple[int, int], ...]]]:
    """Scal(L, R) split into maximal classes of constant τ.

    This is the shape of the published tables: one line per scaling-factor
    class together with the component correspondences it produces.  τ
    indexes the components of lift_to_ring(packing), which are the packing's
    own when Γ is the ring lattice.

    At q = 1 every kept residue r mod L is a row of its own, ResidueClass(1,
    L, {r}), with no regrouping and no fold:
    - no two kept residues share a τ, as τ fixes for each k the residue s_k
      mod o_k at which k meets its class, and the CRT fixes r mod L from them;
    - one residue mod L has no smaller period, so _minimal_modulus would hand
      it back unchanged.
    Every cell of Tables 1–5 is such a cell.  For q > 1 the φ(q) units mod q
    all start with τ = (), so a τ can own several residues, which are folded.
    """
    rows = []
    for q, modulus, accepted in _sweep_direction(packing, d):
        if q == 1:
            rows += [(ResidueClass(1, modulus, frozenset({r})), tau) for r, tau in accepted.items()]
            continue
        by_tau: dict[tuple[tuple[int, int], ...], set[int]] = {}
        for r, tau in accepted.items():
            by_tau.setdefault(tau, set()).add(r)
        rows += [(_minimal_modulus(residues, modulus, q), tau) for tau, residues in by_tau.items()]
    rows.sort(key=lambda rt: (rt[0].q, rt[0].modulus, min(rt[0].residues)))
    return rows


def _minimal_modulus(accepted: set[int], modulus: int, q: int) -> ResidueClass:
    """The accepted residues mod modulus, as one class over the smallest
    divisor of modulus that expresses them.

    Residues r with gcd(r, q) ≠ 1 are unconstrained (they belong to other
    denominators q), so consistency is only required on the coprime ones.
    The periods of the accepted set form a group h·Z, each a difference
    a - a₀, so h is the last gcd(h, a - a₀) that is a period.  Units mod q
    have no period prime to a prime ℓ | q, so ℓ | h; an ℓ with ℓ ∥ h is
    dropped when every lift mod h prime to q of each folded residue is
    accepted, each ℓ tested against the same h.  Only q is factored.
    """
    a0 = next(iter(accepted))
    h = modulus
    for a in accepted:
        t = math.gcd(h, a - a0)
        if t < h and all((b + t) % modulus in accepted for b in accepted):
            h = t
    folded = {r % h for r in accepted}
    drop = 1
    for ell in range(2, q + 1):
        rest = h // ell
        if q % ell or rest % ell == 0 or any(ell % f == 0 for f in range(2, ell)):
            continue
        lifts = (c % rest + i * rest for c in folded for i in range(ell))
        if all(x in folded for x in lifts if math.gcd(x, q) == 1):
            drop *= ell
    return ResidueClass(q, h // drop, frozenset(r % (h // drop) for r in accepted))


def check_corollaries(
    report: SimilarityReport, packing: PointPacking, ratio: Fraction, den: tuple[int, int]
) -> dict[str, bool | None]:
    """Verify the structural consequences of an accepted similarity.

    The caller passes ratio = p/q, with s = ratio·z from decompose, and
    den = (a, b) for den(Γ, R) = (a/b)·|z| from similarity.denominator, so
    that βRΓ ⊆ Γ exactly when ratio/den = p·b/(q·a) ∈ Z.  Returns a dict of
    three facts, None where one is vacuous, and builds no Fraction: (i)
    "shift_pair_in_nth_lattice", for n ≥ 2 two residues n·x_k over d·Γ reduce
    alike, so two shifts differ by a point of (1/n)Γ; (ii)
    "singleton_when_lattice_scaling", when ratio/den ∈ Z each component lands
    in exactly one: n = 1, as τ holds n pairs per component; (iii)
    "n_beta_in_lattice_scal", n·β is a lattice scaling factor, n·ratio/den ∈ Z.
    """
    if not report.accepted:
        raise ValueError("corollary checks need an accepted report")
    gamma = packing.lattice
    n = report.n

    pair_ok: bool | None = None
    if n >= 2:
        pair_ok = len({gamma.reduce(n * x, n * y) for x, y in packing.residues}) < packing.m

    top, bottom = ratio.numerator * den[1], ratio.denominator * den[0]
    singleton_ok = (n == 1) if top % bottom == 0 else None

    return {"shift_pair_in_nth_lattice": pair_ok,
            "singleton_when_lattice_scaling": singleton_ok,
            "n_beta_in_lattice_scal": n * top % bottom == 0}


def periods(packing: PointPacking) -> Lattice:
    """The lattice per(L) of translations mapping the point set to itself.

    A period t carries x_0 + Γ onto some x_j + Γ, so t ≡ x_j - x_0 (mod Γ)
    and per(L) is Γ plus the m candidates x_j - x_0 that are periods.  A
    candidate is one when every t + x_k reduces to a stored shift, tested
    on the residues; per(L) is written over the packing's denominator d.
    """
    gamma, residues = packing.lattice, packing.residues
    stored = set(residues)
    x0, y0 = residues[0]
    gens = list(gamma.basis)
    for xj, yj in residues[1:]:
        tx, ty = xj - x0, yj - y0
        if all(gamma.reduce(tx + x, ty + y) in stored for x, y in residues):
            gens.append((tx, ty))
    return Lattice.spanned(gamma.ring, gamma.d, gens)


def reduce(packing: PointPacking) -> PointPacking:
    """Re-express the same point set over its maximal generating lattice.

    The first shift of each class mod per(L) is kept, in the order given.
    """
    maximal = periods(packing)
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for xy in packing.residues:
        first.setdefault(maximal.reduce(*xy), xy)
    reduced = PointPacking.from_pairs(maximal, list(first.values()))
    _assert_same_point_set(packing, reduced)
    return reduced


def _assert_same_point_set(packing: PointPacking, reduced: PointPacking) -> None:
    """Each x + r, for x a reduced shift and r a coset representative of
    per(L)/Γ, must reduce to a distinct shift of the packing, covering all m.
    Both packings are written over the packing's d, which the reduced
    packing's denominator divides."""
    gamma, per = packing.lattice, reduced.lattice
    f, coarse = gamma.d // per.d, per.over(gamma.d)
    try:
        reps = list(lattices.quotient_representatives(gamma, coarse))
    except ValueError:
        raise RuntimeError("the generating lattice is not a sublattice of per(L)") from None
    if reduced.m * len(reps) != packing.m:
        raise RuntimeError("component count mismatch")
    covered = {gamma.reduce(f * x + rx, f * y + ry) for x, y in reduced.residues for rx, ry in reps}
    if not covered <= set(packing.residues):
        raise RuntimeError("reduced packing is not the same point set")
    if len(covered) != packing.m:
        raise RuntimeError("reduced packing misses a component")


def closure_check(
    packing: PointPacking, pairs: list[tuple[Similarity, Similarity]]
) -> tuple[tuple[bool, ...], tuple[tuple[Direction, bool], ...]]:
    """Check closure under composition on sampled accepted pairs.

    Every sampled similarity must be individually accepted.  Returns a flag
    per pair, whether s2∘s1 is accepted, and per distinct direction, in order
    of appearance, (d, whether Scal(L,R) ⊆ Scal(Γ,R)), decided exactly.
    """
    results = []
    directions: list[Direction] = []
    for s1, s2 in pairs:
        for s in (s1, s2):
            if not check_similarity(packing, s).accepted:
                raise ValueError(f"sampled similarity {s} is not accepted")
            _, d = sim.decompose(s)
            if d not in directions:
                directions.append(d)
        results.append(check_similarity(packing, sim.compose(s2, s1)).accepted)
    return tuple(results), tuple((d, _scal_subset_of_lattice_scal(packing, d)) for d in directions)


def _scal_subset_of_lattice_scal(packing: PointPacking, d: Direction) -> bool:
    """Whether every class of Scal(L, R) lies in Scal(Γ, R) = (a/b)·Z.

    p/q in lowest terms lies there exactly when q | b and a divides p, as a/b
    is in lowest terms; a is then coprime to q, so it divides every p ≡ r
    (mod M) coprime to q exactly when it divides gcd(r, M).
    """
    a, b = sim.denominator(packing.lattice, d)
    for c in scal_set_packing(packing, d).classes:
        if b % c.q:
            return False
        if any(math.gcd(r, c.modulus) % a for r in c.residues):
            return False
    return True
