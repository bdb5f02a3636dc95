"""The four workloads: seeded request generators and their output checks.

Every round of a workload has the same make-up (slots), so runs with
different seeds do the same kinds of work; the seed only picks the concrete
directions, packings, similarities and windows inside each slot.  Each
round draws fresh inputs, so no request repeats within a run.

The program receives only argv and the JSON documents inside it.  Expected
outcomes come from the paper's tables (TEMPLATES), from constructions whose
answer is known (an s-invariant packing is accepted), from exact arithmetic
in exact.py, or from simiso's brute-force oracle; never from the engine.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from xml.parsers import expat

import exact as X
from exact import EISENSTEIN, GAUSSIAN, ZERO, Basis, Sim

F = Fraction


@dataclass
class Request:
    entry: str  # the cli function that serves the request
    argv: list[str]
    case: dict
    args: object = None  # argparse namespace, parsed during set-up


def _primitives(ring: str, bound: int = 64) -> dict[int, list[tuple[int, int]]]:
    table: dict[int, list[tuple[int, int]]] = {}
    for a in range(-9, 10):
        for b in range(-9, 10):
            if math.gcd(a, b) == 1:
                n = int(X.norm(ring, (a, b)))
                if n <= bound:
                    table.setdefault(n, []).append((a, b))
    return table


PRIMITIVES = {GAUSSIAN: _primitives(GAUSSIAN), EISENSTEIN: _primitives(EISENSTEIN)}


def class_key(ring: str, z) -> object:
    a, b = z
    return (a % 2, b % 2) if ring == GAUSSIAN else (a + b) % 3


def class_label(ring: str, key) -> str:
    if ring == GAUSSIAN:
        return f"(a,b)≡({key[0]},{key[1]}) mod 2"
    return f"a+b≡{key} mod 3"


# ---------------------------------------------------------------------------
# the paper's Tables 1-5: rows (Scal class, τ) per congruence class of z

HEX_DIAG = "{((2+ω)/3,(2+ω)/3),((1+2ω)/3,(1+2ω)/3)}"
HEX_CROSS = "{((2+ω)/3,(1+2ω)/3),((1+2ω)/3,(2+ω)/3)}"
HEX_INTO_0 = "{(0,0),((2+ω)/3,0)}"
HEX_FIXED = "{(0,0),((2+ω)/3,(2+ω)/3)}"

TABLES = {  # name: (preset, reflection, ring)
    "t1": ("rect12", False, GAUSSIAN),
    "t2": ("hex", False, EISENSTEIN),
    "t3": ("hex", True, EISENSTEIN),
    "t4": ("hex-shifted", False, EISENSTEIN),
    "t5": ("hex-shifted", True, EISENSTEIN),
}

TEMPLATES = {
    "t1": {
        (1, 0): [("den·2Z", "{(0,0),(1/2,0)}"), ("den·(1+2Z)", "{(0,0),(1/2,1/2)}")],
        (0, 1): [("den·2Z", "{(0,0),(1/2,0)}")],
        (1, 1): [("den·2Z", "{(0,0),(1/2,0)}")],
    },
    "t2": {
        1: [("den·3Z", HEX_INTO_0), ("den·(1+3Z)", HEX_FIXED)],
        2: [("den·3Z", HEX_INTO_0), ("den·(2+3Z)", HEX_FIXED)],
        0: [("den·Z", HEX_INTO_0)],
    },
    "t3": {
        1: [("den·3Z", HEX_INTO_0), ("den·(2+3Z)", HEX_FIXED)],
        2: [("den·3Z", HEX_INTO_0), ("den·(1+3Z)", HEX_FIXED)],
        0: [("den·Z", HEX_INTO_0)],
    },
    "t4": {
        1: [("den·(1+3Z)", HEX_DIAG), ("den·(2+3Z)", HEX_CROSS)],
        2: [("den·(1+3Z)", HEX_CROSS), ("den·(2+3Z)", HEX_DIAG)],
        0: [("∅", "∅")],
    },
    "t5": {
        1: [("den·(1+3Z)", HEX_CROSS), ("den·(2+3Z)", HEX_DIAG)],
        2: [("den·(1+3Z)", HEX_DIAG), ("den·(2+3Z)", HEX_CROSS)],
        0: [("∅", "∅")],
    },
}


def _residue_class(text: str) -> tuple[int, int] | None:
    """(modulus, residue) of a symbolic q = 1 class: den·Z, den·3Z, den·(1+3Z)."""
    if text == "∅":
        return None
    body = text.removeprefix("den·")
    if body.startswith("("):
        r, mod = body[1:-2].split("+")
        return int(mod), int(r)
    return (int(body[:-1]) if body != "Z" else 1), 0


def allowed_ratios(table: str, z) -> list[tuple[int, int]]:
    """Residue classes p mod k of the integer ratios β/|z| the table admits."""
    ring = TABLES[table][2]
    rows = TEMPLATES[table][class_key(ring, z)]
    return [c for c in (_residue_class(s) for s, _ in rows) if c is not None]


# The running examples, kept apart from simiso.presets: ring, Γ, shifts.
PRESETS = {
    "rect12": (GAUSSIAN, X.RING_BASIS, [ZERO, X.vec(F(1, 2), 0)]),
    "hex": (EISENSTEIN, X.RING_BASIS, [ZERO, X.vec(F(2, 3), F(1, 3))]),
    "hex-shifted": (EISENSTEIN, X.RING_BASIS, [X.vec(F(2, 3), F(1, 3)), X.vec(F(4, 3), F(2, 3))]),
    "ex34": (GAUSSIAN, Basis((3, 0), (0, 1)), [ZERO, X.vec(1, 0), X.vec(2, 0)]),
    "ex22": (GAUSSIAN, X.RING_BASIS, [ZERO, X.vec(F(1, 2), F(1, 2))]),
}


# ---------------------------------------------------------------------------
# scal: `table tN --z a,b`, one primitive direction per request

# N(z) per table and round, 50 requests in all.  Equal N(z) costs about the
# same in every table, so the repeats form cost clusters: twenty requests
# around the median (N = 10..17) and ten at the top (N = 31, 41) holding
# the 90th percentile, so neither percentile sits in a gap between levels.
SCAL_NORMS = {
    GAUSSIAN: (1, 2, 5, 10, 10, 17, 17, 25, 41, 41),
    EISENSTEIN: (1, 3, 7, 13, 13, 13, 13, 19, 31, 31),
}
BRUTE_NORM_MAX = 13
BRUTE_P, BRUTE_Q = 6, 2


def scal_round(rng: random.Random) -> list[Request]:
    out = []
    for table, (_, _, ring) in TABLES.items():
        for n in SCAL_NORMS[ring]:
            z = rng.choice(PRIMITIVES[ring][n])
            argv = ["table", table, f"--z={z[0]},{z[1]}"]
            out.append(Request("run_table", argv, {"table": table, "z": z, "norm": n}))
    rng.shuffle(out)
    sampled = rng.choice([r for r in out if r.case["norm"] <= BRUTE_NORM_MAX])
    sampled.case["bruteforce"] = True
    return out


def check_scal(req: Request, code, out: str) -> str | None:
    table, z = req.case["table"], req.case["z"]
    ring = TABLES[table][2]
    if code != 0:
        return f"exit {code}"
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["table", "class", "z", "scal", "tau"]:
        return "bad CSV header"
    key = class_key(ring, z)
    want = TEMPLATES[table][key]
    got = []
    for row in rows[1:]:
        if row[0] != table or row[1] != class_label(ring, key):
            return f"row labels {row[:2]}"
        if X.parse_elem(row[2]) != X.vec(*z):
            return f"row z {row[2]!r} is not {z}"
        got.append((row[3], row[4]))
    if got != want:
        return f"rows {got} differ from the table template {want}"
    if req.case.get("bruteforce"):
        return _check_bruteforce(table, z)
    return None


def _check_bruteforce(table: str, z) -> str | None:
    from simiso import oracle, preset
    from simiso.rings import RingElem
    from simiso.similarity import Direction

    name, reflect, ring = TABLES[table]
    brute = oracle.scal_set_bruteforce(
        preset(name), Direction(RingElem(ring, *z), reflect), BRUTE_P, BRUTE_Q
    )
    classes = allowed_ratios(table, z)
    want = {F(p) for p in range(1, BRUTE_P + 1) if any(p % k == r for k, r in classes)}
    if brute != want:
        return f"oracle Scal sample {sorted(brute)} differs from the table {sorted(want)}"
    return None


# ---------------------------------------------------------------------------
# generated packings and similarities (decide and verify)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _sublattice(rng: random.Random, index: int, den: int = 1):
    """A lattice (1/den)·H with H ⊆ Z[u] of the given index, in Hermite form
    (h00, h01, h11), handed out with a randomly sheared basis."""
    h00 = rng.choice(_divisors(index))
    h11 = index // h00
    h01 = rng.randrange(h00)
    shear = rng.choice((-1, 0, 1))
    g1 = (F(h00, den), F(0))
    g2 = (F(h01 + shear * h00, den), F(h11, den))
    return Basis(g1, g2), (h00, h01, h11)


def _random_point(rng: random.Random, basis: Basis):
    den = rng.randint(1, 6)
    return basis.reduce(basis.point(F(rng.randrange(den), den), F(rng.randrange(den), den)))


def _stabilising_multiple(ring, basis: Basis, z, reflect) -> int:
    """Least c ≥ 1 with c·z·Γ ⊆ Γ (c = [Z[u] : Γ] always works)."""
    c = 1
    while not basis.contains_basis(basis.image(Sim(ring, X.scale(X.vec(*z), c), reflect))):
        c += 1
    return c


def _orbit_case(rng, ring, basis, m, norms, multipliers):
    """An s-invariant packing: {0} ∪ orbit of x under s mod Γ, with sΓ ⊆ Γ."""
    for _ in range(2000):
        z = rng.choice(PRIMITIVES[ring][rng.choice(norms)])
        reflect = rng.random() < 0.5
        c = _stabilising_multiple(ring, basis, z, reflect) * rng.choice(multipliers)
        s = Sim(ring, X.scale(X.vec(*z), c), reflect)
        shifts = [ZERO]
        cur = _random_point(rng, basis) if m > 1 else ZERO
        while cur not in shifts:
            shifts.append(cur)
            cur = basis.reduce(s.apply(cur))
        if len(shifts) == m:
            return shifts, s, z, F(c)
    raise RuntimeError(f"no s-invariant packing with {m} components")


def _lattice_union_case(rng, ring, m, norms, multipliers):
    """Λ = (1/d)·Z[u] written as m cosets of a sublattice Γ; any w ∈ Z[u]
    maps Λ into itself, so the packing is accepted, with n up to m."""
    den = rng.randint(1, 3)
    basis, (h00, _, h11) = _sublattice(rng, m, den)
    shifts = [X.vec(F(i, den), F(j, den)) for j in range(h11) for i in range(h00)]
    z = rng.choice(PRIMITIVES[ring][rng.choice(norms)])
    c = F(rng.choice(multipliers))
    return basis, shifts, Sim(ring, X.scale(X.vec(*z), c), rng.random() < 0.5), z, c


def _escape_point(basis: Basis, shifts, s: Sim):
    """A point of s(L) outside L among images of shifts and shifts + basis."""
    for x in shifts:
        for g in (ZERO, basis.g1, basis.g2):
            y = s.apply(X.add(x, g))
            if not X.in_packing(basis, shifts, y):
                return y
    return None


def _rejected_case(rng, ring, basis, m, norms):
    for _ in range(2000):
        shifts = [ZERO] if rng.random() < 0.5 else []
        while len(shifts) < m:
            x = _random_point(rng, basis)
            if not any(basis.contains(X.sub(x, y)) for y in shifts):
                shifts.append(x)
        z = rng.choice(PRIMITIVES[ring][rng.choice(norms)])
        q = rng.randint(1, 4)
        p = rng.choice([p for p in range(1, 7) if math.gcd(p, q) == 1])
        s = Sim(ring, X.scale(X.vec(*z), F(p, q)), rng.random() < 0.5)
        if _escape_point(basis, shifts, s) is not None:
            return shifts, s, z, F(p, q)
    raise RuntimeError("no certified rejection found")


def make_case(rng: random.Random, family: str, ring: str, m: int, norms, multipliers=(1,)):
    """One packing and similarity of a family; `accepted` is known by construction."""
    if family == "union":
        basis, shifts, s, z, scale = _lattice_union_case(rng, ring, m, norms, multipliers)
        accepted, ring_lattice = True, False
    else:
        ring_lattice = family.endswith("-ring")
        basis = X.RING_BASIS if ring_lattice else _sublattice(rng, rng.randint(2, 4))[0]
        if family.startswith("orbit"):
            shifts, s, z, scale = _orbit_case(rng, ring, basis, m, norms, multipliers)
            accepted = True
        else:
            shifts, s, z, scale = _rejected_case(rng, ring, basis, m, norms)
            accepted = False
    doc = {"ring": ring, "shifts": [X.fmt(x) for x in shifts]}
    if not ring_lattice:
        doc["basis"] = [X.fmt(basis.g1), X.fmt(basis.g2)]
    sim_doc = {"z": list(z), "scale": str(scale), "conj": s.reflect}
    return {
        "ring": ring,
        "basis": basis,
        "shifts": shifts,
        "sim": s,
        "accepted": accepted,
        "ring_lattice": ring_lattice,
        "family": family,
        "packing_doc": json.dumps(doc, separators=(",", ":")),
        "sim_doc": json.dumps(sim_doc, separators=(",", ":")),
    }


def _simiso_case(case):
    from simiso.lattices import Lattice
    from simiso.packings import PointPacking
    from simiso.rings import FieldElem
    from simiso.similarity import Similarity

    ring, basis = case["ring"], case["basis"]
    gamma = Lattice.from_generators(ring, [basis.g1, basis.g2])
    packing = PointPacking(gamma, tuple(FieldElem(ring, *x) for x in case["shifts"]))
    s = case["sim"]
    return packing, Similarity(FieldElem(ring, *s.w), s.reflect)


# ---------------------------------------------------------------------------
# decide: `analyze` on distinct packings; half of them accepted

DECIDE_NORM_ACCEPT = 25  # N(z) bounds; |w|² = N(z)·scale²
DECIDE_NORM_REJECT = 37
# (family, m) per ring: 6 accepted, 6 rejected; 7 over non-ring Γ.  The four
# costliest requests of a round (union, m = 4) hold the 90th percentile.
DECIDE_SLOTS = (
    ("orbit-ring", 2), ("orbit-ring", 3), ("orbit-sub", 2),
    ("union", 2), ("union", 4), ("union", 4),
    ("reject-ring", 2), ("reject-ring", 3), ("reject-ring", 4),
    ("reject-sub", 1), ("reject-sub", 2), ("reject-sub", 3),
)


def decide_round(rng: random.Random) -> list[Request]:
    out = []
    for ring in (GAUSSIAN, EISENSTEIN):
        for family, m in DECIDE_SLOTS:
            bound = DECIDE_NORM_REJECT if family.startswith("reject") else DECIDE_NORM_ACCEPT
            norms = [n for n in PRIMITIVES[ring] if n <= bound]
            case = make_case(rng, family, ring, m, norms, multipliers=(1, 2))
            argv = ["analyze", case["packing_doc"], "--similarity", case["sim_doc"]]
            out.append(Request("run_analyze", argv, case))
    rng.shuffle(out)
    return out


def check_decide(req: Request, code, out: str) -> str | None:
    from simiso import oracle

    case = req.case
    doc = json.loads(out)
    if doc["accepted"] != case["accepted"] or code != (0 if case["accepted"] else 1):
        return f"accepted={doc['accepted']} exit {code}; expected {case['accepted']}"
    contained, _ = oracle.certify_subpacking(*_simiso_case(case))
    if contained != doc["accepted"]:
        return f"oracle says contained={contained}"
    if doc["m"] != len(case["shifts"]):
        return f"m={doc['m']}"
    if not doc["accepted"]:
        return None if 0 <= doc["failing_component"] < doc["m"] else "bad failing_component"
    return _check_witnesses(case, doc)


def _check_witnesses(case, doc) -> str | None:
    """Each τ pair (k, j) and its witness point lie in s(x_k + Γ) ∩ (x_j + Γ)."""
    basis, shifts, s = case["basis"], case["shifts"], case["sim"]
    if len(doc["tau"]) != len(doc["witness"]):
        return "tau and witness lengths differ"
    per_k = [0] * len(shifts)
    for (xk_txt, xj_txt), wit in zip(doc["tau"], doc["witness"]):
        k, j = wit["component"], wit["target"]
        per_k[k] += 1
        for txt, idx in ((xk_txt, k), (xj_txt, j)):
            if not basis.contains(X.sub(X.parse_elem(txt), shifts[idx])):
                return f"τ entry {txt} is not x_{idx} mod Γ"
        point = X.parse_elem(wit["offset"])
        if not basis.contains(X.sub(point, shifts[j])):
            return f"witness {wit['offset']} not in x_{j} + Γ"
        if not basis.contains(X.sub(s.preimage(point), shifts[k])):
            return f"witness {wit['offset']} not in s(x_{k} + Γ)"
    if any(c != doc["n"] for c in per_k):
        return f"components reached per k {per_k}, n = {doc['n']}"
    return None


# ---------------------------------------------------------------------------
# verify: `verify --similarity`; the oracle certifies and counts the index

# (family, ring, m, N(z)) per round, all over the ring lattice with |w|² =
# N(z).  The oracle's work grows like m·|w|⁴, so the slots are grouped in
# cost levels: a cluster of eight at the median and six at the top (p90).
VERIFY_SLOTS = (
    ("reject-ring", GAUSSIAN, 2, 5), ("reject-ring", EISENSTEIN, 2, 7),
    ("orbit-ring", GAUSSIAN, 2, 2), ("orbit-ring", EISENSTEIN, 2, 3),
    ("orbit-ring", GAUSSIAN, 2, 5), ("orbit-ring", GAUSSIAN, 2, 5),
    ("orbit-ring", GAUSSIAN, 3, 5), ("orbit-ring", GAUSSIAN, 4, 2),
    ("orbit-ring", EISENSTEIN, 2, 7), ("orbit-ring", EISENSTEIN, 2, 7),
    ("orbit-ring", EISENSTEIN, 3, 3), ("orbit-ring", EISENSTEIN, 4, 3),
    ("orbit-ring", GAUSSIAN, 2, 10), ("orbit-ring", EISENSTEIN, 3, 7),
    ("orbit-ring", GAUSSIAN, 2, 13), ("orbit-ring", GAUSSIAN, 2, 13),
    ("orbit-ring", GAUSSIAN, 3, 10), ("orbit-ring", GAUSSIAN, 3, 10),
    ("orbit-ring", EISENSTEIN, 2, 13), ("orbit-ring", EISENSTEIN, 2, 13),
)


def verify_round(rng: random.Random) -> list[Request]:
    out = []
    for family, ring, m, norm in VERIFY_SLOTS:
        case = make_case(rng, family, ring, m, (norm,))
        argv = ["verify", case["packing_doc"], "--similarity", case["sim_doc"]]
        out.append(Request("run_verify", argv, case))
    rng.shuffle(out)
    return out


def check_verify(req: Request, code, out: str) -> str | None:
    case = req.case
    doc = json.loads(out)
    if code != 0 or doc["agree"] is not True:
        return f"exit {code}, agree={doc.get('agree')}"
    if doc["engine_accepted"] != case["accepted"] or doc["oracle_contained"] != case["accepted"]:
        return f"engine {doc['engine_accepted']} oracle {doc['oracle_contained']}"
    s = case["sim"]
    if case["accepted"]:
        if F(doc["oracle_index"]) != s.norm() or F(doc["beta_squared"]) != s.norm():
            return f"index {doc['oracle_index']} is not |w|² = {s.norm()}"
        return None
    basis, shifts = case["basis"], case["shifts"]
    point = X.parse_elem(doc["counterexample"])
    if X.in_packing(basis, shifts, point):
        return f"counterexample {doc['counterexample']} lies in L"
    if not X.in_packing(basis, shifts, s.preimage(point)):
        return f"counterexample {doc['counterexample']} is not in s(L)"
    return None


# ---------------------------------------------------------------------------
# render: `render --similarity` for accepted similarities on every preset

RENDER_SIDES = (6, 12, 18)
RENDER_NORM = {GAUSSIAN: 5, EISENSTEIN: 7}  # so images hold at most 1/5 of the points
PRESET_TABLES = {  # preset: tables whose rows say which β are accepted
    "rect12": ("t1",),
    "hex": ("t2", "t3"),
    "hex-shifted": ("t4", "t5"),
}


def _accepted_similarity(rng: random.Random, name: str):
    ring = PRESETS[name][0]
    while True:
        z = rng.choice(PRIMITIVES[ring][RENDER_NORM[ring]])
        if name not in PRESET_TABLES:  # ex34 and ex22 are Z[i] itself, up to scale
            return z, 1, rng.random() < 0.5
        table = rng.choice(PRESET_TABLES[name])
        classes = allowed_ratios(table, z)
        ps = [p for p in range(1, 4) if any(p % k == r for k, r in classes)]
        if ps:
            return z, ps[0], TABLES[table][1]


def render_round(rng: random.Random) -> list[Request]:
    out = []
    for name in PRESETS:
        for side in RENDER_SIDES:
            z, p, reflect = _accepted_similarity(rng, name)
            x0 = rng.randint(-3, 3) - side // 2
            y0 = rng.randint(-3, 3) - side // 2
            window = (F(x0), F(y0), F(x0 + side), F(y0 + side))
            sim_doc = json.dumps({"z": list(z), "scale": str(p), "conj": reflect})
            argv = ["render", "--preset", name, "--similarity", sim_doc,
                    f"--window={x0},{y0},{x0 + side},{y0 + side}"]
            ring = PRESETS[name][0]
            case = {"preset": name, "window": window,
                    "sim": Sim(ring, X.scale(X.vec(*z), p), reflect)}
            out.append(Request("run_render", argv, case))
    rng.shuffle(out)
    return out


class _SvgCounter:
    """Circles per top-level group of simiso's SVG, read with a streaming parser."""

    def __init__(self, text: str):
        self.groups: list[tuple[bool, list[tuple[str, str]]]] = []
        self.depth = 0
        parser = expat.ParserCreate()
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.Parse(text, True)

    def _start(self, tag, attrs):
        self.depth += 1
        if tag == "g" and self.depth == 2:
            self.groups.append((attrs.get("fill") == "none", []))
        elif tag == "circle" and self.depth == 3:
            self.groups[-1][1].append((attrs["cx"], attrs["cy"]))

    def _end(self, tag):
        self.depth -= 1


def check_render(req: Request, code, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    try:
        svg = _SvgCounter(out)
    except expat.ExpatError as exc:
        return f"SVG does not parse: {exc}"
    ring, basis, shifts = PRESETS[req.case["preset"]]
    s, window = req.case["sim"], req.case["window"]
    image = basis.image(s)
    want = [(True, X.count_in_window(basis, x, window)) for x in shifts]
    want += [(False, X.count_in_window(image, s.apply(x), window)) for x in shifts]
    got = [(is_packing, len(c)) for is_packing, c in svg.groups]
    if got != want:
        return f"circles per group {got}, enumerated {want}"
    packing_centres = {c for is_packing, cs in svg.groups if is_packing for c in cs}
    if any(c not in packing_centres for is_packing, cs in svg.groups if not is_packing for c in cs):
        return "an image centre is not a packing centre"
    return None


WORKLOADS = {
    "scal": (scal_round, check_scal),
    "decide": (decide_round, check_decide),
    "verify": (verify_round, check_verify),
    "render": (render_round, check_render),
}
