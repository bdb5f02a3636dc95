"""One digest over the output of a fixed list of commands.

A change that means to keep every output byte-identical must keep DIGEST:
the SHA-256 over argv, exit code, stdout and stderr of each command below,
run in process through cli.main.  The list covers the tables as CSV and as
JSON, with explicit and with sampled directions, one table of 301 --z, one
command line refused above cli.MAX_ARGS, every preset, one figure refused
above the circle cap, rational packings over sheared lattices,
congruent-shift refusals included, and verify --direction sweeps that
reach q > 1.  A change that alters output on purpose recomputes DIGEST
with golden_digest() and says why.

Run as a script, from the root of a checkout,

    PYTHONPATH=src:tests python tests/test_golden.py > records.txt

prints one line per command: the SHA-256 of its record and its argv.
Diffing two checkouts' lines names the records a change alters.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction

from simiso import cli
from simiso.rings import EISENSTEIN, GAUSSIAN

DIGEST = "ebf6163c7b2fcc6343f8a84a70652927257856a86f66c17d647b3052c7b58ef7"

_TABLE_RINGS = {"t1": GAUSSIAN, "t2": EISENSTEIN, "t3": EISENSTEIN, "t4": EISENSTEIN,
                "t5": EISENSTEIN}
_WINDOWS = ("--window=-2,-2,2,2", "--window=0,0,3/2,5/2", "--window=-1/3,-1/2,2,1")
_ZS = ((1, 0), (0, 1), (1, 1), (2, -1))
_SCALES = ("1", "2", "1/2", "3")


def _norm(ring, a, b):
    return a * a + b * b if ring == GAUSSIAN else a * a - a * b + b * b


def _table_commands():
    for name, ring in _TABLE_RINGS.items():
        zs = [f"--z={a},{b}" for a in range(-9, 10) for b in range(-9, 10)
              if math.gcd(a, b) == 1 and _norm(ring, a, b) <= 61]
        yield ["table", name, *zs]


def _preset_commands():
    for name in sorted(cli.PRESETS):
        yield ["periods", "--preset", name]
        for window in _WINDOWS:
            yield ["render", "--preset", name, "--packing-only", window]
        for z in _ZS:
            for scale in _SCALES:
                for conj in (False, True):
                    sim = json.dumps({"z": list(z), "scale": scale, "conj": conj})
                    yield ["analyze", "--preset", name, "--similarity", sim]
                    yield ["verify", "--preset", name, "--similarity", sim]
                    if scale in ("1", "2"):
                        yield ["render", "--preset", name, "--similarity", sim, _WINDOWS[0]]


def _document_commands(count=60, seed=12):
    """analyze and periods on packings with shift denominators ≤ 12 and
    m ≤ 6 over a sheared Γ = (1/den)·H of index 1–4.  Most shift lists
    start at 0, and half the multipliers are multiples of
    ℓ = den·[Z² : H]·(shift denominator), which map every shift and Γ into
    Γ, so many documents are accepted.  One document in five repeats a
    shift moved by a basis vector, which must be refused as congruent."""
    rng = random.Random(seed)
    for i in range(count):
        ring = rng.choice((GAUSSIAN, EISENSTEIN))
        index = rng.randint(1, 4)
        h00 = rng.choice([h for h in range(1, index + 1) if index % h == 0])
        den = rng.randint(1, 3)
        basis = [[f"{h00}/{den}", "0"],
                 [f"{rng.randint(0, h00 - 1)}/{den}", f"{index // h00}/{den}"]]
        shift_den = rng.randint(1, 12)
        cells = rng.sample(range(shift_den * shift_den), min(rng.randint(1, 6), shift_den ** 2))
        shifts = [[str(Fraction(c // shift_den + shift_den * rng.randint(-1, 1), shift_den)),
                   str(Fraction(c % shift_den + shift_den * rng.randint(-1, 1), shift_den))]
                  for c in cells]
        if rng.random() < 0.75:
            shifts[0] = ["0", "0"]
        if i % 5 == 4:
            a, b = shifts[-1]
            shifts.append([str(Fraction(a) + Fraction(h00, den)), b])
        ell = den * index * shift_den
        z = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2), (3, 1)])
        scale = rng.choice(["1", "1/2", "2/3", str(ell), str(2 * ell), f"{ell}/2"])
        doc = {"ring": ring, "basis": basis, "shifts": shifts}
        sim = {"z": list(z), "scale": scale, "conj": rng.random() < 0.5}
        yield ["analyze", json.dumps(doc), "--similarity", json.dumps(sim)]
        yield ["periods", json.dumps(doc)]


def _direction_commands():
    """verify --direction with --q-bound 5 along 3+4i over Z[i] and 8+3ω
    over Z[ω], of norms 25 and 49, so reflections admit q = 5 and q = 7
    wherever the lift to R has that many components: every preset, rotation
    and reflection, and a packing over the sheared Γ = ((2+i)/5)·Z[i] ⊋ Z[i],
    which lifts to 10 components and which ((3+4i)/5)·conj maps onto
    itself.  So the Scal solve accepts at q = 5, on its frame in the
    N = gcd(q, N(z)) > 1 form, and folds those classes."""
    sheared = json.dumps({"ring": GAUSSIAN, "basis": [["2/5", "1/5"], ["-1/5", "2/5"]],
                          "shifts": [["0", "0"], ["1/2", "0"]]})
    packings = [(["--preset", name], cli.PRESETS[name][0]) for name in sorted(cli.PRESETS)]
    for packing, ring in [*packings, ([sheared], GAUSSIAN)]:
        z = [3, 4] if ring == GAUSSIAN else [8, 3]
        for conj in (False, True):
            direction = json.dumps({"z": z, "conj": conj})
            yield ["verify", *packing, "--direction", direction, "--q-bound", "5"]


def commands():
    yield from _table_commands()
    yield from ([*argv, "--format", "json"] for argv in _table_commands())
    yield from _preset_commands()
    # hex draws 2·(199 + 1)·(250 + 1) = 100,400 circles here, above the cap.
    yield ["render", "--preset", "hex", "--packing-only", "--window=0,0,250,199"]
    yield from _document_commands()
    yield from _direction_commands()
    # The sampled directions: each table by default, and the README's
    # --samples 11 over Z[i], where 1+8i comes before 7+4i.
    yield from (["table", name] for name in _TABLE_RINGS)
    yield ["table", "t1", "--samples", "11"]
    # 301 --z make one table; 1,001 arguments, above cli.MAX_ARGS, are refused.
    yield ["table", "t1", *(f"--z={a},1" for a in range(301))]
    yield ["table", "t1", *(f"--z={a},1" for a in range(999))]


def records():
    """argv and its record, the JSON of argv, exit code, stdout and stderr,
    for each command in order."""
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()], ensure_ascii=False)
        yield argv, record.encode("utf-8")


def golden_digest():
    digest = hashlib.sha256()
    for _, record in records():
        digest.update(record + b"\n")
    return digest.hexdigest()


def test_golden_digest():
    assert golden_digest() == DIGEST


if __name__ == "__main__":
    for argv, record in records():
        sys.stdout.write(f"{hashlib.sha256(record).hexdigest()} {json.dumps(argv, ensure_ascii=False)}\n")
