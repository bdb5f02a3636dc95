"""Command-line surface: analyze, table, render, verify, periods.

Exit codes partition outcomes: 0 accepted/agreement, 1 rejected,
2 input error, 3 engine/oracle discrepancy, 4 internal error (a one-line
``error: internal: …`` on stderr, never a traceback).  A rejected
``analyze`` document names the failing component and, under ``reached``,
the components its image meets.  All output is deterministic
for fixed inputs: canonical JSON key order, canonical rational and surd
display, stable CSV and SVG bytes.

A document is at most MAX_DOC_BYTES bytes and is decoded by one JSON
decoder.  Its rationals are read as integer pairs (numerator, denominator),
never as Fractions: a packing's basis and shifts are put over one
denominator and handed to PointPacking.from_pairs, and a similarity is the
integer triple (q, p·a, p·b) of z = a + b·u and the scale p/q.  The presets,
each table --z, the pair (a, b), and the --window corners, over their least
common denominator, are integers too.

Flag rules live in build_parser; run_verify keeps the three that read a value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring
from operator import itemgetter

from . import lattices, oracle, packings, similarity as sim
from .lattices import Lattice
from .packings import PointPacking
from .presets import PRESETS, preset
from .render import render_svg
from .rings import EISENSTEIN, GAUSSIAN, format_pair, pair_norm
from .similarity import Direction, Similarity, format_scale

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_DISCREPANCY = 3
EXIT_INTERNAL = 4

# Largest table --samples: sample_directions lists candidates below a norm
# limit that grows with the count, so the count is capped.
MAX_SAMPLES = 100
# Largest verify --random and --p-bound/--q-bound: each runs the oracle.
MAX_RANDOM = 10_000
MAX_BOUND = 100
# Longest rational text; exponents are refused, as Fraction expands them.
MAX_RATIONAL_CHARS = 40
# Integers of a "z" document lie below this, at most MAX_RATIONAL_CHARS digits.
_Z_BOUND = 10 ** MAX_RATIONAL_CHARS
# Most shifts in a packing document; the work grows with their square.
MAX_COMPONENTS = packings.MAX_LIFTED_COMPONENTS
# Longest document, inline or read from a file, in bytes of UTF-8.
MAX_DOC_BYTES = 1 << 20


class InputError(Exception):
    """Malformed document or argument; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as an InputError,
    so that main prints it as one line and returns exit code 2; subparsers
    are made of the same class."""

    def error(self, message: str):
        raise InputError(message)


# ---------------------------------------------------------------------------
# document parsing


# An integer is an optional sign and ASCII digits; a rational adds an optional
# /digits or .digits, and table --z takes two integers a,b.
_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"({_INTEGER})(?:/([0-9]+)|\.([0-9]+))?")
_Z = re.compile(rf"({_INTEGER}),({_INTEGER})")


def _rational(text) -> tuple[int, int]:
    """The rational a document or --window writes, as (numerator,
    denominator) in lowest terms with a positive denominator."""
    if not isinstance(text, str):
        raise InputError(f"bad rational {json.dumps(text)[:MAX_RATIONAL_CHARS]}: "
                         'write it as a JSON string, such as "1/2"')
    match = _RATIONAL.fullmatch(text) if len(text) <= MAX_RATIONAL_CHARS else None
    if match is None:
        raise InputError(f"bad rational {text[:MAX_RATIONAL_CHARS]!r}: write a sign, digits "
                         f"and an optional /digits or .digits, at most {MAX_RATIONAL_CHARS} "
                         "characters")
    whole, den, decimals = match.groups()
    if decimals is not None:
        num, den = int(whole + decimals), 10 ** len(decimals)
    else:
        num, den = int(whole), int(den or 1)
        if den == 0:
            raise InputError(f"bad rational {text!r}: Fraction({num}, 0)")
    g = math.gcd(num, den)
    return num // g, den // g


def _over_one_denominator(rationals, d: int = 1) -> tuple[int, list[int]]:
    """The lcm D of d and the denominators of the (numerator, denominator)
    pairs, and each rational times D."""
    d = math.lcm(d, *(den for _, den in rationals))
    return d, [num * (d // den) for num, den in rationals]


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is refused, not overwritten."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InputError(f"repeated key {key!r} in a JSON object")
    return doc


# One decoder for every document: json.loads builds a new one per call when
# given a hook.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_doc(source: str) -> dict:
    """JSON from an inline string (leading '{') or from a file path, of at
    most MAX_DOC_BYTES bytes of UTF-8; a file is read no further than one
    byte past the cap, and its text then read as text mode reads it."""
    inline = source.lstrip().startswith("{")
    if inline:
        data = source.encode("utf-8", "surrogatepass")
    else:
        try:
            with open(source, "rb") as fh:
                data = fh.read(MAX_DOC_BYTES + 1)
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from None
    if len(data) > MAX_DOC_BYTES:
        raise InputError(f"a document has at most {MAX_DOC_BYTES} bytes (cli.MAX_DOC_BYTES)")
    text = source if inline else data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _check_keys(doc: dict, kind: str, keys: tuple[str, ...]) -> None:
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise InputError(f"unknown key {', '.join(map(repr, unknown))} in {kind} "
                         f"document; expected {', '.join(keys)}")


def parse_packing_doc(doc: dict) -> PointPacking:
    """The packing of a document, read as integer pairs: Γ is spanned over
    its basis' denominator, and Γ and the shifts are then put over one
    denominator D for PointPacking.from_pairs."""
    _check_keys(doc, "packing", ("ring", "basis", "shifts"))
    ring = doc.get("ring")
    if ring not in (GAUSSIAN, EISENSTEIN):
        raise InputError('packing document needs "ring": "gaussian"|"eisenstein"')
    if "basis" in doc:
        basis = doc["basis"]
        if not (
            isinstance(basis, list) and len(basis) == 2 and all(map(_is_pair, basis))
        ):
            raise InputError('"basis" must be two generator vectors')
        d, ints = _over_one_denominator([_rational(c) for row in basis for c in row])
        try:
            base = Lattice.spanned(ring, d, zip(ints[::2], ints[1::2]))
        except lattices.DegenerateLatticeError as exc:
            raise InputError(str(exc)) from None
    else:
        base = Lattice.ring_lattice(ring)
    shifts_doc = doc.get("shifts")
    if not isinstance(shifts_doc, list) or not shifts_doc:
        raise InputError('packing document needs a non-empty "shifts" list')
    if len(shifts_doc) > MAX_COMPONENTS:
        raise InputError(f"a packing document has at most {MAX_COMPONENTS} shifts")
    coords = []
    for entry in shifts_doc:
        if not _is_pair(entry):
            raise InputError(f"shift {entry!r} must be a coordinate pair")
        coords += (_rational(entry[0]), _rational(entry[1]))
    d, ints = _over_one_denominator(coords, base.d)
    try:
        return PointPacking.from_pairs(base.over(d), list(zip(ints[::2], ints[1::2])))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_similarity_doc(doc: dict, ring: str) -> Similarity:
    """The similarity w = scale·z of a document, as the integer triple
    (q, p·a, p·b) for z = a + b·u and scale = p/q."""
    _check_keys(doc, "similarity", ("z", "scale", "conj"))
    a, b = _ring_pair(doc, "similarity")
    p, q = _rational(doc.get("scale", "1"))
    if p == 0 or a == b == 0:
        raise InputError("similarity multiplier is zero")
    return Similarity.from_ints(ring, q, a * p, b * p, _conj_flag(doc))


def parse_direction_doc(doc: dict, ring: str) -> Direction:
    _check_keys(doc, "direction", ("z", "conj"))
    a, b = _ring_pair(doc, "direction")
    try:
        return Direction.from_ints(ring, a, b, _conj_flag(doc))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _is_pair(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2


def _ring_pair(doc: dict, kind: str) -> tuple[int, int]:
    """The integers a, b of "z": [a, b] in a similarity or direction
    document."""
    z = doc.get("z")
    if not _is_pair(z) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in z
    ):
        raise InputError(f'{kind} document needs "z": [a, b] with JSON integers')
    if any(abs(c) >= _Z_BOUND for c in z):
        raise InputError(f'{kind} document "z" takes integers of at most '
                         f"{MAX_RATIONAL_CHARS} digits")
    return z[0], z[1]


def _conj_flag(doc: dict) -> bool:
    conj = doc.get("conj", False)
    if not isinstance(conj, bool):
        raise InputError('"conj" must be a JSON boolean (true or false)')
    return conj


def _load_packing(args) -> PointPacking:
    if args.preset is not None:
        return preset(args.preset)
    if args.packing is not None:
        return parse_packing_doc(_load_doc(args.packing))
    raise InputError("provide a packing document or --preset")


# ---------------------------------------------------------------------------
# display


def _tau_display(labels: list[str], tau) -> str:
    return "{" + ",".join(f"({labels[k]},{labels[j]})" for k, j in sorted(tau)) + "}"


def _write(text: str, out: str | None) -> None:
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def to_json(value) -> str:
    """The bytes of json.dumps(value, ensure_ascii=False, sort_keys=True,
    indent=2) for the types the commands print: dict with str keys, list,
    str, int, bool and None.  Any other type, a tuple or a float included,
    raises TypeError.  Strings go through json's C escaper, and containers
    are written by one recursion into a list of chunks, which is faster than
    json's pure-Python encoder, the one json.dumps takes for indented
    output."""
    chunks: list[str] = []
    _json_chunks(value, "\n", chunks)
    return "".join(chunks)


def _json_chunks(value, newline: str, chunks: list[str]) -> None:
    kind = type(value)
    if kind is str:
        chunks.append(encode_basestring(value))
    elif kind is int:
        chunks.append(repr(value))
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            chunks += (sep, encode_basestring(key), ": ")
            _json_chunks(value[key], inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif kind is list:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _json_chunks(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    elif kind is bool:
        chunks.append("true" if value else "false")
    elif value is None:
        chunks.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit_json(doc, out: str | None) -> None:
    _write(to_json(doc) + "\n", out)


# ---------------------------------------------------------------------------
# analyze


def run_analyze(args) -> int:
    packing = _load_packing(args)
    s = parse_similarity_doc(_load_doc(args.similarity), packing.ring)
    report = packings.check_similarity(packing, s)
    ratio, d = sim.decompose(s)
    den = sim.denominator(packing.lattice, d)
    doc = {
        "accepted": report.accepted,
        "n": report.n,
        "m": packing.m,
        "beta": format_scale(ratio, d.norm()),
        "direction": str(d),
        "den_lattice": format_scale(Fraction(*den), d.norm()),
    }
    if report.accepted:
        ring, gamma_d = packing.ring, packing.lattice.d
        labels = [format_pair(ring, x, y, gamma_d) for x, y in packing.residues]
        doc["tau"] = [[labels[k], labels[j]] for k, j in report.tau]
        doc["witness"] = [
            {"component": k, "target": j, "offset": format_pair(ring, *off, gamma_d)}
            for k, j, off in report.witness
        ]
        cor = packings.check_corollaries(report, packing, ratio, den)
        doc["corollaries"] = {
            "shift_pair_in_nth_lattice": cor.shift_pair_in_nth_lattice,
            "singleton_when_lattice_scaling": cor.singleton_when_lattice_scaling,
            "n_beta_in_lattice_scal": cor.n_beta_in_lattice_scal,
            "all_pass": cor.all_pass(),
        }
    else:
        doc["failing_component"] = report.failing_k
        doc["reached"] = list(report.reached)
    _emit_json(doc, args.out)
    return EXIT_OK if report.accepted else EXIT_REJECTED


# ---------------------------------------------------------------------------
# table


TABLE_SPECS = {
    "t1": ("rect12", False, GAUSSIAN),
    "t2": ("hex", False, EISENSTEIN),
    "t3": ("hex", True, EISENSTEIN),
    "t4": ("hex-shifted", False, EISENSTEIN),
    "t5": ("hex-shifted", True, EISENSTEIN),
}

# The keys of a table row, in the order of the CSV columns.
TABLE_FIELDS = ("table", "class", "z", "scal", "tau")

GAUSSIAN_CLASSES = ((1, 0), (0, 1), (1, 1))
EISENSTEIN_CLASSES = (1, 2, 0)


def class_of(ring: str, a: int, b: int):
    """The table class of z = a + b·u: (a, b) mod 2 over Z[i], a + b mod 3 over Z[ω]."""
    return (a % 2, b % 2) if ring == GAUSSIAN else (a + b) % 3


def class_label(ring: str, key) -> str:
    if ring == GAUSSIAN:
        return f"(a,b)≡({key[0]},{key[1]}) mod 2"
    return f"a+b≡{key} mod 3"


def sample_directions(ring: str, key, count: int) -> list[tuple[int, int]]:
    """The first `count` primitive z = a + b·u of a class, as (a, b), by
    (norm, a, b) over the sector a ≥ 1, b ≥ 0.  Every such z of norm below
    a limit is listed, the limit doubling until it holds `count` of them:
    over Z[i] both a and b lie below √limit, and over Z[ω] with a, b ≥ 0,
    N(z) = a² - ab + b² ≥ (3/4)·max(a, b)²."""
    limit = 16
    while True:
        side = math.isqrt(limit if ring == GAUSSIAN else 4 * limit // 3) + 1
        candidates = sorted(
            (norm, a, b)
            for a in range(1, side)
            for b in range(side)
            if math.gcd(a, b) == 1
            and (norm := pair_norm(ring, a, b)) < limit
            and class_of(ring, a, b) == key
        )
        if len(candidates) >= count:
            return [(a, b) for _, a, b in candidates[:count]]
        limit *= 2


def table_rows(
    name: str, samples: int = 2, explicit: list[tuple[int, int]] | None = None
) -> list[dict]:
    """Rows (table, class, z, scal, tau) reproducing the published tables,
    for the sampled or explicit z = a + b·u as (a, b), grouped by class.
    A zero or non-primitive z raises ValueError, over either ring.

    Each text is formatted once, from integers: the shift labels once per
    packing, the label of each class that has a z once and z once, so a τ
    pair costs two list lookups; a Scal cell is one ResidueClass.display."""
    preset_name, conjugate, ring = TABLE_SPECS[name]
    packing = preset(preset_name)
    labels = [format_pair(ring, x, y, packing.lattice.d) for x, y in packing.residues]
    classes = GAUSSIAN_CLASSES if ring == GAUSSIAN else EISENSTEIN_CLASSES
    if explicit is None:
        explicit = [z for key in classes for z in sample_directions(ring, key, samples)]
    groups = {}
    for a, b in explicit:  # each z is checked before any is grouped or dropped
        d = Direction.from_ints(ring, a, b, conjugate)
        groups.setdefault(class_of(ring, a, b), []).append(d)
    rows = []
    for key in [key for key in classes if key in groups]:
        label = class_label(ring, key)
        for d in groups[key]:
            z_text = format_pair(ring, *d.ints, 1)
            cells = [(c.display(), _tau_display(labels, tau))
                     for c, tau in packings.scal_classes_by_tau(packing, d)]
            for scal, tau in cells or [("∅", "∅")]:
                rows.append({"table": name, "class": label, "z": z_text,
                             "scal": scal, "tau": tau})
    return rows


def run_table(args) -> int:
    explicit = None
    if args.z:
        explicit = []
        for text in args.z:
            match = _Z.fullmatch(text)
            if match is None:
                raise InputError(f"bad --z {text[:MAX_RATIONAL_CHARS]!r}: write a,b, each an "
                                 "optional sign and ASCII digits")
            if any(len(part) > MAX_RATIONAL_CHARS for part in match.groups()):
                raise InputError(f"bad --z {text[:MAX_RATIONAL_CHARS]!r}: each part "
                                 f"has at most {MAX_RATIONAL_CHARS} characters")
            a, b = map(int, match.groups())
            if math.gcd(a, b) != 1:
                raise InputError(f"--z {text!r} is not a primitive direction")
            explicit.append((a, b))
    rows = table_rows(args.name, samples=args.samples or 2, explicit=explicit)
    if args.format == "json":
        _emit_json(rows, args.out)
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_FIELDS)
    writer.writerows(map(itemgetter(*TABLE_FIELDS), rows))
    _write(buf.getvalue(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def _parse_window(text: str) -> tuple[int, tuple[int, int, int, int]]:
    """The corners x0, y0, x1, y1 as integers over their least common
    denominator e, as (e, corners)."""
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError("window must be x0,y0,x1,y1")
    e, (x0, y0, x1, y1) = _over_one_denominator([_rational(p) for p in parts])
    if x1 <= x0 or y1 <= y0:
        raise InputError("window must have positive area")
    return e, (x0, y0, x1, y1)


def run_render(args) -> int:
    packing = _load_packing(args)
    window = _parse_window(args.window)
    s = None
    if not args.packing_only:
        s = parse_similarity_doc(_load_doc(args.similarity), packing.ring)
        if not packings.check_similarity(packing, s).accepted:
            sys.stderr.write("similarity rejected; use --packing-only to draw L\n")
            return EXIT_REJECTED
    _write(render_svg(packing, s, window), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def run_verify(args) -> int:
    if args.seed is not None and not args.random:
        raise InputError("verify --seed goes with --random N (N ≥ 1) only")
    for flag, bound in (("--p-bound", args.p_bound), ("--q-bound", args.q_bound)):
        if bound is not None and args.direction is None:
            raise InputError(f"verify {flag} goes with --direction only")
    if args.random:
        if any(v is not None for v in (args.packing, args.preset, args.similarity,
                                       args.direction)):
            raise InputError("verify --random draws its own cases; give it no packing, "
                             "--preset, --similarity or --direction")
        doc = _verify_random(args)
    else:
        packing = _load_packing(args)
        if args.similarity is not None:
            s = parse_similarity_doc(_load_doc(args.similarity), packing.ring)
            doc = _compare_with_oracle(packing, s)
        elif args.direction is not None:
            doc = _verify_direction(packing, args)
        else:
            raise InputError("verify needs --similarity, --direction, or --random")
    _emit_json(doc, args.out)
    return EXIT_OK if doc["agree"] else EXIT_DISCREPANCY


def _compare_with_oracle(packing: PointPacking, s: Similarity) -> dict:
    """check_similarity against oracle.index_by_counting: they agree when
    the oracle refutes a rejected s, or certifies an accepted s with the
    engine's n and τ and an index of β²."""
    report = packings.check_similarity(packing, s)
    try:
        found = oracle.index_by_counting(packing, s)
    except oracle.NotContained as refuted:
        doc = {"oracle_contained": False, "agree": not report.accepted,
               "counterexample": str(refuted.point)}
    else:
        beta_squared = s.scale_sq()
        agree = (report.accepted and found.index == beta_squared
                 and found.n == {report.n} and found.tau == report.tau)
        doc = {"oracle_contained": True, "agree": agree,
               "oracle_index": str(found.index), "beta_squared": str(beta_squared)}
    return {"engine_accepted": report.accepted, **doc}


def _verify_direction(packing: PointPacking, args) -> dict:
    d = parse_direction_doc(_load_doc(args.direction), packing.ring)
    # Engine first: a packing over the lift cap exits 2 before the oracle runs.
    full = packings.scal_set_packing(packing, d)
    p_bound = 9 if args.p_bound is None else args.p_bound
    q_bound = 1 if args.q_bound is None else args.q_bound
    ratios = oracle.coprime_ratios(p_bound, q_bound)
    engine = {r for r in ratios if full.contains_ratio(r)}
    brute = oracle.scal_set_bruteforce(packing, d, p_bound, q_bound)
    return {
        "direction": str(d),
        "bounds": {"p": p_bound, "q": q_bound},
        "bruteforce": sorted(str(r) for r in brute),
        "engine": sorted(str(r) for r in engine),
        "agree": brute == engine,
    }


def _verify_random(args) -> dict:
    seed = args.seed or 0
    rng = random.Random(seed)
    disagreements = []
    for _ in range(args.random):
        ring = rng.choice((GAUSSIAN, EISENSTEIN))
        case = oracle.random_case(rng, ring)
        if not _compare_with_oracle(case.packing, case.similarity)["agree"]:
            disagreements.append(
                {"packing": str(case.packing), "similarity": str(case.similarity)}
            )
    return {
        "cases": args.random,
        "seed": seed,
        "disagreements": disagreements,
        "agree": not disagreements,
    }


# ---------------------------------------------------------------------------
# periods


def run_periods(args) -> int:
    packing = _load_packing(args)
    reduced = packings.reduce(packing)
    maximal = reduced.lattice  # per(L)
    ring, d = packing.ring, maximal.d
    doc = {
        "periods_basis": [format_pair(ring, x, y, d) for x, y in maximal.basis],
        "covolume_ratio": str(lattices.index(packing.lattice, maximal)),
        "components_before": packing.m,
        "components_after": reduced.m,
        "reduced_shifts": [format_pair(ring, x, y, d) for x, y in reduced.residues],
    }
    _emit_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_packing_args(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    either = "; this or {} is required" if required else ""
    group.add_argument("packing", nargs="?",
                       help="packing document (JSON or path)" + either.format("--preset"))
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="use a built-in packing" + either.format("a packing document"))
    parser.add_argument("--out", help="write output to a file instead of stdout")


def _bounded(lo: int, hi: int):
    """An argparse type: an integer from lo to hi."""
    def read(text: str) -> int:
        if not lo <= (value := int(text)) <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}")
        return value
    read.__name__ = "int"  # argparse's "invalid int value: 'x'" names the type
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simiso",
        description="Exact similarity isometries of planar point packings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="decide one similarity against a packing")
    _add_packing_args(p, required=True)
    p.add_argument("--similarity", required=True, help="similarity document")
    p.set_defaults(func=run_analyze)

    p = subs.add_parser("table", help="reproduce a published table as CSV or JSON")
    p.add_argument("name", choices=sorted(TABLE_SPECS), help="which published table")
    # default=None: argparse reads a value that *is* the default as left out.
    group = p.add_mutually_exclusive_group()
    group.add_argument("--samples", type=_bounded(1, MAX_SAMPLES),
                       help=f"directions per class, 1 to {MAX_SAMPLES} (default 2)")
    group.add_argument("--z", action="append", help="explicit direction a,b (repeatable)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=run_table)

    p = subs.add_parser("render", help="draw a packing and an accepted image")
    _add_packing_args(p, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--similarity",
                       help="similarity document; this or --packing-only is required")
    p.add_argument(
        "--window",
        required=True,
        help="x0,y0,x1,y1 in ring coordinates (use --window=-4,-4,4,4 "
        "when bounds are negative)",
    )
    group.add_argument("--packing-only", action="store_true",
                       help="draw L alone; this or --similarity is required")
    p.set_defaults(func=run_render)

    p = subs.add_parser("verify", help="cross-check the engine against the oracle")
    _add_packing_args(p, required=False)  # --random takes no packing
    group = p.add_mutually_exclusive_group()
    group.add_argument("--similarity", help="similarity document")
    group.add_argument("--direction", help="direction document for a set sweep")
    p.add_argument("--p-bound", type=_bounded(1, MAX_BOUND),
                   help=f"1 to {MAX_BOUND} (default 9); with --direction only")
    p.add_argument("--q-bound", type=_bounded(1, MAX_BOUND),
                   help=f"1 to {MAX_BOUND} (default 1); with --direction only")
    p.add_argument("--random", type=_bounded(0, MAX_RANDOM), default=0,
                   help=f"sweep size, up to {MAX_RANDOM}")
    p.add_argument("--seed", type=int, help="seed of --random (default 0)")
    p.set_defaults(func=run_verify)

    p = subs.add_parser("periods", help="maximal generating lattice and reduction")
    _add_packing_args(p, required=True)
    p.set_defaults(func=run_periods)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"error: internal: {message}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
