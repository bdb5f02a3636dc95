"""CLI surface tests: exit codes, document parsing, deterministic output."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simiso import cli, oracle, render
from simiso.cli import (
    EXIT_DISCREPANCY,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REJECTED,
    MAX_BOUND,
    MAX_COMPONENTS,
    MAX_DOC_BYTES,
    MAX_RANDOM,
    MAX_RATIONAL_CHARS,
    MAX_SAMPLES,
    InputError,
    _rational,
    main,
    parse_direction_doc,
    parse_packing_doc,
    parse_similarity_doc,
    to_json,
)
from simiso.lattices import Lattice
from simiso.packings import MAX_SCAL_RESIDUES, PointPacking
from simiso.presets import preset
from simiso.render import MAX_RENDER_POINTS
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, RingElem
from simiso.similarity import Direction, Similarity

from references import oracle_points
from test_golden import _table_commands

HEX_DOC = json.dumps(
    {
        "ring": "eisenstein",
        "basis": [["1", "0"], ["0", "1"]],
        "shifts": [["0", "0"], ["2/3", "1/3"]],
    }
)


# One accepted similarity per preset, with |τ| from 2 (rect12) to 9 (ex34).
ACCEPTED_PER_PRESET = [
    ("rect12", '{"z":[1,2],"scale":"1"}'),
    ("hex", '{"z":[1,1],"scale":"2"}'),
    ("hex-shifted", '{"z":[1,1],"scale":"2","conj":true}'),
    ("ex34", '{"z":[2,1],"scale":"1"}'),
    ("ex22", '{"z":[2,1],"scale":"1","conj":true}'),
]


def _count_fractions(monkeypatch) -> list:
    """The argument tuples of every Fraction built from here on."""
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    return built


# Strings with what JSON must escape (quote, backslash, control characters),
# what it must not (U+2028, a non-BMP character, the display's √ω∪∅), and
# any other character.
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\n\t\u2028\U0001f600√ω∪∅'), st.characters()),
    max_size=6,
)
_JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-10**300, 10**300), _JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@st.composite
def _rational_texts(draw):
    """A text of the README grammar: a sign, ASCII digits with leading
    zeros, then /digits or .digits or nothing; sometimes padded with leading
    zeros to one character below, at or above MAX_RATIONAL_CHARS."""
    digits = st.text("0123456789", min_size=1, max_size=12)
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(digits)
    tail = draw(st.sampled_from(["", "/", "."]))
    tail += draw(digits) if tail else ""
    edge = draw(st.sampled_from([0, -1, 0, 1]))
    if edge:
        whole = whole.rjust(MAX_RATIONAL_CHARS + edge - len(sign) - len(tail), "0")
    return sign + whole + tail


def _rational_text(draw, value: F) -> str:
    """A text of value: a decimal when its denominator divides 10**6 and the
    draw says so, else p/q with both scaled by 1 to 3; sometimes signed + or
    with a leading zero."""
    if value.denominator == 1 and draw(st.booleans()):
        text = str(value.numerator)
    elif 10**6 % value.denominator == 0 and draw(st.booleans()):
        places = draw(st.integers(6, 8))
        text = f"{abs(value) * 10**places // 1:0{places + 1}d}"
        text = ("-" if value < 0 else "") + text[:-places] + "." + text[-places:]
    else:
        k = draw(st.integers(1, 3))
        text = f"{value.numerator * k}/{value.denominator * k}"
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return text


@st.composite
def _packing_docs(draw):
    """A packing document: a sheared basis of index 1 to 4 over denominator
    1 to 3, or none, and 1 to 6 shifts of denominators 1 to 13 lying
    anywhere, the last sometimes congruent to an earlier one."""
    ring = draw(st.sampled_from([GAUSSIAN, EISENSTEIN]))
    doc = {"ring": ring}
    gens = [(F(1), F(0)), (F(0), F(1))]
    if draw(st.booleans()):
        index = draw(st.integers(1, 4))
        h00 = draw(st.sampled_from([h for h in range(1, index + 1) if index % h == 0]))
        h01, shear = draw(st.integers(0, h00 - 1)), draw(st.integers(-1, 1))
        den = draw(st.integers(1, 3))
        gens = [(F(h00, den), F(0)), (F(h01 + shear * h00, den), F(index // h00, den))]
        doc["basis"] = [[_rational_text(draw, c) for c in g] for g in gens]
    coord = st.builds(F, st.integers(-30, 30), st.integers(1, 13))
    shifts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(shifts))
        k, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        shifts.append((a + k * gens[0][0] + j * gens[1][0], b + k * gens[0][1] + j * gens[1][1]))
    doc["shifts"] = [[_rational_text(draw, c) for c in x] for x in shifts]
    return doc


def _packing_by_fractions(doc: dict) -> PointPacking:
    """The packing of a document as the Fraction reading built it: Fraction
    reads every text of the grammar, and PointPacking takes FieldElem shifts."""
    ring = doc["ring"]
    gamma = (Lattice.from_generators(ring, [tuple(map(F, g)) for g in doc["basis"]])
             if "basis" in doc else Lattice.ring_lattice(ring))
    return PointPacking(gamma, tuple(FieldElem(ring, F(a), F(b)) for a, b in doc["shifts"]))


class TestDocuments:
    @given(_rational_texts())
    @settings(max_examples=300, deadline=None)
    def test_rational_is_fraction_of_the_text(self, text):
        # The integer reading against Fraction, which reads every text of
        # the grammar; a zero denominator is refused with Fraction's words.
        if len(text) > MAX_RATIONAL_CHARS:
            with pytest.raises(InputError, match="at most"):
                _rational(text)
            return
        try:
            want = F(text)
        except ZeroDivisionError as exc:
            with pytest.raises(InputError) as got:
                _rational(text)
            assert str(got.value) == f"bad rational {text!r}: {exc}"
        else:
            assert _rational(text) == (want.numerator, want.denominator)

    @given(_packing_docs())
    @settings(max_examples=300, deadline=None)
    def test_integer_parse_is_the_fraction_parse(self, doc):
        try:
            want = _packing_by_fractions(doc)
        except ValueError as exc:
            with pytest.raises(InputError) as got:
                parse_packing_doc(doc)
            assert str(got.value) == str(exc) and "congruent" in str(exc)
            return
        got = parse_packing_doc(doc)
        assert dataclasses.astuple(got.lattice) == dataclasses.astuple(want.lattice)
        assert got.residues == want.residues and got.shifts == want.shifts
        assert str(got) == str(want) and got == want

    def test_packing_doc_matches_preset(self):
        assert parse_packing_doc(json.loads(HEX_DOC)) == preset("hex")

    def test_packing_doc_default_basis(self):
        doc = {"ring": "gaussian", "shifts": [["0", "0"], ["1/2", "0"]]}
        assert parse_packing_doc(doc) == preset("rect12")

    def test_packing_doc_bad_ring(self):
        with pytest.raises(InputError):
            parse_packing_doc({"ring": "cubic", "shifts": [["0", "0"]]})

    def test_packing_doc_congruent_shifts(self):
        doc = {"ring": "gaussian", "shifts": [["0", "0"], ["1", "1"]]}
        with pytest.raises(InputError):
            parse_packing_doc(doc)

    def test_congruent_shifts_named_as_given(self, capsys):
        doc = {"ring": "gaussian", "shifts": [["1/2", "0"], ["-1/2", "3"]]}
        rc = main(["analyze", json.dumps(doc), "--similarity", '{"z":[1,0]}'])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: shifts 1/2 and (-1+6i)/2 are congruent mod the generating lattice\n"
        )

    def test_similarity_doc(self):
        s = parse_similarity_doc(
            {"z": [1, 2], "scale": "2/5", "conj": False}, GAUSSIAN
        )
        assert str(s.w) == "(2+4i)/5" and not s.conjugate

    def test_similarity_zero_scale(self):
        with pytest.raises(InputError):
            parse_similarity_doc({"z": [1, 2], "scale": "0/1"}, GAUSSIAN)

    def test_similarity_zero_z(self):
        with pytest.raises(InputError):
            parse_similarity_doc({"z": [0, 0], "scale": "1"}, EISENSTEIN)

    @pytest.mark.parametrize("conj", ["false", "true", 0, 1, None, []])
    def test_conj_must_be_boolean(self, conj):
        doc = {"z": [1, 1], "scale": "2", "conj": conj}
        with pytest.raises(InputError):
            parse_similarity_doc(doc, EISENSTEIN)
        with pytest.raises(InputError):
            parse_direction_doc(doc, EISENSTEIN)

    @pytest.mark.parametrize("z", [[1.7, 1], [1, 1.0], [True, 0], ["1", "1"], [1, None]])
    def test_z_entries_must_be_integers(self, z):
        with pytest.raises(InputError):
            parse_similarity_doc({"z": z, "scale": "1"}, EISENSTEIN)
        with pytest.raises(InputError):
            parse_direction_doc({"z": z}, EISENSTEIN)

    def test_direction_doc(self):
        d = parse_direction_doc({"z": [2, 1], "conj": True}, EISENSTEIN)
        assert d == Direction(RingElem(EISENSTEIN, 2, 1), True)

    @pytest.mark.parametrize(
        "doc",
        [
            {"ring": "gaussian", "shifts": [0]},
            {"ring": "gaussian", "shifts": 5},
            {"ring": "gaussian", "shifts": "ab"},
            {"ring": "gaussian", "shifts": [["0", "0", "0"]]},
            {"ring": "gaussian", "basis": 5, "shifts": [["0", "0"]]},
            {"ring": "gaussian", "basis": [["1", "0"], ["0"]], "shifts": [["0", "0"]]},
            {"ring": "gaussian", "basis": [["1", "0"], 7], "shifts": [["0", "0"]]},
            {"ring": "gaussian", "basis": "ab", "shifts": [["0", "0"]]},
        ],
    )
    def test_malformed_packing_shapes(self, doc, capsys):
        with pytest.raises(InputError):
            parse_packing_doc(doc)
        rc = main(["analyze", json.dumps(doc), "--similarity", '{"z":[1,0]}'])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, key",
        [
            # A misspelled basis and scale were once dropped: accepted, β = 1.
            (["analyze", '{"ring":"gaussian","shifts":[["0","0"]],'
              '"bases":[["2","0"],["0","1"]]}', "--similarity", '{"z":[1,0]}'], "bases"),
            (["analyze", "--preset", "rect12", "--similarity",
              '{"z":[1,0],"sclae":"1/2"}'], "sclae"),
            (["verify", "--preset", "hex", "--direction",
              '{"z":[1,1],"ring":"eisenstein"}'], "ring"),
        ],
        ids=["packing", "similarity", "direction"],
    )
    def test_unknown_keys_exit_2(self, argv, key, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown key ")
        assert repr(key) in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--preset", "hex", "--similarity",
             '{"z":[1,1],"scale":0.30000000000000004}'],
            ["analyze", '{"ring":"gaussian","basis":[[1,"0"],["0","1"]],"shifts":[["0","0"]]}',
             "--similarity", '{"z":[1,0]}'],
            ["analyze", '{"ring":"gaussian","shifts":[[0.5,0],["0","0"]]}',
             "--similarity", '{"z":[1,0]}'],
        ],
        ids=["scale", "basis", "shift"],
    )
    def test_rationals_must_be_strings(self, argv, capsys):
        # A JSON number would be read through its float text, or as an int.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad rational ")
        assert "JSON string" in captured.err and captured.err.count("\n") == 1

    def test_deep_nesting_exits_2(self, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, past the
        # interpreter's recursion limit.
        doc = '{"ring":' + "[" * 100_000 + "]" * 100_000 + "}"
        assert main(["analyze", doc, "--similarity", '{"z":[1,0]}']) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")
        assert captured.err.count("\n") == 1

    def test_rational_text_length_cap(self):
        assert _rational("0" * (MAX_RATIONAL_CHARS - 1) + "2") == (2, 1)
        with pytest.raises(InputError):
            _rational("0" * MAX_RATIONAL_CHARS + "2")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2e0"}'],
            ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":1e300}'],
            ["analyze", '{"ring":"gaussian","basis":[["1e2","0"],["0","1"]],'
             '"shifts":[["0","0"]]}', "--similarity", '{"z":[1,0]}'],
            ["analyze", '{"ring":"gaussian","shifts":[["0","1E-1"]]}',
             "--similarity", '{"z":[1,0]}'],
            ["render", "--preset", "hex", "--packing-only", "--window=-1e1,0,1,1"],
            ["analyze", "--preset", "hex", "--similarity",
             json.dumps({"z": [1, 1], "scale": "1" * (MAX_RATIONAL_CHARS + 1)})],
        ],
    )
    def test_exponents_and_long_rationals_exit_2(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", '{"ring":"gaussian","shifts":[["0","0"],["1/2","1/2"]]}',
             "--similarity", '{"z":[1,1],"scale":"1_0"}'],
            ["analyze", '{"ring":"gaussian","shifts":[["0","0"],["1 /2","0"]]}',
             "--similarity", '{"z":[1,0]}'],
            ["analyze", '{"ring":"gaussian","shifts":[["0","0"],[" 1/2 ","0"]]}',
             "--similarity", '{"z":[1,0]}'],
            ["analyze", '{"ring":"gaussian","basis":[["\u0661","0"],["0","1"]],'
             '"shifts":[["0","0"]]}', "--similarity", '{"z":[1,0]}'],
            ["render", "--preset", "hex", "--packing-only", "--window=-1,0, 1,1"],
            ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":".5"}'],
        ],
        ids=["underscore", "inner-space", "outer-space", "non-ascii-digit", "window-space",
             "no-leading-digit"],
    )
    def test_rational_grammar_is_strict(self, argv, capsys):
        # Fraction() reads all of these; the README's grammar reads none.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad rational ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,value",
        [("0", 0), ("-3", -3), ("+3", 3), ("007", 7), ("1/2", F(1, 2)), ("-6/4", F(-3, 2)),
         ("0.5", F(1, 2)), ("-0.25", F(-1, 4)), ("+1.50", F(3, 2)), ("-0/8", 0), ("0.000", 0)],
    )
    def test_rational_grammar_reads(self, text, value):
        # The value as an integer pair in lowest terms, denominator positive.
        got = _rational(text)
        assert got == (value.numerator, value.denominator) and all(type(c) is int for c in got)


class TestAnalyze:
    @pytest.mark.parametrize("name, similarity", ACCEPTED_PER_PRESET)
    def test_only_parsing_builds_fractions(self, name, similarity, monkeypatch, capsys):
        # The scale, w's coordinates and the β and den displays; the τ labels
        # and witness offsets print from integer pairs, however many there are.
        preset(name)
        built = _count_fractions(monkeypatch)
        rc = main(["analyze", "--preset", name, "--similarity", similarity])
        assert rc == EXIT_OK and len(built) <= 7
        assert json.loads(capsys.readouterr().out)["tau"]

    def test_accepted(self, capsys):
        rc = main(
            [
                "analyze",
                "--preset",
                "hex",
                "--similarity",
                '{"z":[1,1],"scale":"2"}',
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] and doc["n"] == 1
        assert doc["beta"] == "2"
        assert doc["tau"] == [["0", "0"], ["(2+ω)/3", "(2+ω)/3"]]
        assert doc["corollaries"]["all_pass"]

    def test_ex34_quarter_turn(self, capsys):
        rc = main(
            ["analyze", "--preset", "ex34", "--similarity", '{"z":[0,1],"scale":"1"}']
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3 and len(doc["tau"]) == 9

    def test_rejected(self, capsys):
        rc = main(
            ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"1"}']
        )
        assert rc == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert not doc["accepted"] and doc["failing_component"] == 1
        assert doc["reached"] == []

    def test_rejected_lists_reached_components(self, capsys):
        # n = 2, but the image of Γ meets the component Γ alone.
        rc = main(
            ["analyze", "--preset", "rect12", "--similarity", '{"z":[1,1],"scale":"1/2"}']
        )
        assert rc == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["failing_component"], doc["reached"]) == (2, 0, [0])

    @pytest.mark.parametrize("m", [MAX_COMPONENTS, MAX_COMPONENTS + 1])
    def test_component_cap(self, m, capsys):
        doc = json.dumps({"ring": "gaussian", "shifts": [[f"{i}/4001", "0"] for i in range(m)]})
        rc = main(["analyze", doc, "--similarity", '{"z":[1,0]}'])
        captured = capsys.readouterr()
        if m > MAX_COMPONENTS:
            assert rc == EXIT_INPUT and captured.out == ""
            assert captured.err == f"error: a packing document has at most {MAX_COMPONENTS} shifts\n"
        else:
            assert rc == EXIT_OK and json.loads(captured.out)["m"] == m

    def test_zero_multiplier_is_input_error(self, capsys):
        rc = main(
            ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"0/1"}']
        )
        assert rc == EXIT_INPUT

    def test_malformed_json(self):
        rc = main(["analyze", "--preset", "hex", "--similarity", '{"z":[1,1'])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "similarity",
        ['{"z":[1,1],"scale":"2","conj":"false"}', '{"z":[1.7,1],"scale":"2"}'],
    )
    def test_coerced_fields_are_input_errors(self, similarity, capsys):
        rc = main(["analyze", "--preset", "hex", "--similarity", similarity])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_inline_packing_document(self, capsys):
        rc = main(["analyze", HEX_DOC, "--similarity", '{"z":[1,1],"scale":"2"}'])
        assert rc == EXIT_OK

    def test_packing_file(self, tmp_path, capsys):
        path = tmp_path / "hex.json"
        path.write_text(HEX_DOC, encoding="utf-8")
        rc = main(["analyze", str(path), "--similarity", '{"z":[1,1],"scale":"2"}'])
        assert rc == EXIT_OK

    def test_document_fractions_do_not_grow_with_m(self, monkeypatch, capsys):
        # A document's rationals are read as integer pairs and its shifts
        # stay integer residues, so analyze builds the same few Fractions
        # (w, β and den(Γ, R)) whatever the number of shifts.
        counts = []
        for m in (1, 8, 32):
            doc = json.dumps({"ring": "gaussian", "basis": [["1", "0"], ["1/2", "3/2"]],
                              "shifts": [[f"{k}/{m}", "0"] for k in range(m)]})
            built = _count_fractions(monkeypatch)
            rc = main(["analyze", doc, "--similarity", '{"z":[1,0],"scale":"4/2"}'])
            monkeypatch.undo()
            assert rc == EXIT_OK and json.loads(capsys.readouterr().out)["m"] == m
            counts.append(len(built))
        assert counts[0] <= 6 and counts == counts[:1] * 3


class TestTable:
    def test_unknown_table(self):
        assert main(["table", "t9"]) == EXIT_INPUT

    def test_t1_explicit_direction(self, capsys):
        rc = main(["table", "t1", "--z", "1,2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "den·2Z" in out and "den·(1+2Z)" in out

    def test_bad_direction(self):
        assert main(["table", "t1", "--z", "2,4"]) == EXIT_INPUT

    @pytest.mark.parametrize("name", sorted(cli.TABLE_SPECS))
    def test_warm_table_builds_no_fraction(self, name, monkeypatch, capsys):
        # The presets and each --z are integer pairs, each trial map
        # x ↦ (z/q)·x is an integer triple and every cell is written from
        # integers, so a request, reflections and empty rows included, builds
        # no Fraction and no FieldElem, even with the preset built afresh.
        # One z meets one class, so one class label is formatted.
        _, _, ring = cli.TABLE_SPECS[name]
        zs = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
              if math.gcd(a, b) == 1 and FieldElem(ring, a, b).norm() <= 13]
        built = _count_fractions(monkeypatch)
        elems, labels = [], []
        monkeypatch.setattr(FieldElem, "__post_init__", lambda x: elems.append(x))
        label = cli.class_label
        monkeypatch.setattr(cli, "class_label", lambda *a: labels.append(a) or label(*a))
        for a, b in zs:
            preset.cache_clear()
            assert main(["table", name, f"--z={a},{b}"]) == EXIT_OK
            assert capsys.readouterr().out.count("\n") >= 2
        assert built == [] and elems == []
        assert labels == [(ring, cli.class_of(ring, a, b)) for a, b in zs]

    def test_table_makes_no_hermite_reduction(self, monkeypatch, capsys):
        # The sweep reads its frame R + (z/q)R in closed form and the presets
        # are built from their Hermite bases, so no table request, the preset
        # built afresh, reduces a lattice.
        from simiso import lattices

        calls = []
        hnf = lattices._hnf_columns
        monkeypatch.setattr(lattices, "_hnf_columns", lambda cols: calls.append(cols) or hnf(cols))
        zs = [(a, b) for a in range(-4, 5) for b in range(-4, 5) if math.gcd(a, b) == 1]
        for name in sorted(cli.TABLE_SPECS):
            for a, b in zs:
                preset.cache_clear()
                assert main(["table", name, f"--z={a},{b}"]) == EXIT_OK
                assert capsys.readouterr().out.count("\n") >= 2
        assert calls == []

    @pytest.mark.parametrize("name, z", [("t1", (2, 4)), ("t2", (3, 0)), ("t4", (0, 0))])
    def test_table_rows_refuses_a_non_primitive_z(self, name, z):
        # Over Z[i] a z with a and b even falls in class (0, 0), which no table
        # lists; it is refused as over Z[ω], not dropped.
        message = "is not primitive" if any(z) else "must be nonzero"
        with pytest.raises(ValueError, match=f"^direction element .*{message}$"):
            cli.table_rows(name, explicit=[(1, 0), z])

    def test_class_labels_once_per_class_met(self, monkeypatch, capsys):
        labels = []
        label = cli.class_label
        monkeypatch.setattr(cli, "class_label", lambda *a: labels.append(a) or label(*a))
        zs = ["1,0", "3,1", "1,1", "2,1", "4,1"]  # a + b ≡ 1, 1, 2, 0, 2 (mod 3)
        assert main(["table", "t2", *(f"--z={z}" for z in zs)]) == EXIT_OK
        assert labels == [(EISENSTEIN, 1), (EISENSTEIN, 2), (EISENSTEIN, 0)]
        rows = capsys.readouterr().out.splitlines()[1:]
        # Classes in the table's order, each class's z in the order given.
        assert list(dict.fromkeys(row.split(",")[2] for row in rows)) == [
            "1", "3+ω", "1+ω", "4+ω", "2+ω"]

    @pytest.mark.parametrize("z", ["1_0,1", " 2, 1", "١,0", "1,2,3", "1", "1.0,2", ""])
    def test_z_outside_the_integer_grammar(self, z, capsys):
        # int() reads the first three as 10+i, 2+i and 1; the README's grammar
        # is an optional sign and ASCII digits.
        assert main(["table", "t1", "--z", z]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: bad --z {z!r}: ")

    @pytest.mark.parametrize("samples", ["-1", "0", str(MAX_SAMPLES + 1)])
    def test_samples_out_of_range(self, samples, capsys):
        assert main(["table", "t2", "--samples", samples]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and str(MAX_SAMPLES) in captured.err

    @pytest.mark.parametrize("samples", [1, MAX_SAMPLES])
    def test_samples_at_the_bounds(self, samples, capsys):
        assert main(["table", "t2", "--samples", str(samples)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len({line.split(",")[2] for line in lines[1:]}) == 3 * samples

    def test_samples_are_the_first_by_norm(self):
        # The box [1, 80) × [0, 80) holds every primitive z of the sector
        # a ≥ 1, b ≥ 0 with N(z) < 4,800 over both rings, so its first z by
        # (norm, a, b) are the first of the sector while their norm stays below.
        for ring, classes in ((GAUSSIAN, cli.GAUSSIAN_CLASSES),
                              (EISENSTEIN, cli.EISENSTEIN_CLASSES)):
            box = sorted((FieldElem(ring, a, b) for a in range(1, 80) for b in range(80)
                          if math.gcd(a, b) == 1), key=lambda z: (z.norm(), z.a, z.b))
            for key in classes:
                first = [(z.a, z.b) for z in box if cli.class_of(ring, z.a, z.b) == key]
                first = first[:MAX_SAMPLES]
                assert FieldElem(ring, *first[-1]).norm() < 4_800
                for count in range(1, MAX_SAMPLES + 1):
                    assert cli.sample_directions(ring, key, count) == first[:count]

    @pytest.mark.parametrize("name, zs", [
        ("t4", ["1,0"]), ("t5", ["2,1"]), ("t5", ["1,0", "1,1", "2,1", "3,1"]),
    ])
    def test_formats_each_label_once(self, name, zs, monkeypatch, capsys):
        # The m shift labels are formatted once per packing and z once per
        # direction, however many τ pairs the rows print.
        calls = []
        text = FieldElem.__str__
        monkeypatch.setattr(FieldElem, "__str__", lambda x: calls.append(x) or text(x))
        assert main(["table", name, *(f"--z={z}" for z in zs)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) > len(zs)
        assert len(calls) <= preset(cli.TABLE_SPECS[name][0]).m + len(zs)

    @pytest.mark.parametrize("argv", list(_table_commands()), ids=lambda argv: argv[1])
    def test_csv_rows_match_json_rows(self, argv, capsys):
        assert main([*argv, "--format=json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format=csv"]) == EXIT_OK
        header, *lines = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == list(cli.TABLE_FIELDS)
        assert lines == [[row[field] for field in header] for row in rows]
        assert len(rows) >= len(argv) - 2

    def test_deterministic(self, capsys):
        main(["table", "t3", "--samples", "2"])
        first = capsys.readouterr().out
        main(["table", "t3", "--samples", "2"])
        assert capsys.readouterr().out == first


class TestVerify:
    def test_similarity_agreement(self, capsys):
        rc = main(
            ["verify", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2"}']
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] and doc["oracle_index"] == "4"

    @pytest.mark.parametrize("scale, keys", [
        ("2", ["engine_accepted", "oracle_contained", "agree", "oracle_index", "beta_squared"]),
        ("1", ["engine_accepted", "oracle_contained", "agree", "counterexample"]),
    ])
    def test_similarity_certifies_once(self, scale, keys, monkeypatch, capsys):
        # index_by_counting reads its counts from the certification, and a
        # refusal carries the counterexample, so the command runs the
        # containment check once.
        calls = []
        certify = oracle._certify
        monkeypatch.setattr(oracle, "_certify", lambda *a: calls.append(a) or certify(*a))
        sim = json.dumps({"z": [1, 1], "scale": scale})
        rc = main(["verify", "--preset", "hex", "--similarity", sim])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK and doc["agree"] and set(doc) == set(keys)
        assert len(calls) == 1
        if "counterexample" in doc:
            with pytest.raises(oracle.NotContained) as refused:
                certify(*calls[0])
            assert doc["counterexample"] == str(refused.value.point)

    @pytest.mark.parametrize("field, value", [
        ("n", frozenset({F(2)})), ("n", frozenset({F(1), F(2)})), ("tau", ((0, 1), (1, 0))),
    ])
    def test_similarity_compares_n_and_tau(self, field, value, monkeypatch, capsys):
        # Both sides accept w = 2(1+ω) on hex with n = 1 and τ = {(0, 0), (1, 1)};
        # an oracle that counts another n or τ is a discrepancy.
        found = oracle.index_by_counting
        monkeypatch.setattr(oracle, "index_by_counting",
                            lambda *a: dataclasses.replace(found(*a), **{field: value}))
        rc = main(["verify", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2"}'])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_DISCREPANCY
        assert doc["engine_accepted"] and doc["oracle_contained"] and doc["agree"] is False

    @pytest.mark.parametrize("argv, name, value", [
        (["--preset", "hex", "--direction", '{"z":[1,1]}'], "scal_set_bruteforce",
         lambda *a: set()),
        (["--random", "2"], "index_by_counting",
         lambda *a: oracle.Correspondence(F(0), frozenset(), ())),
    ], ids=["direction", "random"])
    def test_discrepancy_exits_3_in_every_mode(self, argv, name, value, tmp_path, monkeypatch):
        # Each mode's document goes through one writer, --out included, and
        # its "agree" alone decides exit 0 or 3.
        monkeypatch.setattr(oracle, name, value)
        out = tmp_path / "verify.json"
        assert main(["verify", *argv, "--out", str(out)]) == EXIT_DISCREPANCY
        assert json.loads(out.read_text(encoding="utf-8"))["agree"] is False

    def test_direction_sweep(self, capsys):
        rc = main(
            [
                "verify",
                "--preset",
                "hex",
                "--direction",
                '{"z":[1,1]}',
                "--p-bound",
                "9",
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["bruteforce"] == ["2", "3", "5", "6", "8", "9"]
        assert doc["engine"] == doc["bruteforce"]

    @pytest.mark.parametrize(
        "name, z, conj", [("hex", (9, 2), False), ("hex-shifted", (9, 1), True)]
    )
    def test_direction_sweep_large_norm(self, name, z, conj, capsys):
        packing = preset(name)
        d = Direction(RingElem(packing.ring, *z), conj)
        assert d.norm() >= 50
        direction = json.dumps({"z": list(z), "conj": conj})
        rc = main(
            ["verify", "--preset", name, "--direction", direction,
             "--p-bound", "12", "--q-bound", "2"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        brute = oracle.scal_set_bruteforce(packing, d, 12, 2)
        assert doc["engine"] == doc["bruteforce"] == sorted(str(r) for r in brute)
        assert 0 < len(brute) < 12

    def test_nonring_direction_sweep(self, capsys):
        rc = main(
            [
                "verify",
                "--preset",
                "ex34",
                "--direction",
                '{"z":[0,1]}',
                "--p-bound",
                "4",
                "--q-bound",
                "2",
            ]
        )
        assert rc == EXIT_OK

    def test_lift_over_the_cap_exits_2(self, capsys):
        doc = json.dumps(
            {"ring": "gaussian", "basis": [["1000", "0"], ["0", "1"]], "shifts": [["0", "0"]]}
        )
        rc = main(["verify", doc, "--direction", '{"z":[0,1]}'])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--random", "-5"],
            [f"--random={MAX_RANDOM + 1}"],
            ["--p-bound=0"],
            [f"--p-bound={MAX_BOUND + 1}"],
            ["--q-bound=-1"],
            [f"--q-bound={MAX_BOUND + 1}"],
            ["--random", "-1"],
            ["--q-bound=0"],
        ],
    )
    def test_counts_and_bounds_out_of_range(self, argv, capsys):
        rc = main(["verify", "--preset", "hex", "--direction", '{"z":[1,1]}', *argv])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("random", 0),
            ("random", MAX_RANDOM),
            ("p_bound", 1),
            ("p_bound", MAX_BOUND),
            ("q_bound", 1),
            ("q_bound", MAX_BOUND),
        ],
    )
    def test_counts_and_bounds_at_the_ends(self, flag, value, monkeypatch):
        # The sweeps themselves are stubbed: at the upper ends they would run
        # the brute-force oracle thousands of times.
        seen = []
        monkeypatch.setattr(
            cli, "_verify_random", lambda args: seen.append(args) or {"agree": True}
        )
        monkeypatch.setattr(
            cli, "_verify_direction", lambda packing, args: seen.append(args) or {"agree": True}
        )
        option = "--" + flag.replace("_", "-")
        # --random draws its own cases, so it takes no packing or direction.
        case = [] if flag == "random" and value else ["--preset", "hex", "--direction", '{"z":[1,1]}']
        rc = main(["verify", *case, f"{option}={value}"])
        assert rc == EXIT_OK
        assert getattr(seen[0], flag) == value

    def test_oracle_estimate_counts_certified_points(self, monkeypatch):
        # An accepted s: certify_subpacking tests every representative, each
        # against up to m components, so its walk is m times the points.
        # Each tested point lies in exactly one component x_j + Γ, so the
        # membership tests that succeed count the points.
        packing = preset("hex")
        s = parse_similarity_doc({"z": [1, 1], "scale": "2"}, EISENSTEIN)
        tested = []
        original = Lattice.contains
        monkeypatch.setattr(
            Lattice, "contains", lambda self, x: original(self, x) and not tested.append(x)
        )
        assert oracle.certify_subpacking(packing, s)[0]
        points = packing.m * len(tested)
        monkeypatch.setattr(oracle, "MAX_POINTS", points)
        assert oracle.certify_subpacking(packing, s)[0]
        monkeypatch.setattr(oracle, "MAX_POINTS", points - 1)
        with pytest.raises(ValueError, match=f"about {points} points; at most {points - 1} "):
            oracle.certify_subpacking(packing, s)

    def test_oracle_budget_bounds_the_estimate(self, monkeypatch, capsys):
        # verify --similarity exits 2 exactly when the oracle's walk, which
        # the closed form of references.oracle_points counts, is over the cap.
        argv = ["verify", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2"}']
        d = Direction(RingElem(EISENSTEIN, 1, 1))
        points = oracle_points(preset("hex"), d, [F(2)])
        tested = []
        original = Lattice.contains
        with monkeypatch.context() as patch:
            patch.setattr(
                Lattice, "contains", lambda self, x: original(self, x) and not tested.append(x)
            )
            oracle.index_by_counting(preset("hex"), d.similarity(F(2)))
        assert points == preset("hex").m * len(tested)
        monkeypatch.setattr(oracle, "MAX_POINTS", points)
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(oracle, "MAX_POINTS", points - 1)
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.endswith(f"at most {points - 1} are allowed\n")

    @pytest.mark.parametrize("preset_name, sim", [
        ("hex", '{"z":[1,1],"scale":"2"}'),
        ("ex34", '{"z":[0,1],"scale":"1"}'),
    ])
    def test_similarity_builds_each_image_lattice_once(self, preset_name, sim, monkeypatch, capsys):
        # One sΓ for the oracle's bound, certification and count together;
        # the engine's frame spans Γ and the images of Γ's basis, and the
        # oracle's Γ, sΓ and D·Γ come from one frame.
        calls, frames = [], []
        image_lattice, period_frame = Similarity.image_lattice, oracle._period_frame
        monkeypatch.setattr(Similarity, "image_lattice",
                            lambda s, gamma: calls.append(s) or image_lattice(s, gamma))
        monkeypatch.setattr(oracle, "_period_frame", lambda *a: frames.append(a) or period_frame(*a))
        rc = main(["verify", "--preset", preset_name, "--similarity", sim])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK and doc["oracle_contained"] and doc["agree"]
        assert len(calls) == 1 and len(frames) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from((GAUSSIAN, EISENSTEIN)),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3)),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda ab: math.gcd(*ab) == 1),
        st.booleans(),
    )
    def test_direction_estimate_matches_per_ratio(self, ring, shape, z, conjugate):
        # The closed form of references.oracle_points, summed over every p/q
        # within the bounds, is the cap at which scal_set_bruteforce still
        # walks and below which it refuses.  The walks themselves are
        # stubbed: only the bound is under test.
        h00, h11, h01, den = shape
        gamma = Lattice.from_generators(ring, [(F(h00, den), F(0)), (F(h01, den), F(h11, den))])
        packing = PointPacking(gamma, (FieldElem.zero(ring), FieldElem(ring, F(1, 7), F(0))))
        d = Direction(RingElem(ring, *z), conjugate)
        ratios = [F(p, q) for q in range(1, 6) for p in range(1, 8) if math.gcd(p, q) == 1]
        points = oracle_points(packing, d, ratios)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_certify", lambda *args: {})
            patch.setattr(oracle, "MAX_POINTS", points)
            assert oracle.scal_set_bruteforce(packing, d, 7, 5) == set(ratios)
            patch.setattr(oracle, "MAX_POINTS", points - 1)
            with pytest.raises(ValueError, match=f"about {points} points"):
                oracle.scal_set_bruteforce(packing, d, 7, 5)

    def test_random_sweep(self, capsys):
        rc = main(["verify", "--random", "25", "--seed", "3"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] and doc["disagreements"] == []

    def test_missing_mode(self):
        assert main(["verify", "--preset", "hex"]) == EXIT_INPUT


class TestRender:
    def test_accepted_similarity(self, tmp_path):
        out = tmp_path / "fig.svg"
        rc = main(
            [
                "render",
                "--preset",
                "rect12",
                "--similarity",
                '{"z":[1,2],"scale":"1"}',
                "--window=-4,-4,4,4",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<?xml") and "<svg" in text and "circle" in text

    def test_rejected_without_packing_only(self, tmp_path, capsys):
        rc = main(
            [
                "render",
                "--preset",
                "hex",
                "--similarity",
                '{"z":[1,1],"scale":"1"}',
                "--window=-3,-3,3,3",
                "--out",
                str(tmp_path / "fig.svg"),
            ]
        )
        assert rc == EXIT_REJECTED

    def test_image_lattice_built_once_for_the_figure(self, tmp_path, monkeypatch):
        calls = []
        image_lattice = Similarity.image_lattice
        monkeypatch.setattr(Similarity, "image_lattice",
                            lambda s, gamma: calls.append(s) or image_lattice(s, gamma))
        rc = main(["render", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2"}',
                   "--window=-3,-3,3,3", "--out", str(tmp_path / "fig.svg")])
        # One sΓ for render_svg's bound and figure; check_similarity's frame
        # spans the images of Γ's basis and builds none.
        assert rc == EXIT_OK and len(calls) == 1

    @pytest.mark.parametrize("name, similarity", ACCEPTED_PER_PRESET)
    def test_only_parsing_builds_fractions(self, name, similarity, tmp_path, monkeypatch):
        # The window corners, the scale and w are read as integers, and the
        # decision, the cap and the figure run on them, with a similarity or
        # without.  The preset is built, and cached, first.
        preset(name)
        built = _count_fractions(monkeypatch)
        for drawn in (["--similarity", similarity], ["--packing-only"]):
            rc = main(["render", "--preset", name, *drawn, "--window=-7/2,-3,9/2,4",
                       "--out", str(tmp_path / "fig.svg")])
            assert rc == EXIT_OK and len(built) == 0

    def test_packing_only(self, tmp_path):
        out = tmp_path / "fig.svg"
        rc = main(
            [
                "render",
                "--preset",
                "hex",
                "--window=-3,-3,3,3",
                "--packing-only",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            main(
                [
                    "render",
                    "--preset",
                    "hex",
                    "--similarity",
                    '{"z":[1,1],"scale":"2"}',
                    "--window=-3,-3,3,3",
                    "--out",
                    str(path),
                ]
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_window_below_float_resolution(self, monkeypatch, capsys):
        # Positive exact area, but the corners round to one float point: the
        # figure would divide by its zero extent, so render_svg refuses it
        # before it walks any point.
        drawn = []
        monkeypatch.setattr(render, "points_in_window", lambda *a: drawn.append(a) or [])
        tiny = "1000000000000000001/1000000000000000000"
        rc = main(["render", "--preset", "hex", "--packing-only", f"--window=1,1,{tiny},{tiny}"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT and captured.out == "" and drawn == []
        assert captured.err == ("error: window is below float resolution: "
                                "its corners round to one point\n")

    def test_bad_window(self):
        rc = main(
            [
                "render",
                "--preset",
                "hex",
                "--window",
                "3,3,-3,-3",
                "--packing-only",
            ]
        )
        assert rc == EXIT_INPUT


    @pytest.mark.parametrize(
        "window, similarity, ok",
        [
            # hex: m = 2 over b00 = b11 = 1, so 2·(199 + 1)·(249 + 1) = 100,000.
            ("0,0,249,199", None, True),
            ("0,0,249,200", None, False),
            ("0,0,250,199", None, False),
            # The image lattice 3·Z[ω] adds 2·(⌊149/3⌋ + 1)·(⌊299/3⌋ + 1):
            # 90,000 + 10,000.
            ("0,0,299,149", '{"z":[1,0],"scale":"3"}', True),
            ("0,0,299,150", '{"z":[1,0],"scale":"3"}', False),
        ],
    )
    def test_circle_cap(self, window, similarity, ok, monkeypatch, capsys):
        # render_svg bounds its own figure: a window above the cap walks no point.
        drawn = []
        monkeypatch.setattr(render, "points_in_window", lambda *a: drawn.append(a) or [])
        argv = ["render", "--preset", "hex", f"--window={window}"]
        argv += ["--similarity", similarity] if similarity else ["--packing-only"]
        rc = main(argv)
        if ok:
            assert rc == EXIT_OK and drawn
        else:
            assert rc == EXIT_INPUT and not drawn
            assert str(MAX_RENDER_POINTS) in capsys.readouterr().err

    def test_dense_row_refused_before_enumeration(self, monkeypatch, capsys):
        # Γ = ⟨10⁻³⁰, 10³⁰·u⟩ over an 8 × 8 window: its area · m / det Γ is 64,
        # but the one row in the window holds 8·10³⁰ points of Γ.
        drawn = []
        monkeypatch.setattr(render, "points_in_window", lambda *a: drawn.append(a) or [])
        doc = json.dumps({"ring": "gaussian", "basis": [[f"1/{10**30}", "0"], ["0", str(10**30)]],
                          "shifts": [["0", "0"]]})
        rc = main(["render", doc, "--packing-only", "--window=-4,-4,4,4"])
        assert rc == EXIT_INPUT and not drawn
        assert str(MAX_RENDER_POINTS) in capsys.readouterr().err

    def test_rejected_similarity_exits_1_over_any_window(self, monkeypatch, capsys):
        # The decision runs before the figure is bounded: a rejected
        # similarity exits 1 even where its window is above the cap.
        drawn = []
        monkeypatch.setattr(render, "points_in_window", lambda *a: drawn.append(a) or [])
        rc = main(["render", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"1"}',
                   "--window=0,0,1000,1000"])
        assert rc == EXIT_REJECTED and not drawn
        assert capsys.readouterr().err.startswith("similarity rejected")


class TestPeriods:
    def test_checkerboard(self, capsys):
        rc = main(["periods", "--preset", "ex22"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["components_before"] == 2 and doc["components_after"] == 1
        assert doc["covolume_ratio"] == "2"

    def test_hexagonal_unchanged(self, capsys):
        rc = main(["periods", "--preset", "hex"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["components_before"] == doc["components_after"] == 2

    def test_pure_lattice(self, capsys):
        rc = main(
            ["periods", json.dumps({"ring": "gaussian", "shifts": [["0", "0"]]})]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["components_after"] == 1 and doc["covolume_ratio"] == "1"


class TestJsonDeterminism:
    def test_analyze_bytes_stable(self, capsys):
        args = ["analyze", "--preset", "rect12", "--similarity", '{"z":[2,2],"scale":"1"}']
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
        # 2+2i decomposes to β = 2√2 along 1+i.
        assert json.loads(first)["beta"] == "2·√2"

    @given(_JSON_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_writer_is_json_dumps(self, doc):
        assert to_json(doc) == json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [1.5, (1, 2), {1: "a"}, {"a": [0.0]}, [{"a": (None,)}]])
    def test_writer_refuses_other_types(self, doc):
        with pytest.raises(TypeError):
            to_json(doc)


class TestCommandLine:
    """A command line the README does not read exits 2 with one line
    `error: …` on stderr and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["table", "t1", "--samples", "x"],  # not an int
        ["table", "t1", "--format", "xml"],  # not a choice
        ["periods", "--preset", "hex", "--bogus"],  # unknown flag
        [],  # no subcommand
    ])
    def test_parser_errors_print_one_line(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_exits_2(self, capsys):
        # read(MAX_DOC_BYTES + 1) returns, where read() ran out of memory.
        assert main(["periods", "/dev/zero"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a document has at most {MAX_DOC_BYTES} bytes "
                                "(cli.MAX_DOC_BYTES)\n")

    @pytest.mark.parametrize("inline", [False, True], ids=["file", "inline"])
    def test_document_size_cap(self, inline, tmp_path, capsys):
        # A document padded with spaces to exactly the cap is read; one byte
        # more exits 2 with one line, inline or from a file.
        doc = '{"ring":"gaussian","shifts":[["0","0"],["1/2","0"]]}'
        for size, code in ((MAX_DOC_BYTES, EXIT_OK), (MAX_DOC_BYTES + 1, EXIT_INPUT)):
            text = doc + " " * (size - len(doc))
            path = tmp_path / "padded.json"
            path.write_text(text, encoding="utf-8")
            assert main(["periods", text if inline else str(path)]) == code
            captured = capsys.readouterr()
            if code == EXIT_OK:
                assert json.loads(captured.out)["components_before"] == 2
            else:
                assert captured.out == "" and captured.err.count("\n") == 1
                assert "cli.MAX_DOC_BYTES" in captured.err

    @pytest.mark.parametrize("text", [
        "\ufeff" + HEX_DOC,  # json.loads refuses a byte-order mark
        '{"ring": "gaussian",\r\n "shifts": [["0", "0"]],\r\n}',
        '{"ring": "gaussian",\r "shifts": [["0", "0"]],\r}',
    ], ids=["bom", "crlf", "cr"])
    def test_file_json_errors_read_as_text_mode(self, text, tmp_path, capsys):
        # A file is read as bytes under the cap, then as text mode reads it,
        # with universal newlines, so a JSON error names the same place.
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as want:
            json.loads(fh.read())
        assert main(["periods", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: invalid JSON: {want.value}\n"

    _PACKING_REQUIRED = ["packing document (JSON or path); this or --preset is required",
                         "use a built-in packing; this or a packing document is required"]

    @pytest.mark.parametrize("command, flags, required", [
        ("analyze", ["--preset", "--out", "--similarity"], _PACKING_REQUIRED),
        ("table", ["--samples", "--z", "--format", "--out"], []),
        ("render", ["--preset", "--out", "--similarity", "--window", "--packing-only"],
         [*_PACKING_REQUIRED, "similarity document; this or --packing-only is required",
          "draw L alone; this or --similarity is required"]),
        ("verify", ["--preset", "--out", "--similarity", "--direction", "--p-bound", "--q-bound",
                    "--random", "--seed"], []),
        ("periods", ["--preset", "--out"], _PACKING_REQUIRED),
    ], ids=["analyze", "table", "render", "verify", "periods"])
    def test_help_exits_0(self, command, flags, required, capsys):
        # Where one of a pair of inputs is required, each one's help says so;
        # verify's packing is optional, as --random takes none.
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert re.findall(r"(?m)^  (--[a-z-]+)", captured.out) == flags
        text = " ".join(captured.out.split())
        assert [line for line in required if line not in text] == []
        assert ("is required" in text) == bool(required)

    @pytest.mark.parametrize("prefix, flag, lo, hi", [
        (["table", "t1"], "--samples", 1, MAX_SAMPLES),
        (["verify"], "--p-bound", 1, MAX_BOUND),
        (["verify"], "--q-bound", 1, MAX_BOUND),
        (["verify"], "--random", 0, MAX_RANDOM),
    ], ids=["samples", "p-bound", "q-bound", "random"])
    def test_counts_are_bounded_by_the_parser(self, prefix, flag, lo, hi):
        # One below and one above the range are refused while parsing, so no
        # run_* reads a count out of range; text that is not an integer keeps
        # argparse's own wording.
        parser = cli.build_parser()
        dest = flag[2:].replace("-", "_")
        for value in (lo, hi):
            assert getattr(parser.parse_args([*prefix, flag, str(value)]), dest) == value
        message = f"^argument {flag}: must be between {lo} and {hi}$"
        for value in (lo - 1, hi + 1):
            with pytest.raises(InputError, match=message):
                parser.parse_args([*prefix, flag, str(value)])
        with pytest.raises(InputError, match=f"^argument {flag}: invalid int value: 'x'$"):
            parser.parse_args([*prefix, flag, "x"])

    @pytest.mark.parametrize("argv, first, second", [
        (["analyze", HEX_DOC, "--preset", "hex", "--similarity", "{}"], "--preset", "packing"),
        (["analyze", "missing.json", "--preset", "hex", "--similarity", "{}"],
         "--preset", "packing"),
        (["periods", "--preset", "hex", ""], "packing", "--preset"),
        (["table", "t1", "--samples", "2", "--z", "1,0"], "--z", "--samples"),
        (["table", "t1", "--z", "1,0", "--samples", "2"], "--samples", "--z"),
        (["render", "--preset", "hex", "--packing-only", "--similarity", "", "--window=0,0,1,1"],
         "--similarity", "--packing-only"),
        (["verify", "--direction", "{}", "--similarity", "{}"], "--similarity", "--direction"),
    ], ids=["document", "missing-document", "empty-document", "samples-then-z", "z-then-samples",
            "packing-only", "direction"])
    def test_parser_refuses_conflicts(self, argv, first, second):
        # Each pair is refused while parsing, before any document is read.
        message = f"^argument {first}: not allowed with argument {second}$"
        with pytest.raises(InputError, match=message):
            cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["analyze", HEX_DOC, "--preset", "hex", "--similarity", '{"z":[1,1]}'],
        ["render", "--preset", "hex", "--packing-only", "--similarity", '{"z":[1,1]}',
         "--window=-1,-1,1,1"],
        ["verify", "--preset", "hex", "--similarity", '{"z":[1,1]}', "--direction", '{"z":[1,1]}'],
        ["verify", "--random", "3", "--preset", "hex"],
        ["analyze", "missing.json", "--preset", "hex", "--similarity", '{"z":[1,1]}'],
        ["table", "t1", "--samples", "2", "--z", "1,0"],
    ], ids=["document-and-preset", "packing-only-and-similarity",
            "similarity-and-direction", "random-and-packing", "missing-document-and-preset",
            "default-samples-and-z"])
    def test_conflicting_inputs_exit_2(self, argv, capsys):
        # Each input alone is read; together one of them would be ignored.
        # The conflict is named before any document is opened, and a value
        # equal to a flag's default (--samples 2) is given, not left out.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "cannot read" not in captured.err


    @pytest.mark.parametrize("argv", [
        ["table", "t1", "--z", "1,2", "--samples", "5"],
        ["verify", "--preset", "hex", "--similarity", '{"z":[1,1]}', "--p-bound", "5"],
        ["verify", "--random", "3", "--q-bound", "2"],
        ["verify", "--preset", "hex", "--similarity", '{"z":[1,1]}', "--seed", "3"],
    ], ids=["samples-with-z", "p-bound-without-direction", "q-bound-without-direction",
            "seed-without-random"])
    def test_flags_of_another_mode_exit_2(self, argv, capsys):
        # Each flag is read only in one mode; in another it would be dropped.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"2"}', "--out", ""],
        ["verify", "--preset", "hex", "--similarity", "", "--direction", '{"z":[1,1]}'],
        ["render", "--preset", "hex", "--packing-only", "--similarity", "",
         "--window=-1,-1,1,1"],
        ["periods", "", "--preset", "hex"],
        ["periods", ""],
        ["render", "--preset", "hex", "--similarity", "", "--window=-1,-1,1,1"],
    ], ids=["analyze-out", "verify-similarity-and-direction", "render-packing-only-and-similarity",
            "periods-document-and-preset", "periods-document", "render-similarity"])
    def test_empty_string_is_given_not_absent(self, argv, capsys):
        # An empty path or document is an input that cannot be read, not a
        # flag left out: it exits 2 rather than being ignored.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, key", [
        (["analyze", '{"ring":"gaussian","ring":"eisenstein","shifts":[["0","0"]]}',
          "--similarity", '{"z":[1,1]}'], "ring"),
        (["analyze", "--preset", "hex", "--similarity", '{"z":[1,1],"z":[2,1]}'], "z"),
        (["verify", "--preset", "hex", "--direction", '{"z":[1,1],"conj":true,"conj":false}'],
         "conj"),
        (["periods", '{"ring":"gaussian","shifts":[["0","0"]],"shifts":[["0","0"]]}'], "shifts"),
    ], ids=["packing-ring", "similarity-z", "direction-conj", "packing-shifts"])
    def test_repeated_key_exits_2(self, argv, key, capsys):
        # json.loads keeps a repeated key's last value; the documents refuse it.
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: repeated key {key!r} in a JSON object\n"

    @pytest.mark.parametrize("argv, defaults", [
        (["table", "t2"], ["--samples", "2"]),
        (["verify", "--preset", "hex", "--direction", '{"z":[1,1]}'],
         ["--p-bound", "9", "--q-bound", "1"]),
        (["verify", "--random", "5"], ["--seed", "0"]),
    ], ids=["table", "verify-direction", "verify-random"])
    def test_left_out_flags_take_their_defaults(self, argv, defaults, capsys):
        assert main(argv) == EXIT_OK
        left_out = capsys.readouterr()
        assert main(argv + defaults) == EXIT_OK
        assert capsys.readouterr() == left_out


class TestInternalErrors:
    def test_internal_error_exits_4(self, monkeypatch, capsys):
        # No input reaches a division by zero, so one is an engine fault too.
        for fault, line in ((RuntimeError("guard failed\nsecond line"),
                             "RuntimeError: guard failed second line"),
                            (ZeroDivisionError("division by zero"),
                             "ZeroDivisionError: division by zero")):
            def broken(packing, s):
                raise fault

            monkeypatch.setattr(cli.packings, "check_similarity", broken)
            rc = main(["analyze", "--preset", "hex", "--similarity", '{"z":[1,1]}'])
            assert rc == EXIT_INTERNAL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: internal: {line}\n"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(where, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    assert main(["periods", "--preset", "hex", "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "hex", "--similarity",
         json.dumps({"z": [10**MAX_RATIONAL_CHARS, 1]})],
        ["analyze", "--preset", "hex", "--similarity", json.dumps({"z": [1, -(10**4000)]})],
        ["verify", "--preset", "hex", "--direction",
         json.dumps({"z": [-(10**MAX_RATIONAL_CHARS), 1]})],
        ["table", "t2", "--z", f"{10**MAX_RATIONAL_CHARS},1"],
        ["table", "t2", "--z", "1," + "0" * 4000 + "1"],
    ],
    ids=["analyze-41-digits", "analyze-4001-digits", "direction-41-digits",
         "table-41-digits", "table-4002-chars"],
)
def test_z_digits_refused_before_the_engine(argv, monkeypatch, capsys):
    def reached(*args):
        raise RuntimeError("the engine ran")

    for name in ("check_similarity", "scal_set_packing", "scal_classes_by_tau"):
        monkeypatch.setattr(cli.packings, name, reached)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"at most {MAX_RATIONAL_CHARS} " in captured.err


def test_z_digits_at_the_bound_read():
    big = 10**MAX_RATIONAL_CHARS - 1
    assert parse_direction_doc({"z": [big, 1]}, EISENSTEIN).z == FieldElem(EISENSTEIN, big, 1)
    s = parse_similarity_doc({"z": [-big, 1]}, GAUSSIAN)
    assert s.w == FieldElem(GAUSSIAN, -big, 1)


SRC = str(Path(cli.__file__).resolve().parents[1])
SHIFTS_997 = json.dumps(
    {"ring": "gaussian", "shifts": [[f"{i}/997", "0"] for i in range(64)]}
)


@pytest.mark.parametrize(
    "argv, code, out",
    [
        # Huge N(z) along a reflection: the Scal solve tries q ≤ m only.
        (["table", "t3", "--z", "1000000001,1"], EXIT_OK,
         'den·Z,"{(0,0),((2+ω)/3,0)}"'),
        (["analyze", json.dumps({"ring": "gaussian",
                                 "shifts": [[f"{i}/4001", "0"] for i in range(65)]}),
          "--similarity", '{"z":[1,0]}'], EXIT_INPUT, ""),
        (["render", "--preset", "hex", "--packing-only",
          "--window=-5000,-5000,5000,5000"], EXIT_INPUT, ""),
        # Γ = ⟨10³⁰, 10⁻³⁰·u⟩ has det 1, but 8·10³⁰ rows cross the window.
        (["render", json.dumps({"ring": "gaussian",
                                "basis": [[str(10**30), "0"], ["0", f"1/{10**30}"]],
                                "shifts": [["0", "0"]]}),
          "--packing-only", "--window=-4,-4,4,4"], EXIT_INPUT, ""),
        # 64 shifts i/64 that merge into one component: m candidate periods.
        (["periods", json.dumps({"ring": "gaussian",
                                 "shifts": [[f"{i}/64", "0"] for i in range(64)]})],
         EXIT_OK, '"components_after": 1'),
        # The oracle would test about 4·10⁹ points, and about 8·10¹⁰ over the
        # bounds: both are refused before it runs.
        (["verify", SHIFTS_997, "--similarity", '{"z":[1,0],"scale":"1/997"}'],
         EXIT_INPUT, ""),
        (["verify", SHIFTS_997, "--direction", '{"z":[1,0]}',
          "--p-bound", "100", "--q-bound", "100"], EXIT_INPUT, ""),
        # Scal classes modulo L = 1000003·999983 ≈ 10¹², merged by CRT.
        (["verify", json.dumps({"ring": "gaussian", "shifts": [
            ["0", "0"], ["1/1000003", "0"], ["1/999983", "0"]]}),
          "--direction", '{"z":[1,0]}'], EXIT_OK, '"agree": true'),
        # s = 240·(1+ω) with 1+ω a unit: the period D·Γ is sΓ itself, so the
        # oracle tests m² = 4 points however large D is.
        (["verify", "--preset", "hex", "--similarity", '{"z":[1,1],"scale":"240"}'],
         EXIT_OK, '"agree": true'),
    ],
    ids=["huge-norm-reflection", "65-shifts", "giant-window", "skewed-basis-window",
         "64-shift-periods",
         "oracle-budget-similarity", "oracle-budget-direction", "scal-modulus-1e12",
         "oracle-large-period-few-points"],
)
def test_hostile_inputs_finish(argv, code, out):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "simiso.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == code
    assert out in proc.stdout and "Traceback" not in proc.stderr
    if code != EXIT_OK:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def test_scal_residue_cap_exits_2():
    # Shifts 0 and 1/p for the first 14 primes: 2¹⁴ Scal classes at q = 1.
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    doc = json.dumps({"ring": "gaussian", "shifts": [["0", "0"]] + [[f"1/{p}", "0"] for p in primes]})
    proc = subprocess.run(
        [sys.executable, "-m", "simiso.cli", "verify", doc, "--direction", '{"z":[1,0]}'],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=10,
    )
    assert proc.returncode == EXIT_INPUT and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(MAX_SCAL_RESIDUES) in proc.stderr


README = Path(cli.__file__).resolve().parents[2] / "README.md"


def _readme_commands():
    """Every simiso command line of the README's sh blocks, continuations joined."""
    blocks = README.read_text(encoding="utf-8").split("```sh\n")[1:]
    text = "".join(block.split("```")[0] for block in blocks).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.startswith("simiso ")]


@pytest.mark.parametrize(
    "line", _readme_commands(), ids=lambda line: " ".join(shlex.split(line)[1:3])
)
def test_readme_commands_exit_0(line, tmp_path, monkeypatch):
    # The file-based analyze line reads the README's own packing document.
    monkeypatch.chdir(tmp_path)
    doc = README.read_text(encoding="utf-8").split("```json\n")[1].split("```")[0]
    (tmp_path / "packing.json").write_text(doc, encoding="utf-8")
    (tmp_path / "similarity.json").write_text('{"z":[1,1],"scale":"2"}', encoding="utf-8")
    assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK


# Flags of every subcommand, read from the parser itself.
_SUBCOMMANDS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
_FLAGS = {
    name: sorted(o for act in sub._actions for o in act.option_strings
                 if o.startswith("--") and o != "--help")
    for name, sub in _SUBCOMMANDS.items()
}
_GOOD_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "2/3", "-5/7", "1/13", "3", "0.25"])
_RATIONALS = _GOOD_RATIONALS | st.sampled_from(
    ["1/0", "x", "1e3", "", "1_0", "1 /2", " 1/2 ", ".5", 1, 0.5, None])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_PAIR = st.lists(_GOOD_RATIONALS, min_size=2, max_size=2)
_Z = st.lists(st.integers(-4, 4), min_size=2, max_size=2)
# Well-formed documents, which may still be rejected (congruent shifts, z = 0).
_PACKING = st.fixed_dictionaries(
    {"ring": st.sampled_from([GAUSSIAN, EISENSTEIN]), "shifts": st.lists(_PAIR, min_size=1, max_size=3)},
    optional={"basis": st.lists(_PAIR, min_size=2, max_size=2)},
)
_SIMILARITY = st.fixed_dictionaries({"z": _Z}, optional={"scale": _GOOD_RATIONALS, "conj": st.booleans()})
_DIRECTION = st.fixed_dictionaries({"z": _Z}, optional={"conj": st.booleans()})
# Malformed ones, and text that is no JSON object.
_BAD = st.one_of(
    st.fixed_dictionaries(
        {"ring": st.sampled_from([GAUSSIAN, "cubic"]), "shifts": st.lists(st.lists(_RATIONALS, max_size=3), max_size=3)},
        optional={"basis": st.lists(st.lists(_RATIONALS, max_size=3), max_size=3)},
    ).map(json.dumps),
    st.fixed_dictionaries({"z": _JSON}, optional={"scale": _RATIONALS, "conj": _JSON}).map(json.dumps),
    st.dictionaries(st.sampled_from(["ring", "shifts", "basis", "z", "scale", "conj", "x"]),
                    _JSON, max_size=4).map(json.dumps),
    st.text(max_size=12).map(lambda t: "{" + t),
    st.sampled_from(["packing.json", "missing.json", '{"ring":' + "[" * 100_000 + "]" * 100_000 + "}"]),
)
_COUNTS = st.sampled_from(["-1", "0", "1", "3", "100", "101", "x"])
_VALUES = {
    "--preset": st.sampled_from(sorted(cli.PRESETS) + ["nope"]),
    "--similarity": _SIMILARITY.map(json.dumps) | _BAD,
    "--direction": _DIRECTION.map(json.dumps) | _BAD,
    "--window": st.sampled_from(["-3,-3,3,3", "0,0,1/2,5", "-1/3,0,2,2"])
    | st.lists(st.sampled_from(["-3", "0", "1/2", "3", "x", "1e1", "500", " 1", "1_0"]),
               min_size=3, max_size=5).map(",".join),
    "--samples": _COUNTS,
    "--z": st.sampled_from(["1,0", "2,1", "-3,2", "2,2", "0,0", "x", "1", "1_0,1", " 2, 1", "١,0"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--p-bound": _COUNTS,
    "--q-bound": _COUNTS,
    "--random": st.sampled_from([-1, 0, 1, 5, MAX_RANDOM + 1]).map(str),
    "--seed": st.sampled_from(["0", "7", "-2"]),
}


@st.composite
def _argv(draw, out):
    """A command line of one subcommand, with flags drawn from its own and
    --out drawn from the paths out."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t9"])))
    elif draw(st.booleans()):
        argv.append(draw(_PACKING.map(json.dumps) | _BAD))
    flags = [flag for flag in _FLAGS[command] if draw(st.integers(0, 2))]
    if draw(st.integers(0, 9)) == 0:
        flags.insert(draw(st.integers(0, len(flags))), "--bogus")
    for flag in flags:
        if flag in ("--packing-only", "--bogus"):
            argv.append(flag)
        elif flag == "--out":
            argv.append(f"--out={draw(st.sampled_from(out))}")
        else:
            argv.append(f"{flag}={draw(_VALUES[flag])}")
    return argv


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_main(data, tmp_path, monkeypatch):
    """Every command line exits 0–3 within 10 s with no traceback; 4 is a bug."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "packing.json").write_text(HEX_DOC, encoding="utf-8")
    argv = data.draw(_argv([tmp_path / "out.txt", tmp_path, tmp_path / "missing" / "x"]))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert time.perf_counter() - start < 10, argv
    assert code in (EXIT_OK, EXIT_REJECTED, EXIT_INPUT, EXIT_DISCREPANCY), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
