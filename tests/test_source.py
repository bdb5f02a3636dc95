"""Checks on the package source itself."""

import ast
from pathlib import Path

import simiso


def test_no_assert_statements():
    # python -O strips assert statements, so a guard written as one would
    # silently stop checking; guards raise explicitly instead.
    found = []
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
