"""Checks on the package source itself."""

import argparse
import ast
import importlib.util
import re
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


def test_source_parses_as_the_oldest_supported_python():
    # pyproject.toml's requires-python names the oldest Python simiso runs
    # on; syntax newer than it (except*, PEP 695 generics) must fail here
    # rather than on a user's interpreter.
    root = Path(simiso.__file__).parents[2]
    declared = re.search(r'requires-python = ">=3\.(\d+)"',
                         (root / "pyproject.toml").read_text(encoding="utf-8"))
    oldest = (3, int(declared.group(1)))
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=oldest)


def test_workflow_matches_the_repo():
    # The CI workflow is checked here against what it must agree with: its
    # oldest matrix Python is pyproject.toml's requires-python, it runs the
    # Tier-1 command that ROADMAP.md names, and its smoke step runs
    # perfbench/smoke.py on a Python of the matrix.
    root = Path(simiso.__file__).parents[2]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    roadmap = (root / "ROADMAP.md").read_text(encoding="utf-8")
    oldest = re.search(r'requires-python = ">=(3\.\d+)"', pyproject).group(1)
    matrix = re.findall(r'"(3\.\d+)"', re.search(r"python-version: \[(.*)\]", workflow).group(1))
    assert min(matrix, key=lambda v: int(v.split(".")[1])) == oldest
    steps = dict(re.findall(r"- name: (.+)\n((?:        .*\n)+)", workflow))
    runs = {name: re.findall(r"run: (.+)", body) for name, body in steps.items()}
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert [tier1] in runs.values()
    (smoke,) = [name for name, run in runs.items() if run == ["python3 perfbench/smoke.py"]]
    assert (root / "perfbench" / "smoke.py").is_file()
    assert re.search(r"if: matrix.python-version == '(3\.\d+)'", steps[smoke]).group(1) in matrix


def test_every_public_function_is_reached():
    # A public module-level function that nothing else in the package names
    # and that simiso does not export has no caller: delete it or export it.
    bodies = []  # every top-level statement of every module, with its file
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies += [(path.name, node) for node in tree.body]
    names = [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for _, node in bodies
    ]
    unreached = [
        f"{file}:{node.name}"
        for file, node in bodies
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in simiso.__all__
        and not any(
            node.name in used for (_, other), used in zip(bodies, names) if other is not node
        )
    ]
    assert unreached == []


def test_every_limit_is_documented():
    # A module-level MAX_* constant is a limit a user can hit; README.md must
    # name it as module.MAX_*, with the module that holds it, and state its
    # value in the same sentence, with or without thousands commas (1,000).
    readme = (Path(simiso.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    sentences = re.split(r"(?<=\.)\s+|\n\s*\n", readme)
    undocumented = []
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in (target.id for node in tree.body if isinstance(node, ast.Assign)
                     for target in node.targets
                     if isinstance(target, ast.Name) and target.id.startswith("MAX_")):
            value = getattr(importlib.import_module(f"simiso.{path.stem}"), name)
            value = f"{value:,}".replace(",", ",?")
            if not any(re.search(rf"\b{path.stem}\.{name}\b", sentence)
                       and re.search(rf"(?<![\d,]){value}(?!,?\d)", sentence)
                       for sentence in sentences):
                undocumented.append(f"{path.name}:{name}")
    assert undocumented == []


def test_benchmark_imports_resolve():
    # perfbench imports simiso names inside its functions, so a renamed or
    # deleted name would first fail in a benchmark run instead of here.
    root = Path(simiso.__file__).parents[2]
    imported, missing = [], []
    for path in sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simiso":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    where = f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    imported.append(where)
                    if not (hasattr(module, alias.name)
                            or importlib.util.find_spec(f"{node.module}.{alias.name}")):
                        missing.append(where)
    assert imported and missing == []


def test_parser_bounds_every_count():
    # A flag read with type=int takes an integer of any size; a count is read
    # with cli._bounded(lo, hi), so the parser refuses it out of range.
    # --seed is a seed, not a count, read as cli._integer.  No flag uses
    # plain int, which also reads 1_0, " 2 " and non-ASCII digits.
    from simiso import cli

    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = [(command, action.option_strings or [action.dest], action.type)
             for command, parser in subparsers.choices.items() for action in parser._actions]
    assert ("verify", ["--seed"], cli._integer) in flags
    assert [(command, names) for command, names, kind in flags if kind is int] == []


def test_oracle_uses_no_engine_shortcut():
    # The oracle is the independent check of the engine: it must not name
    # the component-counting decision, the Scal solve or the lift.
    shortcuts = ("check_similarity", "_frame", "scal_set_packing", "scal_classes_by_tau",
                 "lift_to_ring", "check_corollaries", "closure_check")
    source = (Path(simiso.__file__).parent / "oracle.py").read_text(encoding="utf-8")
    assert [name for name in shortcuts if re.search(rf"\b{name}\b", source)] == []


def test_no_indented_json_dumps():
    # json.dumps with indent runs json's pure-Python encoder; the commands
    # write their documents through cli.to_json, byte-identical and faster.
    found = []
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and any(keyword.arg == "indent" for keyword in node.keywords)
        ]
    assert found == []


def _scoped_nodes(skip=()):
    """(file, scope, node) for every AST node of every module not named in
    skip; the scope is Class.method, a module function's name or <module>."""
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        if path.name in skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}  # id of each node inside a function -> its scope
        for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
            scopes.update((id(n), fn.name) for n in ast.walk(fn))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                scopes.update((id(n), f"{cls.name}.{fn.name}") for n in ast.walk(fn))
        for node in ast.walk(tree):
            yield path.name, scopes.get(id(node), "<module>"), node


def test_values_are_set_only_by_made():
    # A Value's slots are set once by Value._made; object.__setattr__
    # anywhere else writes into a value after it was made, such as the
    # cached packing that preset(name) hands every caller.
    found = [
        (f"{file}:{node.lineno}", scope)
        for file, scope, node in _scoped_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    assert [scope for _, scope in found] == ["Value._made"], found


def test_field_elems_are_built_only_for_the_oracle_walk():
    # The engine maps integer pairs.  Outside rings.py a FieldElem is built
    # only by the two views the oracle's walk reads: Lattice.element (for
    # PointPacking.shifts) and Similarity.w.  A FieldElem(...) or
    # RingElem(...) call, or a FieldElem.<name> attribute, anywhere else is
    # a second arithmetic path.
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = [
        (f"{file}:{node.lineno}", scope)
        for file, scope, node in _scoped_nodes(skip=("rings.py",))
        if isinstance(node, ast.Call) and name(node.func) in ("FieldElem", "RingElem")
        or isinstance(node, ast.Attribute) and name(node.value) == "FieldElem"
    ]
    assert sorted(scope for _, scope in found) == ["Lattice.element", "Similarity.w"], found
