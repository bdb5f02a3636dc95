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
    # name it next to its value as module.MAX_*, with the module that holds it.
    readme = (Path(simiso.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    undocumented = []
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        undocumented += [
            f"{path.name}:{target.id}"
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id.startswith("MAX_")
            and not re.search(rf"\b{path.stem}\.{target.id}\b", readme)
        ]
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
    # --seed is a seed, not a count.
    from simiso import cli

    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = [(command, action.option_strings or [action.dest], action.type)
             for command, parser in subparsers.choices.items() for action in parser._actions]
    assert ("verify", ["--seed"], int) in flags
    assert [(command, names) for command, names, kind in flags
            if kind is int and names != ["--seed"]] == []


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


def test_values_are_set_only_by_made():
    # A Value's slots are set once by Value._made; object.__setattr__
    # anywhere else writes into a value after it was made, such as the
    # cached packing that preset(name) hands every caller.
    found = []
    for path in sorted(Path(simiso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}  # id of each node inside a function -> Class.function
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                scopes.update((id(n), f"{cls.name}.{fn.name}") for n in ast.walk(fn))
        found += [
            f"{path.name}:{node.lineno}: {scopes.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ]
    assert [where.split(": ")[1] for where in found] == ["Value._made"], found
