"""The benchmark's workloads run against this checkout and pass their checks."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from simiso import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's run module, imported from the checkout with no bytecode
    written; it writes files only when its main() runs, which no test calls."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


@pytest.mark.parametrize("workload", ("scal", "decide", "verify", "render"))
def test_first_round_passes_its_check(bench, workload):
    # Round 0 at seed 1, each request through its cli entry with stdout
    # captured as the benchmark does, so a change that breaks a workload's
    # output check fails here rather than in a benchmark run.
    import workloads

    assert workload in bench.WORKLOADS
    make, check = workloads.WORKLOADS[workload]
    problems = []
    for req in bench.build_round(make, cli.build_parser(), 1, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = getattr(cli, req.entry)(req.args)
        problem = check(req, code, out.getvalue())
        if problem is not None:
            problems.append(f"{req.argv}: {problem}")
    assert problems == []
