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


@pytest.mark.parametrize("workload", ("decide", "verify"))
def test_oracle_case_is_the_parsed_case(bench, workload):
    # check_decide hands the oracle workloads._simiso_case(case), built with
    # the FieldElem constructor, while the request's documents go through
    # cli's integer parse: both must build one packing and one similarity.
    import workloads

    make, _ = workloads.WORKLOADS[workload]
    requests = bench.build_round(make, cli.build_parser(), 1, 0)
    assert requests
    for req in requests:
        case = req.case
        packing, s = workloads._simiso_case(case)
        parsed = cli.parse_packing_doc(cli._load_doc(case["packing_doc"]))
        assert parsed.lattice == packing.lattice and parsed.lattice.d == packing.lattice.d
        assert parsed.residues == packing.residues and parsed.shifts == packing.shifts
        assert parsed == packing
        parsed_s = cli.parse_similarity_doc(cli._load_doc(case["sim_doc"]), packing.ring)
        assert parsed_s == s and parsed_s.ints == s.ints


def test_oracle_samples_every_small_direction(bench):
    # check_scal hands one sampled request per round to _check_bruteforce,
    # which builds its Direction through the FieldElem constructor and asks
    # the oracle for Scal: here every table at every z with N(z) at most
    # BRUTE_NORM_MAX takes that path.
    import workloads

    problems, cases = [], 0
    for table, (_, _, ring) in workloads.TABLES.items():
        for norm, zs in workloads.PRIMITIVES[ring].items():
            if norm > workloads.BRUTE_NORM_MAX:
                continue
            for z in zs:
                cases += 1
                problem = workloads._check_bruteforce(table, z)
                if problem is not None:
                    problems.append(f"{table} z={z}: {problem}")
    assert cases == 176 and problems == []
