"""Tiny-size smoke run: one round of every workload, checked end to end.

    python3 perfbench/smoke.py

For each workload it runs one untraced round and two traced rounds in fresh
interpreters, with the same seed, and fails (exit 1) unless every run exits
0 with no failed or incorrect request, prints every metric it must print,
and the two traced runs report identical counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
SEED = 7


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--rounds", "1"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected_names(trace: int, attempted: int) -> set[str]:
    if trace:
        return (
            {f"{layer}.self_ms" for layer in bench.SELF_MS}
            | {f"{layer}.calls" for layer in bench.CALLS}
            | set(bench.COUNTS)
            | {"packings.sweep.accept_ratio", "runtime.gc_ms", "traced.ops_per_s"}
        )
    names = set(bench.END_TO_END)
    if attempted < bench.MIN_REQUESTS:
        names.discard("latency_ms_p90")
    return names


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes", "ratio")}


def main() -> int:
    problems = []
    for workload in bench.WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            try:
                result = _run(workload, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            results.append(result)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed, "
                                f"correct={result['correct']}")
            missing = _expected_names(trace, result["attempted"]) - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}")
        if len(results) == 3 and _counts(results[1]) != _counts(results[2]):
            a, b = _counts(results[1]), _counts(results[2])
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: {len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} requests", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
