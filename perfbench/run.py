"""Run one simiso workload for a set time and print its metrics.

    python3 perfbench/run.py --workload scal --seed 1 --seconds 15 --trace 0

Run it from the root of a simiso checkout; it imports simiso from ./src.
The workload runs in this interpreter as a closed loop with one caller:
each request enters through its subcommand's function in simiso.cli with
argv parsed during set-up, and stdout captured in memory.  After each
request the reference kernel (kernel.py) measures the host's speed and the
request's time is rescaled to the nominal host; every time-based metric is
in these calibrated seconds, and the raw figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 wraps simiso's layers
(spans.py) and prints per-layer metrics per request instead.  The last line
of stdout is one JSON object; full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("scal", "decide", "verify", "render")
MIN_REQUESTS = 100  # enough for a p90 with ten samples beyond it
SETUP_SAMPLES = 9
SETUP_KERNEL_S = 0.1
SAFETY_SECONDS = 120.0  # never start a round after this much wall time

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SELF_MS = (
    "cli", "similarity", "packings.check_similarity", "packings.sweep",
    "packings.check_corollaries", "packings.other", "lattices.hnf",
    "lattices.intersect", "lattices.coset_solve", "lattices.other", "rings",
    "fractions", "oracle.certify", "oracle.index_by_counting",
    "oracle.points_in_window", "oracle.other", "render", "presets",
)
CALLS = (
    "packings.check_similarity", "lattices.hnf", "lattices.intersect",
    "lattices.coset_solve", "oracle.certify",
)
COUNTS = {
    "fractions.created": "count",
    "oracle.points_tested": "count",
    "oracle.points_in_window.points": "count",
    "render.svg_bytes": "bytes",
    "runtime.gc_collections": "count",
}


class SetupError(Exception):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--rounds", type=int, default=0,
        help="run exactly this many rounds instead of --seconds (smoke mode)",
    )
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: everything from a fresh interpreter to the first timed request


def set_up(workload: str, seed: int, tracer=None):
    if not (SRC / "simiso" / "__init__.py").is_file():
        raise SetupError(f"no simiso sources under {SRC}; run from a simiso checkout")
    sys.path.insert(0, str(SRC))
    import simiso
    from simiso import cli, presets

    if Path(simiso.__file__).resolve().parent != (SRC / "simiso").resolve():
        raise SetupError(f"imported simiso from {simiso.__file__}, not {SRC}")
    import workloads

    for name in presets.PRESETS:
        presets.preset(name)
    if tracer is not None:
        tracer.install()
    parser = cli.build_parser()
    make, check = workloads.WORKLOADS[workload]
    return cli, parser, make, check, build_round(make, parser, seed, 0)


def build_round(make, parser, seed: int, index: int) -> list:
    requests = make(random.Random(seed * 1_000_003 + index))
    for req in requests:
        req.args = parser.parse_args(req.argv)
    return requests


def measure_setup(workload: str, seed: int) -> tuple[list[float], float]:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, and the factor
    that calibrates them.

    A kernel slice of SETUP_KERNEL_S runs before the first probe and after
    each one; the factor pools all slices, because one slice is far noisier
    than the drift it would correct.
    """
    raw = []
    units, kernel_s = kernel.run(SETUP_KERNEL_S)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {err.strip()[-500:]}")
        raw.append(ready - start)
        more_units, more_s = kernel.run(SETUP_KERNEL_S)
        units, kernel_s = units + more_units, kernel_s + more_s
    return raw, units / kernel_s / kernel.NOMINAL_UNITS_PER_S


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    def __init__(self, opts, cli, parser, make, check, tracer):
        self.opts, self.cli, self.parser = opts, cli, parser
        self.make, self.check, self.tracer = make, check, tracer
        self.raw: list[float] = []  # seconds per attempted request
        self.factor: list[float] = []  # calibrated / raw per request
        self.ok: list[bool] = []
        self.failed = 0
        self.incorrect: list[str] = []
        self.rounds = 0
        n = len(tracer.self_ns) if tracer else 0
        self.layer_ns = [0.0] * n  # calibrated self ns, all rounds
        self.layer_calls = [0] * n  # first round only
        self.counts: dict[str, int] = {}  # first round only
        self.gc_ns = 0.0
        self.first_round_requests = 0

    def request(self, req, request_id: int) -> None:
        entry = getattr(self.cli, req.entry)
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        gc.collect(0)
        if tracer:
            before = tracer.snapshot()
            tracer.begin(request_id, keep_spans=self.rounds == 0)
        code, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = entry(req.args)
            except Exception as e:  # a raising request is a failed request
                exc = e
            raw = time.perf_counter() - start
        if tracer:
            tracer.end()
        factor = kernel.factor(raw)
        self.raw.append(raw)
        self.factor.append(factor)
        if tracer:
            self._add_trace(before, tracer.snapshot(), factor)
        if exc is not None or code in (2, 3, 4):
            self.failed += 1
            self.ok.append(False)
            what = repr(exc) if exc is not None else f"exit {code}: {err.getvalue().strip()}"
            if code == 3:  # the engine and the oracle disagree: a wrong answer
                self.incorrect.append(f"{req.argv}: {what}"[:400])
            print(f"failed request {req.argv}: {what}"[:400], file=sys.stderr)
            return
        try:
            problem = self.check(req, code, out.getvalue())
        except Exception as e:  # an unreadable output fails its check
            problem = f"check raised {e!r}"
        if problem is not None:
            self.failed += 1
            self.ok.append(False)
            self.incorrect.append(f"{req.argv}: {problem}"[:400])
            print(f"incorrect output {req.argv}: {problem}"[:400], file=sys.stderr)
        else:
            self.ok.append(True)

    def _add_trace(self, before, after, factor: float) -> None:
        (s0, c0, n0, g0), (s1, c1, n1, g1) = before, after
        for i in range(len(s0)):
            self.layer_ns[i] += (s1[i] - s0[i]) * factor
        self.gc_ns += (g1 - g0) * factor
        if self.rounds == 0:
            for i in range(len(c0)):
                self.layer_calls[i] += c1[i] - c0[i]
            for key in n1:
                self.counts[key] = self.counts.get(key, 0) + n1[key] - n0[key]

    def loop(self, first_round: list) -> float:
        start = time.perf_counter()
        requests, request_id = first_round, 0
        while True:
            gc.collect()
            for req in requests:
                self.request(req, request_id)
                request_id += 1
            if self.rounds == 0:
                self.first_round_requests = len(requests)
            self.rounds += 1
            elapsed = time.perf_counter() - start
            if self.opts.rounds:
                if self.rounds >= self.opts.rounds:
                    return elapsed
            elif elapsed >= SAFETY_SECONDS or (
                elapsed >= self.opts.seconds and len(self.raw) >= MIN_REQUESTS
            ):
                return elapsed
            requests = build_round(self.make, self.parser, self.opts.seed, self.rounds)


# ---------------------------------------------------------------------------
# metrics


def _latency_figures(times: list[float]) -> dict[str, float]:
    ms = [t * 1e3 for t in times]
    figures = {"latency_ms_p50": statistics.median(ms)}
    if len(ms) >= MIN_REQUESTS:
        figures["latency_ms_p90"] = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    return figures


def end_to_end(run: Run, setup_raw, setup_factor) -> tuple[dict, dict]:
    cal = [r * f for r, f in zip(run.raw, run.factor)]
    completed = len(run.raw) - run.failed
    done_raw = [t for t, ok in zip(run.raw, run.ok) if ok]
    done_cal = [t for t, ok in zip(cal, run.ok) if ok]
    raw = {"ops_per_s": completed / sum(run.raw), **_latency_figures(done_raw or run.raw),
           "setup_s": statistics.median(setup_raw)}
    calibrated = {"ops_per_s": completed / sum(cal), **_latency_figures(done_cal or cal),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "setup_s": statistics.median(setup_raw) * setup_factor}
    return raw, calibrated


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-request figures of the traced run: self times (calibrated, all
    rounds) and counts (first round, so they repeat exactly for a seed)."""
    n_all = len(run.raw)
    n_first = run.first_round_requests
    index = run.tracer.index
    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_MS:
        out[f"{layer}.self_ms"] = (run.layer_ns[index[layer]] / 1e6 / n_all, "ms")
    for layer in CALLS:
        out[f"{layer}.calls"] = (run.layer_calls[index[layer]] / n_first, "count")
    for key, unit in COUNTS.items():
        out[key] = (run.counts.get(key, 0) / n_first, unit)
    decisions = run.counts.get("sweep.decisions", 0)
    ratio = run.counts.get("sweep.accepted", 0) / decisions if decisions else 0.0
    out["packings.sweep.accept_ratio"] = (ratio, "ratio")
    out["runtime.gc_ms"] = (run.gc_ns / 1e6 / n_all, "ms")
    cal = sum(r * f for r, f in zip(run.raw, run.factor))
    out["traced.ops_per_s"] = ((n_all - run.failed) / cal, "1/s")
    return out


def _fmt(values: dict) -> str:
    return " ".join(f"{k}={v:.6g}" for k, v in values.items())


def main(argv=None) -> int:
    opts = parse_args(argv)
    tracer = None
    if opts.trace:
        import spans

        tracer = spans.Tracer()
    try:
        if opts.probe:
            set_up(opts.workload, opts.seed)
            print("ready", flush=True)
            return 0
        setup_raw, setup_factor = ([], 1.0) if opts.trace else measure_setup(opts.workload, opts.seed)
        cli, parser, make, check, first = set_up(opts.workload, opts.seed, tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = Run(opts, cli, parser, make, check, tracer)
    wall = run.loop(first)
    attempted = len(run.raw)
    result = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "rounds": run.rounds, "attempted": attempted, "failed": run.failed,
        "wall_s": wall, "incorrect": run.incorrect[:20],
        "calibration": {
            "kernel_nominal_units_per_s": kernel.NOMINAL_UNITS_PER_S,
            "kernel_share": kernel.SHARE,
            "factor": sum(r * f for r, f in zip(run.raw, run.factor)) / sum(run.raw),
            "factor_median": statistics.median(run.factor),
        },
    }
    print(f"perfbench {opts.workload} seed={opts.seed} trace={opts.trace}: "
          f"{run.rounds} rounds, {attempted} attempted, {run.failed} failed, "
          f"{len(run.incorrect)} incorrect, {wall:.1f} s wall")
    cal = result["calibration"]
    print(f"  calibration: factor={cal['factor']:.4f} (calibrated/raw time; "
          f"median per request {cal['factor_median']:.4f}; nominal kernel "
          f"{kernel.NOMINAL_UNITS_PER_S:.0f} units/s)")
    if opts.trace:
        layers = per_layer(run)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["per_layer"] = metrics
        print("  per request (traced): " + _fmt({k: v for k, (v, _) in layers.items()}))
    else:
        raw, calibrated = end_to_end(run, setup_raw, setup_factor)
        metrics = {k: {"value": calibrated[k], "unit": u}
                   for k, u in END_TO_END.items() if k in calibrated}
        result.update(raw=raw, calibrated=calibrated,
                      setup={"raw_s": setup_raw, "factor": setup_factor},
                      requests={"raw_s": run.raw, "factor": run.factor})
        print("  raw:        " + _fmt(raw))
        print("  calibrated: " + _fmt(calibrated))
    OUT.mkdir(exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fields = ("request", "layer", "start_ns", "end_ns", "id", "parent")
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
    print(json.dumps({
        "correct": not run.incorrect,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
