"""Reference kernel that measures how fast the host runs Python right now.

The host's speed drifts by tens of percent within seconds, so every timed
request is followed by this kernel for a fixed share of the request's
duration, and the request's time is rescaled to a host that runs
NOMINAL_UNITS_PER_S kernel units per second.

The kernel mixes the operations simiso spends its time on: Fraction
arithmetic, small tuples and a small dict.  It uses a private copy of the
fractions module, so tracing wrappers installed on fractions.Fraction never
reach it, and it keeps no live objects between units and runs with the
garbage collector paused, so its speed does not depend on the size of the
program's heap.
"""

from __future__ import annotations

import fractions
import gc
import importlib.util
import time

# Units per second on the nominal host; calibrated seconds are seconds there.
NOMINAL_UNITS_PER_S = 40000.0

# Kernel time run after each request, as a share of the request's time.
SHARE = 0.5

_spec = importlib.util.spec_from_file_location("_perfbench_fractions", fractions.__file__)
_fractions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_fractions)
_F = _fractions.Fraction


def _unit() -> int:
    acc = {}
    x = _F(1, 3)
    for i in (2, 3, 5):
        y = _F(i, i + 2)
        x = x * y + _F(1, i)
        key = (i & 1, x.denominator % 7)
        acc[key] = acc.get(key, 0) + 1
    return len(acc)


def run(seconds: float) -> tuple[int, float]:
    """Run whole units for at least `seconds` (at least one unit); return
    the number of units and the seconds they took."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        units = 0
        start = clock()
        while True:
            _unit()
            units += 1
            elapsed = clock() - start
            if elapsed >= seconds:
                return units, elapsed
    finally:
        if was_enabled:
            gc.enable()


def factor(request_seconds: float) -> float:
    """Run the kernel after a request and return calibrated / raw time."""
    units, elapsed = run(SHARE * request_seconds)
    return units / elapsed / NOMINAL_UNITS_PER_S
