"""Spans and counts recorded from the benchmark's side, with no edit to simiso.

install() replaces every public function and every method of simiso's
modules, and the operators of fractions.Fraction, with wrappers that time
each call against a stack of open spans; a private helper counts in the
span of its caller.  A span's self time is its duration minus the time of
the spans it encloses, so the self times of all layers add up to the traced
request time.  Wrappers record only between begin() and end(), so set-up and
the benchmark's own checks are not counted.
"""

from __future__ import annotations

import fractions
import gc
import sys
import time

FRACTION = fractions.Fraction

# Spans with a name of their own; every other wrapped function is counted
# in its module's layer.  Keys are simiso module suffixes and qualnames.
NAMED = {
    ("packings", "check_similarity"): "packings.check_similarity",
    ("packings", "scal_classes_by_tau"): "packings.sweep",
    ("packings", "scal_set_packing"): "packings.sweep",
    ("packings", "check_corollaries"): "packings.check_corollaries",
    ("lattices", "Lattice.from_generators"): "lattices.hnf",
    ("lattices", "intersect"): "lattices.intersect",
    ("lattices", "coset_intersection_point"): "lattices.coset_solve",
    ("oracle", "certify_subpacking"): "oracle.certify",
    ("oracle", "index_by_counting"): "oracle.index_by_counting",
    ("oracle", "points_in_window"): "oracle.points_in_window",
}
MODULE_LAYER = {
    "cli": "cli",
    "similarity": "similarity",
    "packings": "packings.other",
    "lattices": "lattices.other",
    "rings": "rings",
    "oracle": "oracle.other",
    "render": "render",
    "presets": "presets",
}
LAYERS = sorted(set(NAMED.values()) | set(MODULE_LAYER.values()) | {"fractions"})
COUNTS = (  # counters besides calls per layer
    "fractions.created",
    "oracle.points_tested",
    "oracle.points_in_window.points",
    "render.svg_bytes",
    "sweep.decisions",
    "sweep.accepted",
    "runtime.gc_collections",
)
# Layers whose spans are kept one by one for the trace file; the others run
# thousands of times per request and are only summed.
COARSE = frozenset(NAMED.values()) | {"cli", "render"}
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [layer index, start ns, child ns, span id]
        self.next_id = 0
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.gc_ns = 0
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.request_id = 0
        self._gc_start = 0
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self._certify = self.index["oracle.certify"]
        self._sweep = self.index["packings.sweep"]
        self._open = [0] * len(LAYERS)  # open spans per layer

    # -- request boundaries -------------------------------------------------

    def begin(self, request_id: int, keep_spans: bool) -> None:
        self.request_id = request_id
        self.keep_spans = keep_spans
        self.active = True

    def end(self) -> None:
        self.active = False

    def snapshot(self) -> tuple[list[int], list[int], dict, int]:
        return list(self.self_ns), list(self.calls), dict(self.counts), self.gc_ns

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, fn, on_return=None):
        idx = self.index[layer]
        coarse = layer in COARSE
        tracer = self
        clock = time.perf_counter_ns
        stack = self.stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.next_id += 1
            frame = [idx, clock(), 0, tracer.next_id]
            stack.append(frame)
            tracer._open[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = clock()
                stack.pop()
                tracer._open[idx] -= 1
                duration = stop - frame[1]
                tracer.self_ns[idx] += duration - frame[2]
                tracer.calls[idx] += 1
                if stack:
                    stack[-1][2] += duration
                if coarse and tracer.keep_spans and len(tracer.spans) < SPAN_CAP:
                    parent = stack[-1][3] if stack else 0
                    tracer.spans.append(
                        (tracer.request_id, LAYERS[idx], frame[1], stop, frame[3], parent)
                    )
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    # -- counters fed by return values (called only while active) ----------

    def _count_decision(self, args, report) -> None:
        if self._open[self._sweep]:
            self.counts["sweep.decisions"] += 1
            self.counts["sweep.accepted"] += bool(report.accepted)

    def _count_contains(self, args, result) -> None:
        if self._open[self._certify]:
            self.counts["oracle.points_tested"] += 1

    def _count_points(self, args, points) -> None:
        self.counts["oracle.points_in_window.points"] += len(points)

    def _count_svg(self, args, svg) -> None:
        self.counts["render.svg_bytes"] += len(svg.encode("utf-8"))

    def _count_fraction(self, args, result) -> None:
        self.counts["fractions.created"] += 1

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap simiso (already imported) and fractions.Fraction in place."""
        hooks = {
            ("packings", "check_similarity"): self._count_decision,
            ("packings", "PointPacking.contains"): self._count_contains,
            ("oracle", "points_in_window"): self._count_points,
            ("render", "render_svg"): self._count_svg,
        }
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("simiso.") and name.split(".", 1)[1] in MODULE_LAYER
        }
        replaced = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj, hooks)
                elif callable(obj) and not name.startswith("_"):
                    key = (short, obj.__qualname__)
                    layer = NAMED.get(key, MODULE_LAYER[short])
                    wrapper = self.wrap(layer, obj, hooks.get(key))
                    replaced[id(obj)] = wrapper
                    setattr(mod, name, wrapper)
        # Rebind names imported from one simiso module into another.
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        self._wrap_fraction()
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, short: str, cls: type, hooks) -> None:
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
            elif callable(attr) and not isinstance(attr, type):
                fn = attr
            else:
                continue
            key = (short, f"{cls.__name__}.{name}")
            wrapper = self.wrap(NAMED.get(key, MODULE_LAYER[short]), fn, hooks.get(key))
            if isinstance(attr, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(attr, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(cls, name, wrapper)

    def _wrap_fraction(self) -> None:
        skip = {"__reduce__", "__copy__", "__deepcopy__", "__repr__"}
        for name, attr in list(vars(FRACTION).items()):
            if name in skip or (name.startswith("_") and not name.startswith("__")):
                continue
            if name == "__new__":
                fn = attr.__func__ if isinstance(attr, staticmethod) else attr
                wrapper = self.wrap("fractions", fn, self._count_fraction)
                setattr(FRACTION, name, staticmethod(wrapper))
            elif isinstance(attr, classmethod):
                setattr(FRACTION, name, classmethod(self.wrap("fractions", attr.__func__)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(FRACTION, name, self.wrap("fractions", attr))
