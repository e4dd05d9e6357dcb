"""Spans around the program's layers, recorded from outside the program.

``instrumented(tracer)`` swaps each traced function for a wrapper in every
``mtfloer`` module that holds a reference to it (modules import functions
by name, so patching only the defining module would miss callers), and puts
the originals back on exit.  Untraced rounds therefore run the program
untouched.

A span's self time is its duration minus the time covered by the spans it
contains.  Counts are taken inside ``Tracer.uncounted``, whose time is
charged to no span, so counting shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (owner, attribute, span name): owner is "module" for a module-level
# function or "module.Class" for a method
SPANS = [
    ("cli", "main", "cli.main"),
    # cmd_verify's own work, once run_sweep returns, is serializing and
    # writing the report
    ("cli", "cmd_verify", "cli.report"),
    ("cli", "run_sweep", "cli.sweep"),
    ("knot_model", "oracle_hfplus", "knot_model.oracle"),
    ("knot_model", "build_e1_region", "knot_model.e1_region"),
    ("knot_model", "build_e2_symbolic", "knot_model.e2_page"),
    ("knot_model", "run_d1", "knot_model.gate"),
    ("knot_model", "run_d2", "knot_model.d2"),
    ("homology.FreeComplex", "__init__", "homology.complex_build"),
    ("homology.FreeComplex", "homology", "homology.homology"),
    ("homology", "smith_normal_form", "homology.snf"),
    ("homology", "check_smith_form", "homology.snf_check"),
    ("exterior", "build_X", "exterior.build_X"),
    ("closed_form", "theorem_answer", "closed_form.theorem_answer"),
    ("graded.GradedGroup", "tensor", "graded.group_ops"),
    ("graded.GradedGroup", "direct_sum", "graded.group_ops"),
    ("graded.GradedGroup", "__add__", "graded.group_ops"),
]

# every per-layer metric: self times are "<span name>_s"
SPAN_NAMES = sorted({name for _, _, name in SPANS})
COUNT_NAMES = [
    "homology.snf_calls",
    "homology.complex_generators",
    "homology.boundary_nnz",
    "knot_model.e1_generators",
    "exterior.build_X_basis",
]


def _nonzeros(complex_) -> int:
    return sum(len(row) - row.count(0) for mat in complex_.differentials.values() for row in mat.data)


def _count(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Counters kept at the span boundaries."""
    counts = tracer.counts
    if name == "homology.snf":
        counts["homology.snf_calls"] += 1
    elif name == "homology.homology":
        complex_ = args[0]
        counts["homology.complex_generators"] += complex_.total_size()
        counts["homology.boundary_nnz"] += _nonzeros(complex_)
    elif name == "knot_model.e1_region":
        counts["knot_model.e1_generators"] += result.total_size()
    elif name == "exterior.build_X":
        counts["exterior.build_X_basis"] += len(result.basis)


class Tracer:
    """Self times and counts per span name, plus the raw spans of a round."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[list] = []  # [span index, start, time covered by children]

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack.clear()

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][2] += seconds

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        start = time.perf_counter()
        frame = [index, start, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            self.self_s[name] += (end - start) - frame[2]
            self._charge_parent(end - start)
        with self.uncounted():
            _count(self, name, args, result)
        return result

    @contextmanager
    def uncounted(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._charge_parent(time.perf_counter() - start)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every function in SPANS while the block runs."""
    undo: list[tuple[object, str, object]] = []
    package_modules = [m for key, m in sys.modules.items() if key == "mtfloer" or key.startswith("mtfloer.")]
    try:
        for owner, attr, name in SPANS:
            module_name, _, class_name = owner.partition(".")
            holder = sys.modules[f"mtfloer.{module_name}"]
            if class_name:
                cls = getattr(holder, class_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(tracer, name, original))
                continue
            original = getattr(holder, attr)
            traced = _wrap(tracer, name, original)
            for module in package_modules:
                if module.__dict__.get(attr) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, traced)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
