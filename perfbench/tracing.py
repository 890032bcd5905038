"""Per-layer tracing by interposition, from outside the package.

A traced pass wraps each boundary name in the namespace of the module that
calls it, because that is where the call looks the name up: the curve's
root finder is ``quintic_newton.markov.smallest_root_in``, not the copy in
``polynomials``.  Every name is restored afterwards and nothing under
``src/`` records anything.  A span's self time is its duration minus the
time its child spans cover, so the self times of one pass, including the
benchmark's own root span ``bench``, add up to the traced wall time.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric
it should move; ``BENCHMARK.json`` carries the same names and units.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

import workloads  # also puts the checkout's src/ on the path
from quintic_newton.polynomials import IntPolynomial

ROOT_SPAN = "bench"
ROOT_FINDER = "polynomials.smallest_root_in"


class Tracer:
    """Span and counter totals for one traced pass."""

    def __init__(self):
        self._stack: list[list] = []     # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, covered = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _span(name: str, after=None):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper
    return make


def _count(name: str):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _root_finder(tracer: Tracer, fn):
    """Span tagged ``poly`` or ``series`` by argument type; series
    evaluations are counted, because each is an O(horizon) float sum."""
    evals = ROOT_FINDER + ".series.evals"

    @functools.wraps(fn)
    def smallest_root_in(f, *args, **kwargs):
        if isinstance(f, IntPolynomial):
            name = ROOT_FINDER + ".poly"
        else:
            name = ROOT_FINDER + ".series"
            series = f

            def f(t):
                tracer.counts[evals] += 1
                return series(t)
        tracer.enter(name)
        try:
            return fn(f, *args, **kwargs)
        finally:
            tracer.exit()
    return smallest_root_in


def _admissibility(tracer: Tracer, fn):
    @functools.wraps(fn)
    def is_admissible(w):
        ok = fn(w)
        tracer.counts["words.is_admissible.calls"] += 1
        tracer.counts["words.is_admissible.admissible"] += bool(ok)
        return ok
    return is_admissible


def _classify_point(tracer: Tracer, args, point) -> None:
    exact = point.method == "kneading"
    tracer.counts["markov.points.exact" if exact else "markov.points.series"] += 1
    # entropy_point nudges c off a pole collision and returns the nudged c
    tracer.counts["markov.points.nudged"] += point.c != args[0]


# (module that looks the name up, name, wrapper factory)
INTERPOSITIONS = (
    ("quintic_newton.cli", "main", _span("cli")),
    ("quintic_newton.cli", "entropy_curve", _span("markov.entropy_curve")),
    ("quintic_newton.cli", "build_polynomial_tree",
     _span("kneading.build_polynomial_tree")),
    ("quintic_newton.markov", "entropy_point",
     _span("markov.entropy_point", after=_classify_point)),
    ("quintic_newton.markov", "kneading_numerator",
     _span("markov.kneading_numerator")),
    ("quintic_newton.markov", "determinant_polynomial",
     _span("kneading.determinant_polynomial")),
    ("quintic_newton.markov", "kneading_determinant",
     _span("kneading.kneading_determinant")),
    ("quintic_newton.markov", "smallest_root_in", _root_finder),
    ("quintic_newton.markov", "critical_frame",
     _count("dynamics.critical_frame.calls")),
    ("quintic_newton.kneading", "generate_tree", _span("words.generate_tree")),
    ("quintic_newton.kneading", "determinant_polynomial",
     _span("kneading.determinant_polynomial")),
    ("quintic_newton.kneading", "cycle_polynomial",
     _span("kneading.cycle_polynomial")),
    ("quintic_newton.kneading", "convergent_polynomial",
     _span("kneading.convergent_polynomial")),
    ("quintic_newton.words", "is_admissible", _admissibility),
    # the windows workload calls these through the package namespace
    ("quintic_newton", "admissible_cycles", _span("words.admissible_cycles")),
    ("quintic_newton", "find_superstable_parameter",
     _span("dynamics.find_superstable_parameter")),
    ("quintic_newton", "markov_partition", _span("markov.markov_partition")),
    ("quintic_newton", "transition_matrix", _span("markov.transition_matrix")),
    ("quintic_newton", "char_poly", _span("markov.char_poly")),
    ("quintic_newton", "entropy_from_charpoly",
     _span("markov.entropy_from_charpoly")),
    ("quintic_newton", "entropy_from_kneading",
     _span("markov.entropy_from_kneading")),
)


@contextlib.contextmanager
def interposed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, make in INTERPOSITIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, make(tracer, original))
            saved.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _calls_self(workload: str, span: str, moves: str):
    return [(f"{workload}.{span}.calls", "count", "lower", moves),
            (f"{workload}.{span}.self_s", "s", "lower", moves)]


def _pass_rows(workload: str):
    w = f"{workload}.wall_s"
    return [
        (f"{workload}.bench.self_s", "s", "lower", "benchmark's own time"),
        (f"{workload}.traced_wall_s", "s", "lower", w),
        (f"{workload}.untraced_wall_s", "s", "lower", w),
        (f"{workload}.trace_overhead_s", "s", "lower", "none: tracing cost"),
    ]


_C, _T, _W = "curve.wall_s", "tree.wall_s", "windows.wall_s"
_WOK = "windows.ok_frac"

# (name, unit, better, end-to-end metric it should move)
LAYER_METRICS = (
    *_calls_self("curve", ROOT_FINDER + ".series", _C),
    ("curve." + ROOT_FINDER + ".series.evals", "count", "lower", _C),
    *_calls_self("curve", ROOT_FINDER + ".poly", _C),
    *_calls_self("curve", "kneading.determinant_polynomial", _C),
    *_calls_self("curve", "kneading.kneading_determinant", _C),
    *_calls_self("curve", "markov.kneading_numerator", _C),
    *_calls_self("curve", "markov.entropy_point", _C),
    ("curve.markov.entropy_curve.self_s", "s", "lower", _C),
    ("curve.dynamics.critical_frame.calls", "count", "lower", _C),
    ("curve.markov.points.exact", "count", "higher", _C),
    ("curve.markov.points.series", "count", "lower", _C),
    ("curve.markov.points.nudged", "count", "lower", _C),
    ("curve.markov.exact_share", "ratio", "higher", _C),
    ("curve.cli.self_s", "s", "lower", _C),
    *_pass_rows("curve"),

    *_calls_self("tree", "kneading.determinant_polynomial", _T),
    *_calls_self("tree", "kneading.cycle_polynomial", _T),
    *_calls_self("tree", "kneading.convergent_polynomial", _T),
    ("tree.kneading.build_polynomial_tree.self_s", "s", "lower", _T),
    ("tree.words.generate_tree.self_s", "s", "lower", _T),
    ("tree.words.is_admissible.calls", "count", "lower", _T),
    ("tree.words.admissible_share", "ratio", "higher", _T),
    ("tree.cli.self_s", "s", "lower", _T),
    ("tree.cli.output_bytes", "bytes", "lower", _T),
    *_pass_rows("tree"),

    *_calls_self("windows", "dynamics.find_superstable_parameter", _W),
    ("windows.dynamics.find_superstable_parameter.failed", "count", "lower", _WOK),
    ("windows.markov.markov_partition.self_s", "s", "lower", _W),
    ("windows.markov.transition_matrix.self_s", "s", "lower", _W),
    ("windows.markov.transition_matrix.failed", "count", "lower", _WOK),
    ("windows.markov.char_poly.self_s", "s", "lower", _W),
    ("windows.markov.entropy_from_charpoly.self_s", "s", "lower", _W),
    ("windows.markov.entropy_from_kneading.self_s", "s", "lower", _W),
    ("windows.markov.kneading_numerator.self_s", "s", "lower", _W),
    *_calls_self("windows", "kneading.determinant_polynomial", _W),
    *_calls_self("windows", ROOT_FINDER + ".poly", _W),
    ("windows.words.admissible_cycles.self_s", "s", "lower", _W),
    *[(f"windows.fail.{reason}", "count", "lower", _WOK)
      for reason in workloads.FAIL_REASONS],
    ("windows.markov.crosscheck.max_dt", "1", "lower",
     "none: correctness reading"),
    *_pass_rows("windows"),
)


def layer_values(workload: str, tracer: Tracer, detail: dict,
                 untraced_s: float, traced_s: float) -> dict:
    """Every value one traced pass yields, named as in LAYER_METRICS."""
    v: dict = {}
    for span, calls in tracer.calls.items():
        v[f"{span}.calls"] = calls
        v[f"{span}.self_s"] = tracer.self_s[span]
    v.update(tracer.counts)
    tested = tracer.counts["words.is_admissible.calls"]
    if tested:
        v["words.admissible_share"] = \
            tracer.counts["words.is_admissible.admissible"] / tested
    points = tracer.counts["markov.points.exact"] + tracer.counts["markov.points.series"]
    if points:
        v["markov.exact_share"] = tracer.counts["markov.points.exact"] / points
    if "output_bytes" in detail:
        v["cli.output_bytes"] = detail["output_bytes"]
    for reason, count in detail.get("fail", {}).items():
        v[f"fail.{reason}"] = count
    if "max_dt" in detail:
        v["markov.crosscheck.max_dt"] = detail["max_dt"]
    v["traced_wall_s"] = traced_s
    v["untraced_wall_s"] = untraced_s
    v["trace_overhead_s"] = traced_s - untraced_s
    return {f"{workload}.{name}": value for name, value in v.items()}
