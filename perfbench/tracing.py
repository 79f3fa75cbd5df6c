"""Span tracer for the per-layer benchmark numbers.

The tracer wraps module and class attributes of ``cstriple`` that callers
look up at call time (``explorer.sample_point``, ``Polynomial.__mul__``,
...) and restores every one of them on ``uninstall``.  Nothing inside
``src/`` is edited: spans are recorded around the calls into each layer.

Each wrapped call appends one span ``[name, parent, start, end]`` to an
in-memory list.  ``end_request`` folds the spans of one request into
accumulators; a span's self time is its duration minus the durations of its
direct children.  Accumulators are plain dicts, so a traced child process
can hand them to the parent as JSON (``sums``/``merge``).

A hook whose target no longer exists is skipped and its name recorded in
``absent``; every metric derived from it is then reported as absent instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

from workloads import CHECK_NAMES

# Span fed by the counted-only hook on MacroState.is_feasible: one rejection
# attempt per feasibility test made directly inside _draw_state.
DRAW_SPAN = "explorer._draw_state"


def _after_poly(tracer, args, result):
    if result is not NotImplemented:
        tracer.peak("poly.terms", len(result.terms))


def _after_mul(tracer, args, result):
    if result is not NotImplemented:
        other = args[1]
        width = len(other.terms) if hasattr(other, "terms") else 1
        tracer.count("poly.mul.term_products", len(args[0].terms) * width)
        tracer.peak("poly.terms", len(result.terms))


def _after_sample_point(tracer, args, result):
    tracer.count("explorer.sample_point.zero_coords", sum(1 for v in result if not v))


def _after_search_range(tracer, args, result):
    tracer.count("explorer.hits", len(result.counterexamples))


def _after_compile(tracer, args, result):
    return tracer.wrap(result, "poly.evaluate")


# run_check spans are named per check: verifier.check.<name>.
CHECK_SPAN = "verifier.check"


def _check_span(args, kwargs):
    check = args[0] if args else kwargs["check"]
    return f"{CHECK_SPAN}.{check}"


# (module, class or "", attribute, span name, after-hook).  The after-hook
# may return a replacement result (used to wrap the compiled evaluator
# closure so each evaluation gets its own span).
HOOKS = (
    ("cstriple.cli", "", "main", "cli.main", None),
    ("cstriple.poly", "Polynomial", "__mul__", "poly.mul", _after_mul),
    ("cstriple.poly", "Polynomial", "__rmul__", "poly.mul", _after_mul),
    ("cstriple.poly", "Polynomial", "__add__", "poly.add", _after_poly),
    ("cstriple.poly", "Polynomial", "__radd__", "poly.add", _after_poly),
    ("cstriple.poly", "Polynomial", "substitute", "poly.substitute", _after_poly),
    ("cstriple.verifier", "", "run_check", CHECK_SPAN, None),
    ("cstriple.verifier", "", "check_equal", "verifier.check_equal", None),
    ("cstriple.explorer", "", "resolve_target", "explorer.resolve_target", None),
    ("cstriple.explorer", "", "compile_evaluator", "poly.compile_evaluator", _after_compile),
    ("cstriple.explorer", "", "random_search", "explorer.random_search", None),
    ("cstriple.explorer", "", "search_range", "explorer.search_range", _after_search_range),
    ("cstriple.explorer", "", "sample_point", "explorer.sample_point", _after_sample_point),
    ("cstriple.explorer", "", "minimize_fuzz", "explorer.minimize_fuzz", None),
    ("cstriple.explorer", "", "_draw_state", DRAW_SPAN, None),
    ("cstriple.explorer", "", "greedy_minimize_z", "explorer.greedy_minimize_z", None),
    ("cstriple.explorer", "", "case_classify", "explorer.case_classify", None),
    ("cstriple.explorer", "MacroState", "d_value", "explorer.d_value", None),
)
# Every corpus.build_* function found at install time is hooked as one layer.
CORPUS_SPAN = "corpus.build"
ATTEMPTS = "explorer.draw.attempts"


# metric -> (accumulator, key, per, scale, hook whose absence voids it).
# Accumulators: calls, total (inclusive seconds), self_time, counts, peaks;
# "ratio" is the draw acceptance ratio.  ``per`` names the unit of work the
# value is divided by (None: reported as is).
LAYER_METRICS = {
    "poly.mul.calls": ("calls", "poly.mul", "request", 1, "poly.mul"),
    "poly.mul.term_products": ("counts", "poly.mul.term_products", "request", 1, "poly.mul"),
    "poly.peak_terms": ("peaks", "poly.terms", None, 1, "poly.mul"),
    "poly.mul.self_ms": ("self_time", "poly.mul", "request", 1e3, "poly.mul"),
    "poly.add.calls": ("calls", "poly.add", "request", 1, "poly.add"),
    "poly.add.self_ms": ("self_time", "poly.add", "request", 1e3, "poly.add"),
    "poly.substitute.calls": ("calls", "poly.substitute", "request", 1, "poly.substitute"),
    "poly.substitute.self_ms": ("self_time", "poly.substitute", "request", 1e3, "poly.substitute"),
    "corpus.build.calls": ("calls", CORPUS_SPAN, "request", 1, CORPUS_SPAN),
    "corpus.build.self_ms": ("self_time", CORPUS_SPAN, "request", 1e3, CORPUS_SPAN),
    **{
        f"{CHECK_SPAN}.{check}.ms": ("total", f"{CHECK_SPAN}.{check}", "request", 1e3, CHECK_SPAN)
        for check in CHECK_NAMES
    },
    "verifier.check_equal.ms": ("total", "verifier.check_equal", "request", 1e3, "verifier.check_equal"),
    "explorer.resolve_target.ms": ("total", "explorer.resolve_target", "request", 1e3, "explorer.resolve_target"),
    "poly.compile_evaluator.ms": ("total", "poly.compile_evaluator", "request", 1e3, "poly.compile_evaluator"),
    "explorer.sample_point.us": ("total", "explorer.sample_point", "sample", 1e6, "explorer.sample_point"),
    "explorer.sample_point.zero_coords": ("counts", "explorer.sample_point.zero_coords", "sample", 1, "explorer.sample_point"),
    "poly.evaluate.us": ("total", "poly.evaluate", "sample", 1e6, "poly.compile_evaluator"),
    "explorer.fold.us": ("self_time", "explorer.search_range", "sample", 1e6, "explorer.search_range"),
    "explorer.hits": ("counts", "explorer.hits", "request", 1, "explorer.search_range"),
    "explorer.hit_frac": ("counts", "explorer.hits", "sample", 1, "explorer.search_range"),
    "cli.self_ms": ("self_time", "cli.main", "request", 1e3, "cli.main"),
    "explorer.draw.us": ("total", DRAW_SPAN, "state", 1e6, DRAW_SPAN),
    "explorer.draw.attempts": ("counts", ATTEMPTS, "state", 1, ATTEMPTS),
    "explorer.draw.accept_ratio": ("ratio", None, None, 1, ATTEMPTS),
    "explorer.greedy_minimize_z.us": ("total", "explorer.greedy_minimize_z", "state", 1e6, "explorer.greedy_minimize_z"),
    "explorer.case_classify.us": ("total", "explorer.case_classify", "state", 1e6, "explorer.case_classify"),
    "explorer.d_value.calls": ("calls", "explorer.d_value", "state", 1, "explorer.d_value"),
    "explorer.minimize_fuzz.self_us": ("self_time", "explorer.minimize_fuzz", "state", 1e6, "explorer.minimize_fuzz"),
    # Vertex cases reached by the fuzz, as a share of states (FuzzSummary).
    **{f"explorer.case.{case}": ("counts", f"explorer.case.{case}", "state", 1, None) for case in ("i", "ii", "iii", "iv")},
}


class Tracer:
    """Spans and accumulators of one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.overhead = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def wrap(self, func, name, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                # The after-hook's bookkeeping is charged to this span, not
                # to the caller's self time.
                if after is not None:
                    replaced = after(self, args, result)
                    if replaced is not None:
                        result = replaced
            finally:
                span[3] = perf_counter()
                span[2] = start
                stack.pop()
            return result

        return traced

    def _wrap_attempts(self, func):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == DRAW_SPAN:
                counts[ATTEMPTS] += 1
            return func(*args, **kwargs)

        return counted

    def calibrate(self, rounds: int = 7, calls: int = 2000) -> None:
        """Measure the wrapper cost a traced call adds outside its own span.

        ``end_request`` takes it off the caller's self time, so a thin layer
        that makes many traced calls (the search fold) is not swamped by the
        tracer's own bookkeeping.
        """
        traced = self.wrap(lambda: None, "calibrate")
        samples = []
        for _ in range(rounds):
            start = perf_counter()
            for _ in range(calls):
                traced()
            middle = perf_counter()
            for _ in range(calls):
                pass
            end = perf_counter()
            inside = sum(span[3] - span[2] for span in self.spans)
            self.spans.clear()
            samples.append(((middle - start) - (end - middle) - inside) / calls)
        self.overhead = max(0.0, statistics.median(samples))

    def end_request(self) -> None:
        """Fold the spans of the finished request into the accumulators."""
        spans = self.spans
        for name, parent, start, end in spans:
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration
            if parent >= 0:
                self.self_time[spans[parent][0]] -= duration + self.overhead
        spans.clear()

    # -- installing the hooks --------------------------------------------------

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self.calibrate()
        for module_name, class_name, attr, span, after in HOOKS:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            if owner is None or attr not in vars(owner):
                self.absent.add(span)
                continue
            name = _check_span if span == CHECK_SPAN else span
            self._replace(owner, attr, self.wrap(getattr(owner, attr), name, after))
        corpus = importlib.import_module("cstriple.corpus")
        builders = [a for a, v in vars(corpus).items() if a.startswith("build_") and callable(v)]
        if not builders:
            self.absent.add(CORPUS_SPAN)
        for attr in builders:
            self._replace(corpus, attr, self.wrap(getattr(corpus, attr), CORPUS_SPAN))
        state = getattr(importlib.import_module("cstriple.explorer"), "MacroState", None)
        if state is None or "is_feasible" not in vars(state):
            self.absent.add(ATTEMPTS)
        else:
            self._replace(state, "is_feasible", self._wrap_attempts(state.is_feasible))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- moving accumulators between processes ----------------------------------

    def metrics(self, requests: int, samples: int, states: int) -> dict[str, float | None]:
        """Every layer metric of LAYER_METRICS, or None where its hook is absent.

        Values are given per request, per search sample or per fuzz state; a
        layer the workload never enters reads 0.
        """
        per = {"request": requests, "sample": samples, "state": states, None: 1}
        out = {}
        for metric, (field, key, unit, scale, hook) in LAYER_METRICS.items():
            if hook in self.absent:
                out[metric] = None
            elif field == "ratio":
                attempts = self.counts[ATTEMPTS]
                out[metric] = self.calls[DRAW_SPAN] / attempts if attempts else 0.0
            else:
                base = per[unit]
                out[metric] = getattr(self, field)[key] * scale / base if base else 0.0
        return out

    def sums(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "absent": sorted(self.absent),
        }

    def merge(self, sums: dict) -> None:
        for field in ("calls", "total", "self_time", "counts"):
            acc = getattr(self, field)
            for key, value in sums[field].items():
                acc[key] += value
        for key, value in sums["peaks"].items():
            self.peak(key, value)
        self.absent.update(sums["absent"])
