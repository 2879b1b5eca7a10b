"""Spans around calls into gensel's public functions, recorded from outside src/.

``Tracer.install`` replaces each traced function, in every loaded ``gensel``
module that refers to it, with a wrapper that records a span: name, size
tag, start, end and the index of the enclosing span.  Spans stay in memory;
``span_metric`` turns them into the per-layer figures named in
BENCHMARK.json.  Functions too small to wrap per call (Pauli products,
single-state kernels) are timed in blocks by the workloads instead.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    tag: str
    start: float
    end: float
    parent: int


def _n(obj) -> str:
    return f"n{obj.n}"


def _exact_tag(problem, *_, **__) -> str:
    n, budget = problem.observable.n, problem.budget
    # Past 2n no L-clique exists, so solve_exact falls through to branch-and-bound.
    return f"clique.n{n}" if budget <= 2 * n else f"bnb.L{budget}"


# (module, attribute, tag of the call's size from its arguments)
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("cli", "main", lambda argv, *a, **k: argv[0]),
    ("experiments", "generate_dataset", None),
    ("experiments", "select_for_method", lambda method, *a, **k: method),
    ("experiments", "expressibility_hellinger", lambda m, *a, **k: _n(m)),
    ("experiments", "run_trial", None),
    ("selection", "build_pool", lambda o, *a, **k: _n(o)),
    ("selection", "score_matrix", lambda c, *a, **k: _n(c[0])),
    ("selection", "solve_exact", _exact_tag),
    ("selection", "select_baseline", lambda method, n, *a, **k: f"{method}.n{n}"),
    ("simulator", "run_model_batch", lambda m, *a, **k: _n(m)),
    ("optimizer", "train", lambda m, *a, **k: _n(m)),
    ("optimizer", "spsa_step", None),
    ("theory", "casimir_constant", lambda n, *a, **k: f"n{n}"),
    ("theory", "verify_theorem1", lambda o, *a, **k: _n(o)),
    ("theory", "verify_lemma1", lambda o, *a, **k: _n(o)),
    ("theory", "verify_lemma2_and_theorem2", lambda o, *a, **k: _n(o)),
    ("svg", "write_curves_svg", None),
]

# metric stem -> (span name, tag prefix, top-level spans only)
ALIASES = {
    "selection.solve_exact_clique": ("selection.solve_exact", "clique.", False),
    "selection.problem_build": ("selection.SelectionProblem.build", "", False),
    "experiments.expressibility": ("experiments.expressibility_hellinger", "", False),
    "theory.verify_lemma2": ("theory.verify_lemma2_and_theorem2", "", False),
    # The benchmark calls casimir_constant itself only after clearing its
    # cache or past it, so the top-level calls are the cold ones.
    "theory.casimir_constant": ("theory.casimir_constant", "", True),
}

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


class Tracer:
    """Records spans for calls into gensel while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, tag: Callable | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                try:
                    label = tag(*args, **kwargs) if tag else ""
                except Exception:  # a changed signature loses the tag, not the span
                    label = ""
                spans[index] = Span(name, label, start, end, parent)

        functools.update_wrapper(traced, fn)
        inner = fn
        while hasattr(inner, "__wrapped__"):
            inner = inner.__wrapped__
        if inner is not fn:  # a cached function: its uncached calls get spans too
            traced.uncached = self._wrap(name, inner, tag)
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gensel"]
        for module_name, attr, tag in TARGETS:
            owner = sys.modules.get(f"gensel.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self._wrap(f"{module_name}.{attr}", original, tag)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))
        problem = getattr(sys.modules.get("gensel.selection"), "SelectionProblem", None)
        build = vars(problem).get("build") if problem is not None else None
        if isinstance(build, classmethod):
            traced = self._wrap(
                "selection.SelectionProblem.build",
                build.__func__,
                lambda cls, o, *a, **k: _n(o),
            )
            setattr(problem, "build", classmethod(traced))
            self._undo.append((problem, "build", build))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def durations(self, name: str, tag: str | None = None, top_level=False):
        return [
            s.end - s.start
            for s in self.spans
            if s is not None
            and s.name == name
            and (tag is None or s.tag == tag)
            and (not top_level or s.parent == -1)
        ]

    def _ancestor_named(self, span: Span, name: str) -> bool:
        while span.parent != -1:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def span_metric(self, metric: str) -> float | None:
        """Median duration of the spans a metric names, in the metric's unit.

        Metric names read ``<layer>.<function>_<unit>[.<tag>]``; for the CLI
        the function is the subcommand.  None when the name is not of that form.
        """
        layer, rest = metric.split(".", 1)
        head, _, tag = rest.partition(".")
        stem, _, unit = head.rpartition("_")
        if unit not in SCALE or not stem:
            return None
        if layer == "cli":
            name, tag = "cli.main", stem
            top_level = False
        else:
            name, prefix, top_level = ALIASES.get(
                f"{layer}.{stem}", (f"{layer}.{stem}", "", False)
            )
            tag = prefix + tag
        values = self.durations(name, tag, top_level)
        return statistics.median(values) * SCALE[unit] if values else 0.0

    def derived(self, rounds: int) -> dict[str, float]:
        """Counts and ratios that span several traced functions."""
        spans = [s for s in self.spans if s is not None]
        batches = [s for s in spans if s.name == "simulator.run_model_batch"]
        train_total = sum(s.end - s.start for s in spans if s.name == "optimizer.train")
        in_train = sum(
            s.end - s.start for s in batches if self._ancestor_named(s, "optimizer.train")
        )
        return {
            "simulator.cost_evals": len(batches) / rounds,
            "optimizer.overhead_share": (
                (train_total - in_train) / train_total if train_total else 0.0
            ),
        }


def per_call(fn, calls, repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the mean seconds per call."""
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        passes.append((time.perf_counter() - start) / len(calls))
    return statistics.median(passes)
