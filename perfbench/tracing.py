"""Spans around divmatch's public functions, recorded from outside.

The tracer replaces each public function named in PATCHES with a wrapper
in every module that looks it up, so calls between solver modules (exact
calling warm_start, warm_start calling the greedy solver, every solver
calling is_feasible_bounds) are recorded as well as the benchmark's own
calls.  Nothing under src/ changes; leaving the context restores the
original functions.

A span is (name, start, end, parent span, instance id).  Spans of solver
entry points also keep their arguments and return value, because the
per-layer counters (augmentations, nodes expanded, subsets enumerated)
are read from what those functions return.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from divmatch import (exact, greedy, instance, metrics, minweight, objective,
                      oracle)

# span name -> (defining module, function name, modules that call it)
PATCHES = {
    "minweight.solve_min_weight": (minweight, "solve_min_weight",
                                   (minweight, exact)),
    "minweight.reduce_to_circulation": (minweight, "reduce_to_circulation",
                                        (minweight,)),
    "minweight.solve_circulation": (minweight, "solve_circulation",
                                    (minweight,)),
    "greedy.solve_diverse_greedy": (greedy, "solve_diverse_greedy",
                                    (greedy, exact)),
    "exact.solve_diverse_exact": (exact, "solve_diverse_exact", (exact,)),
    "exact.warm_start": (exact, "warm_start", (exact,)),
    "oracle.brute_force": (oracle, "brute_force", (oracle,)),
    "metrics.compute_metrics": (metrics, "compute_metrics", (metrics,)),
    "instance.is_feasible_bounds": (instance, "is_feasible_bounds",
                                    (instance, minweight, greedy, exact)),
    "instance.check_matching": (instance, "check_matching",
                                (instance, minweight, greedy, exact)),
    "objective.total_weight": (objective, "total_weight",
                               (objective, minweight, greedy, exact, oracle)),
    "objective.diversity_cost": (objective, "diversity_cost",
                                 (objective, minweight, greedy, exact,
                                  oracle)),
}

# Spans whose arguments and result the per-layer metrics read.
KEEP_IO = frozenset({
    "minweight.solve_circulation", "greedy.solve_diverse_greedy",
    "exact.solve_diverse_exact", "exact.warm_start", "oracle.brute_force",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance_id", "args",
                 "result", "child_time")

    def __init__(self, name, start, parent, instance_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance_id = instance_id
        self.args = None
        self.result = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.instance_id = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.instance_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        keep = name in KEEP_IO

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.args = args + tuple(kwargs.values())
                span.result = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for name, (home, attr, users) in PATCHES.items():
                wrapper = self._wrap(name, getattr(home, attr))
                for module in users:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
