"""Spans recorded from outside the program, around its public functions.

The benchmark wraps the functions each layer exposes (as the calling
module looks them up) for the length of a traced segment, then restores
them.  A span records its name, start, end and parent; spans stay in
memory and are written out when the benchmark ends.  A layer's self time
is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time

#: Span name -> (module, attribute path) of every function wrapped while
#: tracing.  A function imported into several modules is wrapped where
#: each caller looks it up; methods are wrapped on their class.
PATCH_POINTS = {
    "longest_topological_delay": [("repro.report.harness", "longest_topological_delay")],
    "floating_delay": [("repro.report.harness", "floating_delay")],
    "transition_delay": [("repro.report.harness", "transition_delay")],
    "minimum_cycle_time": [("repro.report.harness", "minimum_cycle_time")],
    "build_discretized_machine": [("repro.mct.engine", "build_discretized_machine")],
    "collect_leaf_instances": [
        ("repro.mct.discretize", "collect_leaf_instances"),
        ("repro.delay.floating", "collect_leaf_instances"),
        ("repro.delay.transition", "collect_leaf_instances"),
    ],
    "TimedExpander.expand": [("repro.timed.expansion", "TimedExpander.expand")],
    "DecisionContext.decide": [("repro.mct.decision", "DecisionContext.decide")],
    "sigma_sup_tau": [("repro.mct.engine", "sigma_sup_tau")],
    "point_sigma_sup_tau": [("repro.mct.lp_exact", "point_sigma_sup_tau")],
    "ExactFeasibility.sup_tau_options": [
        ("repro.mct.lp_exact", "ExactFeasibility.sup_tau_options")
    ],
}

SWEEP = "minimum_cycle_time"


class Tracer:
    """In-memory span recorder; one parent stack per thread.

    A span is the tuple ``(id, name, start_ns, end_ns, parent_id)``,
    appended when it ends; ``parent_id`` is -1 for a root.  Tuples of
    numbers and strings drop out of the garbage collector's scans, so a
    long trace does not slow the program it traces.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every ``PATCH_POINTS`` function until the block ends."""
        saved = []
        try:
            for name, points in PATCH_POINTS.items():
                for module_name, attr_path in points:
                    owner = importlib.import_module(module_name)
                    *owners, attr = attr_path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def export(self) -> list[tuple]:
        """Spans in start order."""
        return sorted(self.spans)


def aggregate(spans: list[tuple]) -> dict:
    """Per-name totals, self times and counts over ``spans``.

    ``total`` counts only spans with no same-named ancestor, so a
    re-entrant call is not counted twice.  ``in_sweep`` and
    ``in_sweep_self`` are the total and self time of the spans that run
    inside a ``minimum_cycle_time`` span.
    """
    by_id = {rec[0]: rec for rec in spans}
    child_ns: dict[int, int] = {}
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    out: dict[str, dict] = {}
    for sid, name, start, end, parent in spans:
        ancestors = []
        while parent >= 0:
            ancestors.append(by_id[parent][1])
            parent = by_id[parent][4]
        entry = out.setdefault(name, dict.fromkeys(
            ("total", "self", "count", "in_sweep", "in_sweep_self"), 0
        ))
        dur = (end - start) / 1e9
        own = dur - child_ns.get(sid, 0) / 1e9
        entry["count"] += 1
        entry["self"] += own
        if name not in ancestors:
            entry["total"] += dur
        if name == SWEEP or SWEEP in ancestors:
            entry["in_sweep"] += dur
            entry["in_sweep_self"] += own
    return out
