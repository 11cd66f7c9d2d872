"""Spans and counters recorded around calls into the solver's layers.

The tracer wraps module attributes from outside the package, so the code
under test is unchanged. A span is named ``<layer>.<function>`` and records
its start, end, parent span and the id of the formula being solved. Spans
are kept in memory and written once, when the repetition ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

Counter = Callable[[dict[str, float], tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        # (span id, parent span id or -1, formula id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.formula = -1
        self._stack: list[int] = []

    def wrap(
        self, owner: Any, attr: str, name: str, count: Counter | None = None
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(counters, args, result)`` runs after the span has ended and
        is recorded as a ``trace.count`` span, so the work of counting is
        charged to tracing, not to a layer.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((sid, parent, self.formula, name, 0, 0))
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.formula, name, start, end)
            if count is not None:
                count(self.counters, args, result)
                # A sibling span, so that no enclosing layer is charged either.
                self.spans.append(
                    (len(self.spans), parent, self.formula, "trace.count", end,
                     time.perf_counter_ns())
                )
            return result

        setattr(owner, attr, traced)

    def self_seconds(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            totals[name] += (end - start - child_ns[sid]) / 1e9
        return dict(totals)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "formula", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
