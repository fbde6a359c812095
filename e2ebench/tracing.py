"""In-memory span recorder for the traced pass.

Spans are recorded by the benchmark around its calls into the program's
public API; nothing inside ``src/`` is instrumented.  Every span keeps its
name, start, end, parent and iteration id in memory, and the whole list
is written out once the run ends.  A layer's *self time* is its span's
duration minus the durations of its direct children (one thread, so
children never overlap each other).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """The timed passes' tracer: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL


class Tracer:
    """Records nested spans on one thread."""

    enabled = True

    def __init__(self):
        #: ``[name, start_s, end_s, parent index or -1, iteration id]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.iteration]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds within iterations.

        Spans recorded outside an iteration (iteration id -1) are left out.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, iteration) in enumerate(self.spans):
            if iteration < 0:
                continue
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[index]
        return table

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def export(self) -> list[dict]:
        return [
            {"name": name, "start_s": start, "end_s": end, "parent": parent, "iteration": it}
            for name, start, end, parent, it in self.spans
        ]
