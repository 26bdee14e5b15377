"""The benchmark's own in-memory spans around calls into the program.

Each span records its name, start, end, parent span and the operation
it belongs to (spans of one operation share ``op``).  Nothing is
written until :meth:`SpanLog.write` at the end of a traced run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class SpanLog:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name, **attributes):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attributes)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name):
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def median_ms(self, name):
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def write(self, path):
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
