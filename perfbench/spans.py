"""Spans around the benchmark's calls into qce.

Every call into the program goes through ``tracer.call(fn, ...)``.  The
untraced run uses :class:`NullTracer`, which only calls ``fn``; the traced run
uses :class:`Tracer`, which keeps one span per call in memory (name
``module.function``, start, end, operation id, parent span, phase) plus named
counts, and writes them out once the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class NullTracer:
    enabled = False
    phase = "setup"
    op = None

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id: int, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def tag(self, value: str) -> None:
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._op_span: int | None = None
        self._last: dict | None = None

    def call(self, fn, *args, **kwargs):
        rec = {
            "name": span_name(fn),
            "phase": self.phase,
            "op": self.op,
            "parent": self._op_span,
            "start": time.perf_counter(),
        }
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self.spans.append(rec)
            self._last = rec

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self._op_span = len(self.spans)
        self.spans.append({
            "name": f"op.{kind}",
            "phase": self.phase,
            "op": op_id,
            "parent": None,
            "start": time.perf_counter(),
        })

    def end_op(self) -> None:
        self.spans[self._op_span]["end"] = time.perf_counter()
        self.op = None
        self._op_span = None

    def tag(self, value: str) -> None:
        """Qualify the most recent call's span, e.g. by the verdict it returned."""
        self._last["tag"] = value

    def count(self, name: str, n: float = 1) -> None:
        if self.phase == "timed":
            self.counts[name] += n

    def totals_ms(self, phase: str) -> Counter:
        """Summed duration per span key (``name`` or ``name:tag``) within one phase."""
        out: Counter = Counter()
        for s in self.spans:
            if s["phase"] != phase or s["name"].startswith("op."):
                continue
            key = s["name"] + (":" + s["tag"] if "tag" in s else "")
            out[key] += (s["end"] - s["start"]) * 1e3
            out["#" + key] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
