"""In-memory spans recorded around calls into qdissonance.

A span is (name, start_ns, end_ns, parent index, item id, error).  Spans
are written out once, when the run ends.  A span whose call raised is
kept but marked, and left out of the durations.  ``NO_TRACE`` has the same
interface and records nothing, for the untraced runs.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        rec = [name, time.perf_counter_ns(), None, self._open[-1] if self._open else None, item, False]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec[5] = True
            raise
        finally:
            self._open.pop()
            rec[2] = time.perf_counter_ns()

    def durations(self) -> dict[str, list[float]]:
        """Wall seconds of every span whose call returned, by name."""
        out = defaultdict(list)
        for name, start, end, _, _, error in self.spans:
            if not error:
                out[name].append((end - start) * 1e-9)
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and median self time (duration minus direct children)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_name = defaultdict(list)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            per_name[name].append((end - start - child[i]) * 1e-6)
        return {
            name: {"count": len(v), "self_ms_total": sum(v), "self_ms_p50": statistics.median(v)}
            for name, v in sorted(per_name.items())
        }

    def records(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "item": i, "error": err}
            for n, s, e, p, i, err in self.spans
        ]


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str, item=None):
        return self._null


NO_TRACE = _NoTrace()
