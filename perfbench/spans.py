"""In-memory span recorder that wraps functions from outside the program.

The package imports most collaborators by name (``from .meso import
advance_rows``), so a function is wrapped at the module attribute where
its caller looks it up, not where it is defined.  Each call records a
span ``[name, start, end, parent]``; spans stay in memory until the run
ends.  A span's self time is its duration minus the time covered by its
children, which in this single-threaded program is the sum of their
durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``count(counters, args, result)``, when given, adds layer counters
        from the arguments and the return value of each call.
        """
        orig = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(counters, args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
            entry["durations"].append(end - start)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON list per line, relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")
