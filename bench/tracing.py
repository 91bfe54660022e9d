"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, pass id).  Names are "<layer>.<call>",
so a layer's self time is the summed duration of its spans minus the part
covered by their child spans.  Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None, pass id]
        self.results = {}        # span name -> return values of wrapped calls
        self.pass_id = 0
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        self.results.setdefault(name, []).append(out)
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def patch(self, module, attr: str, replacement) -> None:
        """Rebind module.attr until unpatch(); callers that look the name up
        in that module at call time then go through the replacement."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- summaries --------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> list:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_time_of(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s[0] == name)

    def layer_self_times(self) -> dict:
        out = {}
        for s, t in zip(self.spans, self.self_times()):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, path, extra: dict) -> None:
        """Write every span plus the per-layer self-time summary as JSON."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc["self_s"] = self.layer_self_times()
        doc["spans"] = [{"name": n, "start": a - t0, "end": b - t0,
                         "parent": p, "pass": k}
                        for n, a, b, p, k in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
