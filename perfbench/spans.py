"""In-memory span tracer for the traced benchmark run.

The tracer replaces a program function with a wrapper that records one span
per call: name, start, end, parent span and the operation the call served.
A function is replaced wherever a loaded ``anomaloop`` module holds it,
because callers look functions up in their own namespace: ``step`` is
imported by name into ``executor``, ``metrics`` and ``scenarios``, and only
patching every one of those names catches every call.

Self time is a span's duration minus the time of its direct children.  Calls
are sequential on one thread, so the children never overlap and their sum is
the part of the interval they cover.  Aggregates (calls, total, self) are kept
per phase for every span; raw spans are kept up to ``span_cap`` and written
out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PHASES = ("setup", "warm", "timed")


class _Frame:
    __slots__ = ("name", "start", "child", "index", "notes")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.notes: dict = {}


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self.stack: list[_Frame] = []
        self.phase = "setup"
        self.op = -1  # index of the operation being served; -1 outside ops
        # phase -> name -> [calls, total_s, self_s]
        self.agg: dict[str, dict[str, list]] = {p: {} for p in PHASES}
        # phase -> counter name -> value, fed by the hooks
        self.counters: dict[str, dict[str, float]] = {p: {} for p in PHASES}
        self._patches: list[tuple[object, str, object]] = []

    # ── recording ─────────────────────────────────────────────────────────

    def count(self, name: str, amount: float = 1) -> None:
        bucket = self.counters[self.phase]
        bucket[name] = bucket.get(name, 0) + amount

    def parent(self) -> _Frame | None:
        return self.stack[-1] if self.stack else None

    def wrap(self, name, fn, namer=None, hook=None):
        """Wrapper recording a span per call of ``fn``.

        ``namer(args)`` names the span from the call's arguments when one
        name does not fit every call; ``hook(tracer, frame, args, result)``
        runs after a call that returned.
        """
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = namer(args) if namer is not None else name
            parent_index = stack[-1].index if stack else -1
            if len(self.spans) < self.span_cap:
                index = len(self.spans)
                self.spans.append(None)  # reserved; filled on exit
            else:
                index = -1
                self.dropped += 1
            frame = _Frame(span_name, clock(), index)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                entry = self.agg[self.phase].get(span_name)
                if entry is None:
                    entry = self.agg[self.phase][span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame.child
                if index >= 0:
                    self.spans[index] = (span_name, frame.start, end, parent_index, self.op)
            if hook is not None:
                hook(self, frame, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ── installation ──────────────────────────────────────────────────────

    def patch_function(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` in every loaded anomaloop namespace."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook=hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "anomaloop" or mod_name.startswith("anomaloop.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, namer=None, hook=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, namer=namer, hook=hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ── reading ───────────────────────────────────────────────────────────

    def calls(self, name: str, phase: str = "timed") -> int:
        return self.agg[phase].get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str, phase: str = "timed") -> float:
        return self.agg[phase].get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str, phase: str = "timed") -> float:
        return self.agg[phase].get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str, phase: str = "timed") -> float:
        return self.counters[phase].get(name, 0)

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON lines, then the per-phase aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"aggregates": self.agg, "counters": self.counters, "dropped_spans": self.dropped}) + "\n")
