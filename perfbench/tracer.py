"""In-memory spans around calls into orbitspan's public functions.

The tracer replaces a function by a timing wrapper everywhere a loaded
``orbitspan`` module binds it, so ``from .rational import solve`` in another
module is caught too.  Nothing under ``src/`` is edited.  A target that a
refactor removed is recorded in ``missing`` instead of raising, so the metrics
that depend on it can be reported as missing.

Each thread keeps its own span arrays and call stack; self time is a span's
duration minus the time its direct children cover, accumulated at exit.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "orbitspan"


class _ThreadSpans:
    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[list] = []  # [span index, child time]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, fn, name: str, before=None, after=None):
        """Timing wrapper around ``fn``; ``before(counts, args)`` and
        ``after(counts, args, result)``, when given, add to ``self.counts``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counts, args)
            spans = tracer._spans()
            stack = spans.stack
            idx = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(stack[-1][0] if stack else -1)
            spans.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            spans.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                spans.end[idx] = t1
                stack.pop()
                duration = t1 - t0
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module_name: str, attr: str, name: str, before=None, after=None) -> bool:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return False
        self.originals[name] = original
        wrapper = self.wrap(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def patch_method(self, module_name: str, class_name: str, attr: str, name: str) -> bool:
        cls = getattr(sys.modules.get(module_name), class_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if not callable(original):
            self.missing.append(f"{module_name}.{class_name}.{attr}")
            return False
        self.originals[name] = original
        setattr(cls, attr, self.wrap(original, name))
        return True

    def intervals(self, name: str) -> list[tuple[float, float]]:
        nid = self._ids.get(name)
        out = []
        for spans in self._threads:
            out.extend(
                (spans.start[i], spans.end[i]) for i in range(len(spans.name)) if spans.name[i] == nid
            )
        return sorted(out)

    def inclusive_s(self, name: str) -> float:
        """Summed duration of the outermost spans of ``name``."""
        return _union_length(self.intervals(name))

    def write(self, path: str, extra: dict) -> int:
        """Write every span as ``[name, start, end, parent]`` (parent indexes the
        same thread's list); returns the number of spans written."""
        threads = []
        total = 0
        for spans in self._threads:
            rows = [
                [self.names[spans.name[i]], spans.start[i], spans.end[i], spans.parent[i]]
                for i in range(len(spans.name))
            ]
            total += len(rows)
            threads.append(rows)
        with open(path, "w") as fh:
            json.dump(dict(extra, threads=threads), fh, separators=(",", ":"))
        return total


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def overlap_length(outer: list[tuple[float, float]], inner: list[tuple[float, float]]) -> float:
    """Length of the union of ``inner`` intervals that lies inside ``outer`` ones."""
    clipped = []
    for o_start, o_end in outer:
        for i_start, i_end in inner:
            start, end = max(o_start, i_start), min(o_end, i_end)
            if start < end:
                clipped.append((start, end))
    return _union_length(sorted(clipped))
