"""Span tracing for the benchmark's traced run.

The tracer replaces public functions with timing wrappers in the module
namespaces where their callers look them up, records one span per call
(name, parent span, start, end) in memory, and restores every original
function when the ``patched`` block exits, also when the workload raises.

Per-layer figures are derived from the spans:

* ``<name>.s``: total time of the spans of that name that do not sit inside
  another span of the same group (so recursion and nested constructors are
  not counted twice);
* ``<name>.self_s``: span durations minus the time of their direct children
  (calls run one after another, so the children never overlap);
* ``<name>.calls``: exact number of spans of that name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder.  Spans are ``[name, parent, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.groups: dict[str, str] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, group=None, label=None):
        """Timing wrapper around ``fn``.

        ``label(args, kwargs)``, when given, returns a suffix that is
        appended to ``name`` per call (e.g. the PDT family of a channel).
        """
        spans, stack, groups = self.spans, self._stack, self.groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{label(args, kwargs)}" if label else name
            groups.setdefault(span_name, group or name)
            idx = len(spans)
            spans.append([span_name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = t0
                spans[idx][3] = time.perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets`` and restore the originals on exit.

        Each target is ``(module_name, attribute, span_name, group, label)``;
        one function may be patched in several modules under one span name.
        """
        saved = []
        try:
            for module_name, attr, name, group, label in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, group, label))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, float]:
        """``.s``, ``.self_s`` and ``.calls`` for every span name seen."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if not self._has_group_ancestor(i):
                out[f"{name}.s"] += dur
        return dict(out)

    def _has_group_ancestor(self, i: int) -> bool:
        group = self.groups[self.spans[i][0]]
        parent = self.spans[i][1]
        while parent >= 0:
            if self.groups[self.spans[parent][0]] == group:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path: Path) -> None:
        """Write the spans as JSON, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round(t0 - origin, 9), round(t1 - origin, 9)]
                for n, p, t0, t1 in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["name", "parent", "start_s", "end_s"],
                                    "spans": rows}))
