"""In-memory span tracing, installed from the benchmark's side only.

Nothing under ``src/`` is instrumented.  The traced run wraps the
public functions named in ``README.md`` on the classes the benchmark
constructs, and the workloads bracket their own calls with
:meth:`Tracer.span`.  Each span records name, start, end, the span that
caused it, the thread, and the run's id; spans stay in memory until
:meth:`Tracer.write`.  A hook whose target attribute is gone is skipped
with one warning and its metrics read as unavailable, so a refactor of
``src/`` can never break the benchmark through its own tracing.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


#: Name of the span that brackets a whole timed region.
ROOT = "harness.timed_region"


class Hook(NamedTuple):
    """Wrap ``owner.attr`` in a span called ``name``.

    ``rows`` optionally counts work at the same boundary: it receives
    ``(args, kwargs, result)`` of each call (``args`` includes ``self``).
    """

    owner: object
    attr: str
    name: str
    rows: Optional[Callable] = None


class SpanTotals(NamedTuple):
    total_s: float
    self_s: float
    calls: int
    rows: int


class Tracer:
    """Span recorder for one iteration; inert unless ``armed``."""

    def __init__(self, run_id: str, armed: bool = False) -> None:
        self.run_id = run_id
        #: Whether this iteration is a traced one.
        self.armed = armed
        self.enabled = False
        #: ``[id, name, start, end, parent id or None, thread id, rows]``
        self.spans: List[list] = []
        #: Span names whose hook target no longer exists.
        self.missing: List[str] = []
        self._stack = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _start(self, name: str) -> list:
        stack = self._stack.__dict__.setdefault("spans", [])
        parent = stack[-1][0] if stack else None
        with self._lock:
            record = [len(self.spans), name, 0.0, 0.0, parent,
                      threading.get_ident(), 0]
            self.spans.append(record)
        stack.append(record)
        record[2] = perf_counter()
        return record

    def _end(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.spans.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a call the benchmark makes itself."""
        if not self.enabled:
            yield
            return
        record = self._start(name)
        try:
            yield
        finally:
            self._end(record)

    # -- hooks ---------------------------------------------------------
    def _wrapper(self, original: Callable, hook: Hook) -> Callable:
        def traced(*args, **kwargs):
            record = self._start(hook.name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(record)
            if hook.rows is not None:
                record[6] = int(hook.rows(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def region(self, hooks: List[Hook]) -> Iterator[None]:
        """The timed region: when armed, install ``hooks`` and record
        every span under one ``harness.timed_region`` root."""
        if not self.armed:
            yield
            return
        installed = []
        for hook in hooks:
            original = getattr(hook.owner, hook.attr, None)
            if original is None:
                if hook.name not in self.missing:
                    self.missing.append(hook.name)
                    print(
                        f"warning: {hook.owner.__name__}.{hook.attr} is gone; "
                        f"{hook.name}.* layer metrics are unavailable",
                        file=sys.stderr,
                    )
                continue
            own = hook.attr in vars(hook.owner)
            setattr(hook.owner, hook.attr, self._wrapper(original, hook))
            installed.append((hook, original, own))
        self.enabled = True
        root = self._start(ROOT)
        try:
            yield
        finally:
            self._end(root)
            self.enabled = False
            for hook, original, own in reversed(installed):
                # An inherited method is un-shadowed, not re-assigned.
                if own:
                    setattr(hook.owner, hook.attr, original)
                else:
                    delattr(hook.owner, hook.attr)

    # -- accounting ----------------------------------------------------
    def totals(self) -> Dict[str, SpanTotals]:
        """Per span name: total time, self time, calls, rows.

        Self time is the span's duration minus its direct children's —
        children run nested on the parent's thread, so they never
        overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for _id, _name, start, end, parent, _thread, _rows in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, SpanTotals] = {}
        for span_id, name, start, end, _parent, _thread, rows in self.spans:
            duration = end - start
            old = out.get(name, SpanTotals(0.0, 0.0, 0, 0))
            out[name] = SpanTotals(
                old.total_s + duration,
                old.self_s + duration - child_time[span_id],
                old.calls + 1,
                old.rows + rows,
            )
        return out

    def write(self, path) -> None:
        """Append every span as one JSON line (called when the workload ends)."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread, rows in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "thread": thread, "rows": rows,
                }) + "\n")
