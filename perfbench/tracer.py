"""In-process spans around patchrank's public functions.

The benchmark wraps functions from its own files, under the name each
caller looks up (``ranker.score_document``, ``prerank.query``, ...), so
every call is seen and no source file changes. Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "run_id", "count")

    def __init__(self, span_id: int, name: str, start: float, parent: int | None, run_id: str):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the union of its children, clipped to it."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class Tracer:
    """Records spans for wrapped callables and restores them on ``unwrap``."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[Span] = []
        self._open: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrapping ----------------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Swap ``owner.attr`` for ``make(original)``; skip owners and names
        that no longer exist so a refactored module still traces what is left."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Callable[[tuple, object], int] | None = None,
    ) -> bool:
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(args, result)`` gives the span's work count (rows, texts).
        """
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                if count is not None:
                    try:
                        span.count = count(args, result)
                    except (TypeError, AttributeError, KeyError, IndexError):
                        # A changed signature loses the count, not the run.
                        pass
                return result

            return wrapper

        return self._replace(owner, attr, make)

    def count_calls(self, owner, attr: str, name: str, scope: str | None = None) -> bool:
        """Count calls of ``owner.attr`` without timing them; calls made
        while a span named ``scope`` is open are also counted as
        ``name|scope``."""
        counts, open_names = self.counts, self._open
        scoped = f"{name}|{scope}"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if scope is not None and open_names[scope]:
                    counts[scoped] += 1
                return fn(*args, **kwargs)

            return wrapper

        return self._replace(owner, attr, make)

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def write_spans(spans: Iterable[Span], path: Path) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json()) + "\n")


class SpanIndex:
    """Queries over a finished run's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.span_id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.by_id[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` that are not nested in another such span."""
        return [s for s in self.named(name) if not self.has_ancestor(s, name)]

    def total(self, name: str, within: str | None = None) -> float:
        spans = self.outermost(name)
        if within is not None:
            spans = [s for s in spans if self.has_ancestor(s, within)]
        return sum(s.duration for s in spans)

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def work(self, name: str, within: str | None = None) -> int:
        """Summed work counts of the outermost ``name`` spans."""
        spans = self.outermost(name)
        if within is not None:
            spans = [s for s in spans if self.has_ancestor(s, within)]
        return sum(s.count for s in spans)

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children.get(span.span_id, []))

    def child_totals(self, span: Span) -> dict[str, float]:
        totals: Counter[str] = Counter()
        for child in self.children.get(span.span_id, []):
            totals[child.name] += child.duration
        return dict(totals)
