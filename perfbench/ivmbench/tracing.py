"""Spans recorded from the benchmark's side of the API boundary.

The tracer never edits the program: it shadows public methods on the
*instances* the benchmark created (a connection's ``execute``, its
binder's ``bind_select``, the extension's ``refresh``, ...) with an
instance attribute that records a span around the original bound
method.  :meth:`Tracer.install` puts every registered shadow in place
and :meth:`Tracer.uninstall` removes them, so a run can alternate traced
and untraced blocks and measure the tracer's own overhead.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation that was running.  Spans are kept in memory and written out
once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Span names that mark a refresh; statements and captures issued while
# one is open belong to the refresh, not to the client's statement.
REFRESH_SPANS = frozenset({"extension.refresh", "htap.refresh"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Shadow:
    target: Any
    attr: str
    wrapper: Callable
    had_own: bool = False
    own: Any = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _refreshing: int = 0
    _shadows: list[_Shadow] = field(default_factory=list)
    installed: bool = False

    # -- recording ---------------------------------------------------------

    @property
    def in_refresh(self) -> bool:
        return self._refreshing > 0

    def call(self, name: str, fn: Callable, args, kwargs) -> tuple[Span, Any]:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``;
        returns the span and the call's result."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        refresh = name in REFRESH_SPANS
        if refresh:
            self._refreshing += 1
        span.start = time.perf_counter()
        try:
            return span, fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if refresh:
                self._refreshing -= 1
            self._stack.pop()

    # -- shadowing public methods ----------------------------------------------

    def shadow(
        self,
        target: Any,
        attr: str,
        name: str | Callable[..., str],
        rows: Callable[..., int] | None = None,
    ) -> None:
        """Register a span around ``target.attr``.  ``name`` is a span
        name or a function of the call's arguments returning one;
        ``rows(result, *args, **kwargs)`` optionally counts the rows
        the call moved; it runs after the span has closed."""
        original = getattr(target, attr)

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span, result = self.call(label, original, args, kwargs)
            if rows is not None:
                span.rows = rows(result, *args, **kwargs)
            return result

        self._shadows.append(_Shadow(target, attr, wrapper))
        if self.installed:
            self._put(self._shadows[-1])

    def install(self) -> None:
        if not self.installed:
            for entry in self._shadows:
                self._put(entry)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for entry in reversed(self._shadows):
                if entry.had_own:
                    entry.target.__dict__[entry.attr] = entry.own
                else:
                    del entry.target.__dict__[entry.attr]
            self.installed = False

    def forget(self) -> None:
        """Remove every shadow and drop the references to its target
        (the spans stay)."""
        self.uninstall()
        self._shadows.clear()

    @staticmethod
    def _put(entry: _Shadow) -> None:
        own = entry.target.__dict__
        entry.had_own = entry.attr in own
        entry.own = own.get(entry.attr)
        own[entry.attr] = entry.wrapper

    # -- output ----------------------------------------------------------------

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([
                    span.name, span.start, span.end, span.parent, span.op,
                    span.rows,
                ]) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.duration - union_length(inside))
    return result


def ancestors(spans: list[Span], index: int):
    """Yield the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent
