"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the program from the outside:
each wrapped call records one span ``(id, name, start, end, parent,
thread)``.  The parent is the innermost span open in the same thread,
carried in a :mod:`contextvars` variable, so spans of one thread nest
strictly and a child's interval always lies inside its parent's.  Work
handed to another thread (a shard server, a serve executor) starts a
new root there; nothing is linked across threads.

Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the union of its children's
intervals.  ``enabled`` switches recording on and off without removing
the wrappers, so one run can alternate traced and untraced queries.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: One recorded span: (id, name, start, end, parent id, thread id).
Span = tuple[int, str, float, float, "int | None", int]


class Tracer:
    """In-memory span and counter recorder with reversible wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (when enabled)."""
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: "str | Callable[[tuple], str]",
        *,
        before: Callable[[tuple], object] | None = None,
        after: Callable[[tuple, object, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments
        (``self`` included for methods).  ``before(args)`` runs ahead of
        the call and its value reaches ``after(args, result, state)``;
        both run outside the span, so their cost is not charged to the
        wrapped layer.
        """
        original = getattr(owner, attr)
        raw = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result, state)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_counter(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        For helpers called too often to time one call at a time: each
        call adds 1 to ``counts[name]`` while recording is enabled.
        """
        original = getattr(owner, attr)
        raw = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def self_times(self, spans: Iterable[Span] | None = None) -> dict[int, float]:
        """Self time of every span: duration minus its children's union."""
        spans = list(self.spans if spans is None else spans)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        return {
            span_id: (end - start) - _union(children.get(span_id, ()))
            for span_id, _, start, end, _, _ in spans
        }

    def nesting_violations(self, tolerance: float = 1e-6) -> int:
        """Spans whose children's self times sum past their own duration."""
        selfs = self.self_times()
        duration = {span[0]: span[3] - span[2] for span in self.spans}
        child_sum: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_sum[span[4]] += selfs[span[0]]
        return sum(
            1
            for parent, total in child_sum.items()
            if parent in duration and total > duration[parent] + tolerance
        )

    def window(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span[2] <= end]

    def dump(self, path: Path) -> None:
        """Write all spans as JSON lines (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                            "self_s": selfs[span_id],
                        }
                    )
                    + "\n"
                )


def _union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_self_times(tracer: Tracer, spans: list[Span]) -> dict[str, float]:
    """Self seconds per span name over ``spans``."""
    selfs = tracer.self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += selfs[span[0]]
    return dict(totals)


def covered_within(spans: list[Span], names: set[str], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by spans named in ``names``."""
    return _union(
        (max(span[2], start), min(span[3], end))
        for span in spans
        if span[1] in names and span[3] > start and span[2] < end
    )
