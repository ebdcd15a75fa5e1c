"""In-memory span recording for the traced benchmark pass.

Spans are ``(name, start, end)`` triples on the ``perf_counter`` clock,
recorded only from the benchmark's own files around calls into the
program's public functions.  Parents are derived afterwards by interval
containment, so a span reported after its children (a duration handed to
an observer hook once the call returned) still nests correctly.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Collects spans in memory; :meth:`write` saves them at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))

        return timed

    def tree(self) -> list[tuple[str, float, float, int, float, int]]:
        """``(name, start, end, parent, self_time, root)`` per span.

        ``parent`` and ``root`` are indices into the returned list
        (``-1`` for a top-level span's parent); the list is ordered by
        start time, outer spans first.
        """
        ordered = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        parents: list[int] = []
        roots: list[int] = []
        selfs: list[float] = []
        stack: list[int] = []
        for i, (_name, start, end) in enumerate(ordered):
            while stack and not (
                ordered[stack[-1]][1] <= start and end <= ordered[stack[-1]][2]
            ):
                stack.pop()
            parent = stack[-1] if stack else -1
            parents.append(parent)
            roots.append(roots[parent] if parent >= 0 else i)
            selfs.append(end - start)
            if parent >= 0:
                selfs[parent] -= end - start
            stack.append(i)
        return [
            (name, start, end, parents[i], selfs[i], roots[i])
            for i, (name, start, end) in enumerate(ordered)
        ]

    def self_by_root(self) -> list[tuple[str, float, dict[str, float]]]:
        """Per top-level span: its name, duration and the self time of
        every span name beneath it (itself included)."""
        tree = self.tree()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, _start, _end, _parent, self_time, root in tree:
            out[root][name] += self_time
        return [
            (tree[i][0], tree[i][2] - tree[i][1], dict(out[i]))
            for i in sorted(out)
        ]

    def write(self, path: Path) -> None:
        """Save every span as ``[name, start, end, parent]`` JSON rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[n, s, e, p] for n, s, e, p, _self, _root in self.tree()]
        path.write_text(json.dumps({"clock": "perf_counter", "spans": rows}))
