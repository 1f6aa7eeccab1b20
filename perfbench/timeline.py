"""Host timings that hold still on a shared host: best-of-repetitions per segment.

The benchmark host shares its cores with other tenants. A fixed
pure-Python loop there runs 40 % slower in phases of tens of seconds to
minutes. Even inside a slow phase, though, almost every 20 ms window
still contains moments at full speed. So the median of whole multi-second
rounds follows the phase, while the fastest time of a short piece of
work does not.

A :class:`Timeline` records the host time of explicit marks (the
benchmark's span boundaries), of the end of every call of a hooked
function (``Simulator.step`` and a few others, see ``workloads.py``), and
of the start of every garbage collection the interpreter runs inside the
marked code. A deterministic computation makes the same calls and
allocates the same objects in the same order in every repetition, so
its calls end and its collections start at the same points. Together
with the marks, they cut identical repetitions into segments that line
up: tens of microseconds to a few milliseconds. :class:`BestOf` sums,
segment by segment, the fastest repetition. Where the segment counts of
a span disagree across repetitions, it takes the fastest whole span
instead.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

import numpy as np


class Timeline:
    """Marks and garbage-collection starts of one repetition."""

    def __init__(self) -> None:
        self.stamps = array("d")
        #: Named spans as (start, end) indices into :attr:`stamps`.
        self.spans: Dict[str, List[Tuple[int, int]]] = {}

    def __enter__(self) -> "Timeline":
        gc.callbacks.append(self._collecting)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._collecting)

    def _collecting(self, phase: str, _info) -> None:
        if phase == "start":
            self.stamps.append(perf_counter())

    def _mark(self) -> int:
        self.stamps.append(perf_counter())
        return len(self.stamps) - 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as one occurrence of span ``name`` (recorded only if
        the block completes)."""
        start = self._mark()
        yield
        self.spans.setdefault(name, []).append((start, self._mark()))

    @contextlib.contextmanager
    def after_each(self, owner, method: str) -> Iterator[None]:
        """Stamp the end of every call of ``owner.method`` inside the block.

        ``owner`` is a class or a module. If it has no such attribute (the
        library changed), the block runs unstamped, only more coarsely cut.
        """
        original = owner.__dict__.get(method)
        if original is None:
            yield
            return
        stamps = self.stamps

        def stamped(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                stamps.append(perf_counter())

        setattr(owner, method, stamped)
        try:
            yield
        finally:
            setattr(owner, method, original)

    def seconds(self, name: str) -> List[float]:
        """Raw host seconds of every occurrence of ``name``."""
        return [self.stamps[end] - self.stamps[start] for start, end in self.spans.get(name, [])]


class BestOf:
    """Best-of-repetitions host seconds of every span, folded in one
    repetition at a time.

    Every timeline must come from an identical repetition. Per occurrence
    of a span, it keeps the fastest time of each segment so far and the
    fastest whole span, so its memory does not grow with the number of
    repetitions. Only occurrences present in every timeline count: a
    repetition that failed part-way fails the run anyway.
    """

    def __init__(self) -> None:
        #: Per span name and occurrence: [fastest segments, fastest whole
        #: span, whether every timeline had the same segment count].
        self._best: Dict[str, List[list]] = {}
        self.count = 0

    def add(self, timeline: Timeline) -> None:
        stamps = np.frombuffer(timeline.stamps)
        names = list(timeline.spans) if not self.count else list(self._best)
        for name in names:
            pieces = [
                np.diff(stamps[start:end + 1]) for start, end in timeline.spans.get(name, [])
            ]
            if not self.count:
                self._best[name] = [[segments, segments.sum(), True] for segments in pieces]
                continue
            best = self._best[name]
            del best[len(pieces):]
            for entry, segments in zip(best, pieces):
                entry[1] = min(entry[1], segments.sum())
                if entry[2] and len(entry[0]) == len(segments):
                    np.minimum(entry[0], segments, out=entry[0])
                else:
                    entry[2] = False
        self.count += 1

    def seconds(self, name: str) -> List[float]:
        """Per occurrence of span ``name``: the sum of its fastest segments,
        or, where segment counts disagreed, its fastest whole span."""
        return [
            float(segments.sum()) if aligned else float(whole)
            for segments, whole, aligned in self._best.get(name, [])
        ]
