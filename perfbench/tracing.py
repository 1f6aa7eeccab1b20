"""In-memory ``perf_counter`` spans around the library's layer entry points.

A :class:`Tracer` patches public methods at class level while it is
installed (``with tracer.installed(): ...``) and restores them on exit, so
untraced rounds run the library exactly as shipped. Coarse entry points
(detect, profile, synthesize, run, decide) record one span each, with the
index of the span that was open when they were called. ``Simulator.step``
fires hundreds of thousands of times per round, so it only adds to
totals; its time still counts as child time of the enclosing span, which
is what makes a layer's *self* time (span minus covered children)
computable. ``FluidNetwork.transfer`` is counted, not timed: the call
only schedules work that the next ``step`` performs.

Spans stay in memory; ``run.py`` writes them (:meth:`Tracer.to_json`)
once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.baselines.common import Backend
from repro.profiling.profiler import Profiler
from repro.relay.coordinator import AdaptiveAllReduce, Coordinator
from repro.simulation.engine import Simulator
from repro.simulation.fluid import FluidNetwork
from repro.synthesis.optimizer import Synthesizer
from repro.topology.detector import Detector

#: (owner class, method, span name, layer) of every timed entry point.
ENTRY_POINTS = (
    (Detector, "detect", "Detector.detect", "topology"),
    (Profiler, "profile", "Profiler.profile", "profiling"),
    (Backend, "plan", "Backend.plan", "planning"),
    (Synthesizer, "synthesize", "Synthesizer.synthesize", "synthesis"),
    (Backend, "run", "Backend.run", "runtime"),
    (AdaptiveAllReduce, "run", "AdaptiveAllReduce.run", "runtime"),
    (Coordinator, "decide", "Coordinator.decide", "relay"),
)


class Span:
    """One timed call: name, layer, start, end and the span that caused it."""

    __slots__ = ("name", "layer", "start", "end", "parent", "child_s", "info")

    def __init__(self, name: str, layer: str, start: float, parent: Optional[int]):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        #: Host seconds of this span covered by child spans and steps.
        self.child_s = 0.0
        #: Deterministic facts read off the call's result (counts, sim time).
        self.info: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "self_s": self.self_s,
            **self.info,
        }


class Tracer:
    """Spans and counters for one traced round."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.steps = 0
        self.step_s = 0.0
        #: Step time that ran inside each layer's spans (for self time).
        self.step_s_by_layer: Dict[str, float] = {}
        self.transfer_calls = 0

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Time a block of the benchmark's own code (a call into a layer)."""
        record = self._begin(name, layer)
        try:
            yield record
        finally:
            self._end(record)

    def _begin(self, name: str, layer: str) -> Span:
        parent = self._open[-1] if self._open else None
        record = Span(name, layer, perf_counter(), parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        return record

    def _end(self, record: Span) -> None:
        record.end = perf_counter()
        self._open.pop()
        if record.parent is not None:
            self.spans[record.parent].child_s += record.duration

    def _timed(self, original: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self._begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(record)
            _annotate(record, args[0], result)
            return result

        return wrapper

    def _step(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(sim):
            started = perf_counter()
            try:
                return original(sim)
            finally:
                elapsed = perf_counter() - started
                self.steps += 1
                self.step_s += elapsed
                if self._open:
                    enclosing = self.spans[self._open[-1]]
                    enclosing.child_s += elapsed
                    self.step_s_by_layer[enclosing.layer] = (
                        self.step_s_by_layer.get(enclosing.layer, 0.0) + elapsed
                    )

        return wrapper

    def _count_transfer(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.transfer_calls += 1
            return original(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every entry point for the duration of the block."""
        patches = [
            (owner, attr, self._timed(owner.__dict__[attr], name, layer))
            for owner, attr, name, layer in ENTRY_POINTS
        ]
        patches.append((Simulator, "step", self._step(Simulator.__dict__["step"])))
        patches.append(
            (FluidNetwork, "transfer", self._count_transfer(FluidNetwork.__dict__["transfer"]))
        )
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def layer_spans(self, layer: str) -> List[Span]:
        return [span for span in self.spans if span.layer == layer]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def to_json(self) -> Dict[str, Any]:
        """Every span and the step totals, for the trace file."""
        return {
            "steps": self.steps,
            "step_s": self.step_s,
            "step_s_by_layer": self.step_s_by_layer,
            "transfer_calls": self.transfer_calls,
            "spans": [span.to_json() for span in self.spans],
        }


def _annotate(record: Span, owner: Any, result: Any) -> None:
    """Copy the deterministic facts of a finished call onto its span."""
    if record.name == "Profiler.profile":
        record.info["sim_s"] = result.duration
        record.info["edges"] = len(result.estimates)
    elif record.name == "Synthesizer.synthesize":
        record.info["candidates"] = owner.last_report.candidates_evaluated
        record.info["primitive"] = result.primitive.value
    elif record.name == "Coordinator.decide":
        record.info["proceed"] = bool(result.proceed)
        record.info["relays"] = len(result.relays)
