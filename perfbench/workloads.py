"""The benchmark's three workloads and their output checks.

Every round builds a fresh simulator, cluster and session (span
``setup``), runs the workload's measured section (span ``section``, with
``plan``, ``collective`` and ``report`` spans inside it) on a
:class:`~timeline.Timeline`, and only then checks the outputs against
numpy references, so checking never counts as work. A round returns a :class:`RoundResult` whose
``fingerprint`` holds every deterministic value it saw (simulated
durations, transfer counts, candidates, export sizes): two rounds with
the same seed must produce identical fingerprints, traced or not.

The library is driven only through its public API: ``Detector``,
``LogicalTopology``, ``make_backend``, ``Backend.plan``/``Backend.run``,
``Trainer``, ``telemetry.export`` and ``critpath.analyze_run``.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.common import make_backend
from repro.critpath import analyze_run
from repro.critpath import engine as critpath_engine
from repro.hardware import MB
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config, make_hetero_cluster
from repro.simulation.engine import Simulator
from repro.synthesis import routing
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.strategy import Primitive
from repro.telemetry import export as telemetry_export
from repro.telemetry.core import TelemetryHub, set_hub
from repro.telemetry.export import parse_jsonl, to_jsonl
from repro.topology.detector import Detector
from repro.topology.graph import LogicalTopology
from repro.training.models import GPT2
from repro.training.trainer import Trainer, TrainerConfig
from timeline import Timeline

#: Payload elements per rank; simulated traffic is scaled to the tensor
#: size with ``byte_scale``, as in ``repro.bench``.
PAYLOAD_ELEMENTS = 8192
TENSOR_BYTES = 64 * MB

#: Relative tolerance of the numeric output checks (float64 sums taken in
#: another order than numpy's).
CHECK_RTOL = 1e-9

#: Calls whose ends cut a round into segments that line up across rounds
#: (see ``timeline.py``). Garbage collections cut code that allocates
#: containers; these calls cut the rest: the simulator's event step, one
#: ready-time pass of the synthesizer's evaluator, the link lookup of
#: widest-tree construction, the JSON encoding of one telemetry record and
#: the ordering key critpath calls once or twice per chunk span. Without
#: them a synthesis, an export or a critpath analysis would hold segments
#: of up to half a second. A call the library no longer has is skipped.
STAMPED_CALLS = (
    (Simulator, "step"),
    (StrategyEvaluator, "_ready_times_independent"),
    (StrategyEvaluator, "_ready_times_with_aggregation"),
    (routing, "gpu_pair_bandwidth"),
    (telemetry_export, "_dumps"),
    (critpath_engine, "_end_key"),
)

#: The committed Fig. 13 cell the AlltoAll of every round reproduces.
ANCHOR_FILE = "BENCH_fig11_13.json"
ANCHOR_CELL = ("fig13", "A100:(4,4,4,4)|adapcc")
ANCHOR_RTOL = 1e-9


@dataclass
class RoundResult:
    """Timings, checks and deterministic facts of one round."""

    timeline: Timeline = field(default_factory=Timeline)
    #: Simulated seconds of each collective call.
    sim_collective_s: List[float] = field(default_factory=list)
    #: Simulated ÷ eq.-4 predicted time, per primitive of a clean run.
    model_ratio: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific figures (throughput, export size, span count).
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Session:
    """A ready AdapCC backend on a fresh simulated cluster."""

    sim: Simulator
    cluster: Cluster
    backend: Any

    @property
    def ranks(self) -> List[int]:
        return [gpu.rank for gpu in self.cluster.gpus]


@contextlib.contextmanager
def stamped(timeline: Timeline):
    """Stamp the end of every :data:`STAMPED_CALLS` call inside the block."""
    with contextlib.ExitStack() as stack:
        for owner, name in STAMPED_CALLS:
            stack.enter_context(timeline.after_each(owner, name))
        yield


def build_session(specs) -> Session:
    """Cluster build → detection → logical topology → profiled backend."""
    sim = Simulator()
    cluster = Cluster(sim, list(specs))
    detection = Detector(cluster).detect()
    topology = LogicalTopology.from_cluster(
        cluster, nvlink_pairs=detection.nvlink_pairs_by_instance()
    )
    return Session(sim, cluster, make_backend("adapcc", topology))


def random_inputs(seed: int, ranks: Sequence[int]) -> Dict[int, np.ndarray]:
    """Seeded random payloads, one per rank."""
    rng = np.random.default_rng(seed)
    return {rank: rng.random(PAYLOAD_ELEMENTS) for rank in ranks}


def _close(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=CHECK_RTOL, atol=CHECK_RTOL)
    )


# -- output references -------------------------------------------------------------


def check_collective(primitive: Primitive, strategy, inputs, outputs, root=None) -> bool:
    """Whether one collective's outputs match the numpy reference."""
    total = np.sum([inputs[rank] for rank in sorted(inputs)], axis=0)
    if primitive is Primitive.ALLREDUCE:
        return sorted(outputs) == sorted(inputs) and all(
            _close(outputs[rank], total) for rank in inputs
        )
    if primitive is Primitive.REDUCE:
        return root in outputs and _close(outputs[root], total)
    if primitive is Primitive.BROADCAST:
        return sorted(outputs) == sorted(inputs) and all(
            _close(outputs[rank], inputs[root]) for rank in inputs
        )
    if primitive is Primitive.REDUCE_SCATTER:
        # Partition m belongs to sub-collective m's root; in sub-collective
        # order the partitions tile the whole summed tensor.
        roots = [sc.root.index for sc in strategy.subcollectives]
        if sorted(outputs) != sorted(set(roots)) or len(roots) != len(set(roots)):
            return False
        return _close(np.concatenate([outputs[rank] for rank in roots]), total)
    if primitive is Primitive.ALLTOALL:
        ranks = sorted(inputs)
        blocks = {rank: np.split(inputs[rank], len(ranks)) for rank in ranks}
        return sorted(outputs) == ranks and all(
            _close(
                outputs[dst],
                np.concatenate([blocks[src][pos] for src in ranks]),
            )
            for pos, dst in enumerate(ranks)
        )
    raise ValueError(f"no reference for {primitive}")


def check_adaptive(inputs, result) -> bool:
    """An adaptive AllReduce: every surviving rank holds the survivors' sum."""
    faulty = set(result.fault_report.faulty_ranks) if result.fault_report else set()
    survivors = sorted(rank for rank in inputs if rank not in faulty)
    total = np.sum([inputs[rank] for rank in survivors], axis=0)
    return sorted(result.outputs) == survivors and all(
        _close(result.outputs[rank], total) for rank in survivors
    )


def committed_anchor(root: str) -> float:
    """The committed Algo.bw of the ``fig13|A100:(4,4,4,4)|adapcc`` cell."""
    with open(os.path.join(root, ANCHOR_FILE), encoding="utf-8") as handle:
        payload = json.load(handle)
    figure, key = ANCHOR_CELL
    return float(payload["figures"][figure]["cells"][key])


# -- workloads -------------------------------------------------------------------


class Workload:
    """One named input set; subclasses define the cluster and the section.

    Why each workload exists is recorded with its name in ``BENCHMARK.json``.
    """

    name = ""

    def __init__(self, root: str, smoke: bool = False):
        self.root = root
        self.smoke = smoke

    def specs(self, small: bool):
        raise NotImplementedError

    @contextlib.contextmanager
    def environment(self):
        """Process state a round needs around set-up and the section."""
        yield None

    def setup(self, timeline: Timeline, small: bool = False) -> Session:
        """Build a session, timed as span ``setup``."""
        with timeline.span("setup"):
            return build_session(self.specs(small))

    def sample_setup(self) -> Timeline:
        """One extra full-size set-up on its own timeline."""
        with self.environment(), Timeline() as timeline, stamped(timeline):
            self.setup(timeline)
        return timeline

    def round(self, seed: int, span: Callable, small: bool = False,
              inject_error: bool = False) -> RoundResult:
        """Set up, run the measured section, then check its outputs."""
        result = RoundResult()
        timeline = result.timeline
        with self.environment() as env, timeline, stamped(timeline):
            session = self.setup(timeline, small)
            result.fingerprint["setup_sim_s"] = session.sim.now
            with timeline.span("section"):
                checks = self.section(session, seed, span, result, small, env)
        result.fingerprint["sim_s"] = session.sim.now
        result.fingerprint["transfers"] = session.cluster.network.completed_transfers
        if inject_error:
            next(check for _, check in checks if isinstance(check, _Check)).corrupt()
        for label, check in checks:
            result.attempted += 1
            if not check():
                result.failures.append(f"{label}: output differs from the reference")
        return result

    def section(self, session, seed, span, result, small, env) -> List[Tuple[str, Callable]]:
        """Run the timed work; return deferred ``(label, check)`` pairs."""
        raise NotImplementedError


class _Check:
    """Deferred output check of one collective (run after the timer stops)."""

    def __init__(self, outputs, verify: Callable[[Dict], bool]):
        self.outputs = outputs
        self.verify = verify

    def __call__(self) -> bool:
        return self.verify(self.outputs)

    def corrupt(self) -> None:
        """Make one output element wrong (tests that checks catch it)."""
        self.outputs[min(self.outputs)][0] += 1.0


def _plan(session, result, *args, **kwargs):
    """``Backend.plan`` timed as span ``plan``."""
    with result.timeline.span("plan"):
        return session.backend.plan(*args, **kwargs)


def _collective(session, result, strategy, inputs, label, tensor_bytes,
                max_chunks=None, root=None):
    """``Backend.run`` timed as span ``collective``; returns its outcome and
    deferred check, or ``(None, None)`` if it raised."""
    byte_scale = tensor_bytes / (PAYLOAD_ELEMENTS * 8.0)
    try:
        with result.timeline.span("collective"):
            outcome = session.backend.run(
                strategy, inputs, byte_scale=byte_scale, max_chunks=max_chunks
            )
    except Exception as exc:  # a failing collective is a measured outcome
        result.attempted += 1
        result.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
        return None, None
    result.sim_collective_s.append(outcome.duration)
    check = _Check(
        outcome.outputs,
        lambda outputs: check_collective(
            strategy.primitive, strategy, inputs, outputs, root=root
        ),
    )
    return outcome, (label, check)


class AllToAll16(Workload):
    """AlltoAll on 4×A100 servers: a cold plan, the collective, a cached plan."""

    name = "alltoall-16"
    max_chunks = 4

    def specs(self, small):
        return make_config([2, 2] if small else [4, 4, 4, 4])

    def section(self, session, seed, span, result, small, env):
        inputs = random_inputs(seed, session.ranks)
        strategy = _plan(session, result, Primitive.ALLTOALL, TENSOR_BYTES, session.ranks)
        result.fingerprint["candidates"] = (
            session.backend.synthesizer.last_report.candidates_evaluated
        )
        outcome, check = _collective(
            session, result, strategy, inputs, "alltoall", TENSOR_BYTES, self.max_chunks
        )
        # The same request again must be a plan-cache hit on the same strategy.
        cached = _plan(session, result, Primitive.ALLTOALL, TENSOR_BYTES, session.ranks)
        result.fingerprint["sim_collective_s"] = list(result.sim_collective_s)
        if check is None:
            return []
        result.model_ratio["alltoall"] = outcome.duration / strategy.predicted_time
        checks = [check, ("cached plan", lambda: cached is strategy)]
        if not small:
            bandwidth = TENSOR_BYTES / outcome.duration
            committed = committed_anchor(self.root)
            checks.append(
                (
                    f"{ANCHOR_CELL[0]}|{ANCHOR_CELL[1]} anchor",
                    lambda: abs(bandwidth - committed) <= ANCHOR_RTOL * committed,
                )
            )
        return checks


class Plan24(Workload):
    """Cold synthesis of four primitives on 6×A100 servers (24 ranks)."""

    name = "plan-24"
    #: At 16 MB the search evaluates 11 ReduceScatter candidates (15 at
    #: 64 MB) and still takes seconds, while the uncapped runs take a
    #: third of the time: synthesis dominates and a round stays short.
    tensor_bytes = 16 * MB
    primitives = (
        (Primitive.BROADCAST, 0),
        (Primitive.ALLREDUCE, None),
        (Primitive.REDUCE, 0),
        (Primitive.REDUCE_SCATTER, None),
    )

    def specs(self, small):
        return make_config([2, 2] if small else [4] * 6)

    def section(self, session, seed, span, result, small, env):
        inputs = random_inputs(seed, session.ranks)
        primitives = self.primitives[:2] if self.smoke else self.primitives
        checks = []
        candidates = []
        for primitive, root in primitives:
            strategy = _plan(
                session, result, primitive, self.tensor_bytes, session.ranks, root=root
            )
            candidates.append(session.backend.synthesizer.last_report.candidates_evaluated)
            outcome, check = _collective(
                session, result, strategy, inputs, primitive.value, self.tensor_bytes,
                root=root,
            )
            if check is None:
                continue
            checks.append(check)
            result.model_ratio[primitive.value] = outcome.duration / strategy.predicted_time
        result.fingerprint["candidates"] = candidates
        result.fingerprint["sim_collective_s"] = list(result.sim_collective_s)
        result.fingerprint["model_ratio"] = dict(result.model_ratio)
        return checks


class HeteroTraining(Workload):
    """GPT-2 data-parallel training with adaptive relay on A100+V100."""

    name = "hetero-training"
    #: The relays, and with them the work, of one iteration depend on the
    #: seed (their count ranges from 1 to 8). Ten iterations average that
    #: out: a round's steps vary by about 1 % across seeds, against 5 %
    #: with three. Four chunks per sub-collective keep the iterations, and
    #: the critpath analysis that grows with iterations × chunks, short.
    iterations = 10
    max_chunks = 4
    #: Every worker straggles with wide jitter, so every iteration takes
    #: the two-phase relay path.
    straggle_prob = 1.0
    jitter_sigma = 0.6

    def specs(self, small):
        if small:
            return make_hetero_cluster(num_a100=1, num_v100=1, gpus_per_server=2)
        return make_hetero_cluster()

    @contextlib.contextmanager
    def environment(self):
        # A fresh enabled hub per round, installed before the cluster is
        # built so the fluid network attaches its tracing bridge.
        fresh = TelemetryHub(enabled=True)
        previous = set_hub(fresh)
        try:
            yield fresh
        finally:
            set_hub(previous)

    def section(self, session, seed, span, result, small, env):
        calls: List[Tuple[Dict[int, np.ndarray], Any]] = []
        config = TrainerConfig(
            iterations=2 if (self.smoke or small) else self.iterations,
            max_chunks=self.max_chunks,
            straggle_prob=self.straggle_prob,
            jitter_sigma=self.jitter_sigma,
            seed=int(np.random.default_rng(seed).integers(2**31)),
        )
        _plan(session, result, GPT2.primitive, GPT2.tensor_bytes, session.ranks)
        trainer = Trainer(session.backend, GPT2, config)
        trainer.adaptive.run = _recording(trainer.adaptive.run, calls, result)
        try:
            report = trainer.run()
        except Exception as exc:  # a failing iteration is a measured outcome
            result.attempted += 1
            result.failures.append(f"training: raised {type(exc).__name__}: {exc}")
            report = None
        with result.timeline.span("report"):
            with span("telemetry.export", "telemetry"):
                text = to_jsonl(env)
                run = parse_jsonl(text)
            with span("critpath.analyze_run", "critpath"):
                critical = analyze_run(run)

        result.extra.update(
            records=len(run.records),
            export_mb=len(text) / 1e6,
            chunk_spans=critical["span_count"],
        )
        result.fingerprint.update(
            candidates=session.backend.synthesizer.last_report.candidates_evaluated,
            sim_collective_s=list(result.sim_collective_s),
            export_bytes=len(text),
            records=len(run.records),
            chunk_spans=critical["span_count"],
            critical_path_s=critical["total_seconds"],
        )
        if report is not None:
            result.extra["samples_per_s"] = report.throughput
            result.fingerprint["throughput"] = report.throughput
            result.fingerprint["decisions"] = [
                (stats.proceeded, list(stats.relays), list(stats.faulty))
                for stats in report.stats
            ]
        return [
            (
                f"iteration#{index}",
                _Check(outcome.outputs, lambda _, i=inputs, o=outcome: check_adaptive(i, o)),
            )
            for index, (inputs, outcome) in enumerate(calls)
        ]


def _recording(run: Callable, calls: List, result: RoundResult) -> Callable:
    """Wrap a bound ``AdaptiveAllReduce.run`` to time and keep each call."""

    def recorded(strategy, inputs, ready_delays, **kwargs):
        with result.timeline.span("collective"):
            outcome = run(strategy, inputs, ready_delays, **kwargs)
        result.sim_collective_s.append(outcome.duration)
        calls.append((dict(inputs), outcome))
        return outcome

    return recorded


WORKLOADS = {cls.name: cls for cls in (AllToAll16, Plan24, HeteroTraining)}
