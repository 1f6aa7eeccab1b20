"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload alltoall-16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
One closed-loop caller in one process and one thread, BLAS pinned to one
thread. The run pays a warm-up on a small cluster first (imports and
first-call costs, untimed), then repeats identical rounds — extra set-up
samples, fresh cluster, set-up, measured section, output checks — until
``--seconds`` have passed (at least two rounds, so the determinism guard
can compare them).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including
the tracing overhead, and writes every span to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output matched its reference and every deterministic
value repeated exactly; otherwise it is 1 (2 for a checkout without the
library).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: BLAS and OpenMP pools are pinned to one thread (set before numpy loads).
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Extra full-size set-ups timed before each untraced round (the round's
#: own set-up adds one more): set-up is short, so one sample is noisy.
SAMPLES_PER_ROUND = 2

#: (name, unit) of the metrics ``--trace 0`` prints.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("collective_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

MODEL_PRIMITIVES = ("broadcast", "allreduce", "reduce", "reduce_scatter", "alltoall")

#: (name, unit) of the metrics ``--trace 1`` prints. A layer that does not
#: run on a workload reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("topology.detect_s", "s"),
    ("profiling.profile_s", "s"),
    ("profiling.sim_s", "sim_s"),
    ("profiling.edges", "count"),
    ("synthesis.synthesize_s", "s"),
    ("synthesis.calls", "count"),
    ("synthesis.candidates", "count"),
    ("synthesis.s_per_candidate", "s"),
    ("synthesis.cache_hit_ratio", "ratio"),
    *((f"synthesis.model_ratio.{name}", "ratio") for name in MODEL_PRIMITIVES),
    ("runtime.run_s", "s"),
    ("runtime.self_s", "s"),
    ("simulation.steps", "count"),
    ("simulation.step_s", "s"),
    ("simulation.us_per_step", "us"),
    ("simulation.transfers", "count"),
    ("simulation.transfer_calls", "count"),
    ("simulation.us_per_transfer", "us"),
    ("simulation.sim_s", "sim_s"),
    ("relay.decisions", "count"),
    ("relay.decide_s", "s"),
    ("relay.partial_share", "ratio"),
    ("relay.relays_mean", "count"),
    ("telemetry.export_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.export_mb", "MB"),
    ("critpath.analyze_s", "s"),
    ("critpath.chunk_spans", "count"),
    ("critpath.us_per_span", "us"),
    ("trace.overhead_share", "ratio"),
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="minimum-size rounds (one AlltoAll, two plans, two iterations)",
    )
    parser.add_argument(
        "--inject-error", action="store_true",
        help="corrupt one output of the first round (checks must catch it)",
    )
    return parser.parse_args(argv)


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, result) -> Dict[str, float]:
    """One traced round's per-layer figures (without the overhead share)."""
    synth = tracer.named("Synthesizer.synthesize")
    candidates = sum(span.info["candidates"] for span in synth)
    profiles = tracer.named("Profiler.profile")
    runtime = tracer.layer_spans("runtime")
    decisions = tracer.named("Coordinator.decide")
    transfers = result.fingerprint["transfers"]
    export_s = tracer.total("telemetry.export")
    analyze_s = tracer.total("critpath.analyze_run")
    chunk_spans = result.extra.get("chunk_spans", 0)
    synthesize_s = sum(span.duration for span in synth)
    metrics = {
        "topology.detect_s": tracer.total("Detector.detect"),
        "profiling.profile_s": sum(span.duration for span in profiles),
        "profiling.sim_s": sum(span.info["sim_s"] for span in profiles),
        "profiling.edges": sum(span.info["edges"] for span in profiles),
        "synthesis.synthesize_s": synthesize_s,
        "synthesis.calls": len(synth),
        "synthesis.candidates": candidates,
        "synthesis.s_per_candidate": _div(synthesize_s, candidates),
        "synthesis.cache_hit_ratio": 1.0 - _div(len(synth), len(tracer.named("Backend.plan"))),
        "runtime.run_s": sum(span.duration for span in runtime),
        "runtime.self_s": sum(span.self_s for span in runtime),
        "simulation.steps": tracer.steps,
        "simulation.step_s": tracer.step_s,
        "simulation.us_per_step": _div(tracer.step_s, tracer.steps) * 1e6,
        "simulation.transfers": transfers,
        "simulation.transfer_calls": tracer.transfer_calls,
        "simulation.us_per_transfer": _div(tracer.step_s, transfers) * 1e6,
        "simulation.sim_s": result.fingerprint["sim_s"],
        "relay.decisions": len(decisions),
        "relay.decide_s": sum(span.duration for span in decisions),
        "relay.partial_share": _div(
            sum(span.info["proceed"] for span in decisions), len(decisions)
        ),
        "relay.relays_mean": _div(
            sum(span.info["relays"] for span in decisions), len(decisions)
        ),
        "telemetry.export_s": export_s,
        "telemetry.records": result.extra.get("records", 0),
        "telemetry.export_mb": result.extra.get("export_mb", 0.0),
        "critpath.analyze_s": analyze_s,
        "critpath.chunk_spans": chunk_spans,
        "critpath.us_per_span": _div(analyze_s, chunk_spans) * 1e6,
    }
    for name in MODEL_PRIMITIVES:
        metrics[f"synthesis.model_ratio.{name}"] = result.model_ratio.get(name, 0.0)
    return metrics


def determinism_problems(rounds) -> List[str]:
    """Rounds whose deterministic values differ from the first round's."""
    reference = rounds[0][1].fingerprint
    problems = []
    for index, (traced, result, _tracer, _raw) in enumerate(rounds[1:], start=1):
        differing = sorted(
            key for key in set(reference) | set(result.fingerprint)
            if reference.get(key) != result.fingerprint.get(key)
        )
        if differing:
            kind = "traced" if traced else "untraced"
            problems.append(
                f"determinism: {kind} round {index} differs from round 0 in {differing}"
            )
    return problems


def untraced_span(_name, _layer):
    return contextlib.nullcontext()


def run_rounds(workload, args, tracer_class):
    """Alternate set-up samples and rounds until ``args.seconds`` pass.

    Returns ``(rounds, best)``: ``(traced, result, tracer, section_s)`` per
    round, with ``section_s`` the raw host seconds of its measured
    section, and the rounds' timelines folded into :class:`BestOf` under
    ``"untraced"`` and ``"traced"``, with every set-up (the samples' and
    the untraced rounds') under ``"setup"``. A folded timeline is dropped,
    so memory does not grow with the number of rounds.
    """
    from timeline import BestOf

    best = {"untraced": BestOf(), "traced": BestOf(), "setup": BestOf()}
    cycle = (False, True) if args.trace else (False,)
    min_cycles = 1 if args.trace else 2
    rounds = []
    started = perf_counter()
    cycles = 0
    while True:
        # Samples are spread over the run, so a slow phase of the shared
        # host weighs on them no more than on the rounds.
        for _ in range(0 if args.trace else SAMPLES_PER_ROUND):
            gc.collect()
            best["setup"].add(workload.sample_setup())
        for traced in cycle:
            gc.collect()
            tracer = tracer_class() if traced else None
            with tracer.installed() if tracer else contextlib.nullcontext():
                result = workload.round(
                    args.seed,
                    tracer.span if tracer else untraced_span,
                    inject_error=args.inject_error and not rounds,
                )
            timeline, result.timeline = result.timeline, None
            best["traced" if traced else "untraced"].add(timeline)
            if not traced:
                best["setup"].add(timeline)
            rounds.append((traced, result, tracer, timeline.seconds("section")[0]))
        cycles += 1
        elapsed = perf_counter() - started
        if cycles >= min_cycles and elapsed + elapsed / cycles > args.seconds:
            return rounds, best


def write_trace(args, traced_rounds) -> str:
    """Write the traced rounds' spans; returns the file's path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [tracer.to_json() for _, tracer in traced_rounds],
            },
            handle,
        )
    return path


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, smoke=args.smoke)

    warm_started = perf_counter()
    warmup = workload.round(args.seed, untraced_span, small=True)
    warmup_s = perf_counter() - warm_started
    rounds, best = run_rounds(workload, args, Tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [warmup] + [result for _, result, _, _ in rounds]
    failures = [failure for result in results for failure in result.failures]
    failures += determinism_problems(rounds)
    attempted = sum(result.attempted for result in results) + len(rounds) - 1
    untraced = [result for traced, result, _, _ in rounds if not traced]
    traced_rounds = [(result, tracer) for traced, result, tracer, _ in rounds if traced]
    collectives = best["untraced"].seconds("collective")

    end_to_end = {
        "setup_s": best["setup"].seconds("setup")[0],
        "wall_s": best["untraced"].seconds("section")[0],
        "collective_p50_s": _median(collectives),
        "peak_rss_mb": peak_rss_mb,
    }
    informational = [
        ("wall_median_s", _median(raw for traced, _, _, raw in rounds if not traced), "s"),
        ("plan_s", sum(best["untraced"].seconds("plan")), "s"),
        ("report_s", sum(best["untraced"].seconds("report")), "s"),
        ("sim_collective_s", _median(untraced[0].sim_collective_s), "sim_s"),
        ("sim_samples_per_s", untraced[0].extra.get("samples_per_s", 0.0), "1/sim_s"),
        ("error_rate", _div(len(failures), attempted), "fraction"),
        ("warmup_s", warmup_s, "s"),
    ]
    if args.trace:
        per_round = [layer_metrics(tracer, result) for result, tracer in traced_rounds]
        metrics = {name: _median(row[name] for row in per_round) for name in per_round[0]}
        traced_wall = best["traced"].seconds("section")[0]
        metrics["trace.overhead_share"] = traced_wall / end_to_end["wall_s"] - 1.0
        spec = PER_LAYER
        path = write_trace(args, traced_rounds)
        informational += [(name, end_to_end[name], "s") for name in ("wall_s", "setup_s")]
        informational.append(("trace_file", os.path.relpath(path, ROOT), ""))
    else:
        metrics = end_to_end
        spec = END_TO_END

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_rounds)} traced rounds, {len(collectives)} collectives timed")
    print("  round wall_s (raw): " + " ".join(
        f"{raw:.3f}{'T' if traced else ''}" for traced, _, _, raw in rounds
    ))
    for name, unit in spec:
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    for name, value, unit in informational:
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  ({name:32s} {shown} {unit})")
    for failure in failures:
        print(f"  FAILED {failure}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
