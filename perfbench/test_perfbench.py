"""The benchmark's own tests: contract, smoke passes and failure paths.

    python3 -m pytest perfbench -q

Each smoke pass runs one workload at minimum size (one AlltoAll, two
plans, or two training iterations per round) in a subprocess, exactly as
the benchmark is invoked, and takes about ten seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def invoke(*flags, root=ROOT, workload="plan-24", trace=0):
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), *flags,
    ]
    return subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=300, check=False
    )


def result_line(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_spec_lists_exactly_the_metrics_the_runner_prints():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_workloads_are_the_runner_workloads():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ["alltoall-16", "plan-24", "hetero-training"])
def test_smoke_pass_prints_every_end_to_end_metric(workload):
    completed = invoke("--smoke", workload=workload)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = result_line(completed)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: row["unit"] for name, row in result["metrics"].items()} == dict(
        run.END_TO_END
    )
    assert all(row["value"] > 0 for row in result["metrics"].values())


def test_traced_smoke_pass_reports_every_layer():
    completed = invoke("--smoke", workload="hetero-training", trace=1)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    metrics = result_line(completed)["metrics"]
    assert {name: row["unit"] for name, row in metrics.items()} == dict(run.PER_LAYER)
    for name in ("simulation.steps", "relay.decisions", "telemetry.records",
                 "critpath.chunk_spans", "synthesis.candidates", "profiling.edges"):
        assert metrics[name]["value"] > 0, name
    assert metrics["simulation.transfer_calls"]["value"] >= metrics[
        "simulation.transfers"]["value"]
    trace_file = os.path.join(HERE, "out", "trace-hetero-training-seed3.json")
    with open(trace_file, encoding="utf-8") as handle:
        spans = json.load(handle)["rounds"][0]["spans"]
    assert {"Synthesizer.synthesize", "AdaptiveAllReduce.run", "Coordinator.decide",
            "critpath.analyze_run"} <= {span["name"] for span in spans}


def test_wrong_output_is_counted_and_fails_the_command():
    completed = invoke("--smoke", "--inject-error")
    assert completed.returncode == 1
    result = result_line(completed)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "FAILED" in completed.stdout


def test_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = invoke(root=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_best_of_takes_the_fastest_round_segment_by_segment():
    from timeline import BestOf, Timeline

    first, second, third = Timeline(), Timeline(), Timeline()
    first.stamps.extend([0.0, 1.0, 3.0])
    second.stamps.extend([10.0, 12.0, 13.0])
    first.spans = second.spans = {"x": [(0, 2)]}
    best = BestOf()
    best.add(first)
    best.add(second)
    assert best.seconds("x") == [2.0]
    # Segment counts disagree: the fastest whole span counts instead.
    third.stamps.extend([20.0, 21.5])
    third.spans = {"x": [(0, 1)]}
    best.add(third)
    assert best.seconds("x") == [1.5]
    # An occurrence missing from one repetition does not count.
    best.add(Timeline())
    assert best.seconds("x") == []
