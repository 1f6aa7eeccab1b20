"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads alltoall-16,plan-24]
        [--seconds 30] [--output perfbench/BASELINE.json]

Each run is ``run.py --trace 0`` in its own process, one after another
(never in parallel: the runs share two cores). For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 − Q1) ÷ median, next to the metric's bound from
``BENCHMARK.json``. With ``--output`` the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> Dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--output", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    summary: Dict[str, Dict] = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={row['value']:.4g}" for name, row in runs[-1]["metrics"].items()
            ), flush=True)
        summary[workload] = {
            name: summarise([run["metrics"][name]["value"] for run in runs])
            for name in bounds
        }
        for name, row in summary[workload].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:16s} {name:18s} median {row['median']:.5g} "
                  f"spread {row['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)

    if args.output:
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        document = {
            "host": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                    f"{platform.python_version()}, {platform.machine()}",
            "seeds": seeds,
            "seconds": seconds,
            "workloads": {
                workload: {"why": whys[workload], "metrics": metrics}
                for workload, metrics in summary.items()
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
