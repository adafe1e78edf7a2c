"""Run every workload on several seeds; record medians, spreads and the machine.

    python3 bench/baseline.py

Each workload of BENCHMARK.json runs RUNS times with tracing off (seeds
1..RUNS) and once traced (seed 1), each run for ``run_seconds``.  For each
end-to-end metric it reports the median of the runs and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
at or above the metric's bound is marked, and the exit code is then 1.  The
record is written to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from selfcheck import bench
from workloads import ROOT

RUNS = 10
OUT = Path(__file__).with_name("baseline.json")


def git_head():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {
        "git_head": git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "runs": RUNS,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench(workload, seed, 0, seconds) for seed in range(1, RUNS + 1)]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "spread": spread, "bound": bound,
                          "unit": results[0]["metrics"][name]["unit"], "values": values}
            flag = ""
            if spread >= bound:
                flag, steady = "  ABOVE BOUND", False
            print(f"{workload:10s} {name:12s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        entry = {"end_to_end": rows,
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results)}
        traced = bench(workload, 1, 1, seconds)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print(f"{workload:10s} failed {entry['failed']} of {entry['attempted']}")
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
