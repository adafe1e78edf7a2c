"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

For each workload it checks that

* two traced runs with the same seed report identical counts, and neither
  fails (a traced run fails when its traced passes differ in their counts);
* a second seed builds the same mix of job types, and its run has
  ``failed`` 0;
* the inputs come from the seed: on a workload with random inputs the
  second seed's counts differ from the first's.

Every run is a separate process started the way the benchmark is started,
so the library sees only the inputs the workload generated from ``--seed``.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run
from workloads import ROOT, WORKLOADS

SEEDS = (11, 12)


def bench(workload, seed, trace, seconds=1):
    """Run the benchmark in a child process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def job_mix(workload, seed):
    sx = run.fresh_import()
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        jobs = WORKLOADS[workload](sx, random.Random(seed), Path(tmp))
    return Counter(job.kind for job in jobs)


def check_workload(workload):
    first, again = bench(workload, SEEDS[0], 1), bench(workload, SEEDS[0], 1)
    other = bench(workload, SEEDS[1], 0)
    other_traced = bench(workload, SEEDS[1], 1)
    mix = [job_mix(workload, seed) for seed in SEEDS]
    checks = {
        "same seed, identical counts": counts(first) == counts(again),
        "second seed, same job mix": mix[0] == mix[1],
        "second seed, no failed job": other["failed"] == 0 and other_traced["failed"] == 0,
        "first seed, no failed job": first["failed"] == 0 and again["failed"] == 0,
    }
    if len(mix[0]) > 1:
        checks["inputs follow the seed"] = counts(first) != counts(other_traced)
    return checks


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK_DIR.mkdir(exist_ok=True)
    ok = True
    for workload in sorted(WORKLOADS):
        for name, passed in check_workload(workload).items():
            print(f"{workload:10s} {'ok  ' if passed else 'FAIL'} {name}")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
