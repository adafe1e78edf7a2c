"""Run the benchmark on two checkouts in alternating pairs and record the runs.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change . \
        --workload family_p7 --pairs 10 --seed 111 --out BENCH_11.json

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds N
--trace 0`` from the root of each checkout, on the same seed; pair k uses
seed ``--seed`` + k, and the side that runs first alternates from pair to
pair.  ``--seconds`` defaults to ``run_seconds`` in the change's
``BENCHMARK.json``.  Every run gets its own fresh, empty
``PYTHONPYCACHEPREFIX`` directory, removed when it ends, so no run reads a
bytecode cache that a checkout's ``__pycache__`` or an earlier run left.  The last line of each run's standard output (its JSON
verdict and metrics) is kept as it is.

The output file collects one entry per workload; running the script again
for another workload adds that entry and keeps the others.  Each entry
holds every pair and, per end-to-end metric, each side's median and
quartiles and the number of pairs the change won (lower is better for
every metric the benchmark declares).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                              check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                 for side in ("parent", "change")}
        wins = sum(c < p if metric["better"] == "lower" else c > p
                   for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {
            "unit": metric["unit"],
            "parent": quartiles(sides["parent"]),
            "change": quartiles(sides["change"]),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"{args.workload} pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.4f}"
            for side in ("parent", "change")), flush=True)

    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record.update({
        "parent": args.parent_label,
        "change": args.change_label,
        "python": platform.python_version(),
        "command": "python3 bench/run.py --workload W --seed S --seconds N --trace 0",
    })
    record.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds,
        "pairs": pairs,
        "summary": summarize(pairs, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
