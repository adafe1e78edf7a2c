"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload desk_q --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process, one thread, closed loop: each job starts when the previous one
has returned.  The run repeats the workload's fixed job list ("a pass")
until ``--seconds`` have gone by, checks every outcome against its known
answer, prints a readable summary and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every pass starts from a fresh import of suspensia and freshly generated
inputs (the same seed gives the same jobs), so nothing the library keeps in
memory carries over from one pass to the next: like separate runs of the
program, no pass can reuse work an earlier pass did.

``--trace 0`` reports the end-to-end metrics with tracing off, in seconds at
the reference speed (see ``Speedometer``).
``--trace 1`` alternates traced and untraced passes, at least two of each,
and reports the per-layer metrics of ``bench/tracing.py``; the spans of the
last traced pass are written to ``.bench_out/``.  Every traced pass must
make the same counts as the first, or the run fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import ROOT, WORKLOADS

SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
# Every pass is set up afresh, and every set-up is timed.  Before the first
# pass, and before any pass that starts SETUP_EVERY_S or more after the last
# batch, the set-up runs SETUP_BATCH times, so that a workload of a few long
# passes still has set-ups spread over the run.  The speed of a shared
# machine shifts by a quarter or more for seconds to minutes, so set-ups
# taken all at one moment share its speed; spread out, their median does not.
SETUP_BATCH = 5
SETUP_EVERY_S = 5.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# The reference loop's fastest time on the machine the benchmark was defined
# on (a 2-core virtual machine, Python 3.11.7).  Times are reported at that
# speed (see Speedometer).
REFERENCE_S = 4.2e-4
# The reference loop runs every REFERENCE_EVERY_S of wall time while a run
# measures, taking about 2 % of it.
REFERENCE_EVERY_S = 0.02


def fresh_import():
    """Import suspensia and its CLI from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "suspensia" or m.startswith("suspensia.")]:
        del sys.modules[name]
    importlib.import_module("suspensia.cli")
    return sys.modules["suspensia"]


def busy(speed):
    """Seconds the speedometer's handler has taken so far (0 without one)."""
    return 0.0 if speed is None else speed.busy


def set_up(workload, seed, workdir, speed=None):
    """Import suspensia afresh and build the workload's jobs.

    Returns (library, jobs, seconds taken).  The garbage of the previous
    set-up is collected first, outside the timed region."""
    gc.collect()
    b0, t0 = busy(speed), perf_counter()
    sx = fresh_import()
    jobs = WORKLOADS[workload](sx, random.Random(seed), Path(tempfile.mkdtemp(dir=workdir)))
    return sx, jobs, perf_counter() - t0 - (busy(speed) - b0)


def reference_loop():
    """Fixed work of the library's kind (Fraction arithmetic, dicts keyed by
    tuples) that never calls the library, so no change to it can move it."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 100):
        total += Fraction(i % 13 - 6, i) * Fraction(i % 7 + 1, 3)
        seen[i, i % 5] = total
    return total


class Speedometer:
    """Samples the machine's speed while jobs run, to report job times at
    the reference speed.

    The cores of a shared machine slow down by a quarter to three quarters
    while a neighbour is busy: in flickers shorter than a job, and in spells
    of a minute or more.  A timer signal interrupts the program every
    REFERENCE_EVERY_S and runs the reference loop in the handler, so the
    samples are spread evenly over time, jobs included.  Their mean speed
    over a pass is the speed the pass's jobs had, in flickers and spells
    alike; a job's time multiplied by ``take_scale()`` no longer depends on
    it.  The loop never calls the library, so a change to the library shows
    in full.  The time the handler takes is subtracted from the job it
    interrupted (``busy`` adds it up), and the garbage collector is off
    while the loop runs, so that it never pays for the library's objects.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _sample(self, *_):
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        reference_loop()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.busy += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take_scale(self):
        """REFERENCE_S times the mean speed (1 / loop time) of the samples
        since the last call."""
        if not self.samples:
            self._sample()
        scale = REFERENCE_S * statistics.mean(1 / d for d in self.samples)
        self.samples = []
        return scale


def run_pass(jobs, speed=None):
    """Run every job once; returns (pass seconds, job seconds, failures).

    With a running ``speed``, the time its handler took is left out of each
    job's time."""
    outcomes, times = [], []
    start = perf_counter()
    for job in jobs:
        b0, t0 = busy(speed), perf_counter()
        try:
            outcome = job.call()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            outcome = exc
        times.append(perf_counter() - t0 - (busy(speed) - b0))
        outcomes.append(outcome)
    wall = perf_counter() - start
    failures = []
    for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
        if isinstance(outcome, Exception):
            failures.append((index, job.kind, outcome))
            continue
        try:
            ok = job.check(outcome)
        except Exception as exc:
            ok, outcome = False, exc
        if not ok:
            failures.append((index, job.kind, outcome))
    return wall, times, failures


def tail_percentile(jobs_per_pass: int):
    """The highest percentile with at least 10 of a pass's jobs beyond it."""
    for q in TAIL_PERCENTILES:
        if jobs_per_pass * (100 - q) / 100 >= 10:
            return q
    return None


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]


def end_to_end(fresh, seconds):
    """Each job at its median over the run's passes; a pass is their sum.

    Every time is scaled to the reference speed by the speed measured while
    it ran: over its pass for a job, over its batch for a set-up (see
    ``Speedometer``).  ``fresh(speed)`` sets the workload up afresh (see
    ``set_up``); setup_s is the median of the set-ups.
    """
    job_times, failures, setups, scales = [], [], [], []
    start = perf_counter()
    last_batch = None
    with Speedometer() as speed:
        while not job_times or perf_counter() - start < seconds:
            batch = last_batch is None or perf_counter() - last_batch >= SETUP_EVERY_S
            pass_setups = []
            for _ in range(SETUP_BATCH if batch else 1):
                _, jobs, took = fresh(speed)
                pass_setups.append(took)
            if batch:
                last_batch = perf_counter()
            scale = speed.take_scale()
            setups.extend(t * scale for t in pass_setups)
            _, times, failed = run_pass(jobs, speed)
            scales.append(speed.take_scale())
            job_times.append([t * scales[-1] for t in times])
            failures.extend(failed)
    per_job = [statistics.median(times) for times in zip(*job_times)]
    q = tail_percentile(len(jobs))
    tail = max(per_job) if q is None else percentile(per_job, q)
    info = {
        "passes": len(job_times),
        "jobs_per_pass": len(jobs),
        "tail": "max" if q is None else f"p{q}",
        "set-ups": len(setups),
        "reference speed": f"{statistics.median(scales):.3f}",
    }
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, len(jobs) * len(job_times), failures, info


def coefficient_kernels(sx, seed):
    """Microseconds per CyclotomicNumber multiply and inverse at p=7."""
    rng = random.Random(seed)
    sample = [
        sx.CyclotomicNumber(7, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(6)])
        for _ in range(40)
    ]
    sample = [c for c in sample if c]
    mul_runs, inv_runs = [], []
    for _ in range(5):
        t0 = perf_counter()
        for a in sample:
            for b in sample:
                a * b
        mul_runs.append((perf_counter() - t0) / len(sample) ** 2)
        t0 = perf_counter()
        for a in sample:
            a.inverse()
        inv_runs.append((perf_counter() - t0) / len(sample))
    return statistics.median(mul_runs) * 1e6, statistics.median(inv_runs) * 1e6


def per_layer(fresh, seconds, seed, spans_path, wanted):
    """Per-layer metrics of BENCHMARK.json: counts from the tracer's counters,
    names ending in _s from the self time of the span they name.

    Each traced pass must repeat the first one's counts, or the run fails:
    the inputs are the same, so the work must be too."""
    tracer = Tracer()
    plain, traced, counts, selfs = [], [], [], []
    failures, attempted = [], 0
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        sx, jobs, _ = fresh()
        tracer.reset()
        tracer.install()
        try:
            wall, _, failed = run_pass(jobs)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failures.extend(failed)
        counts.append(dict(tracer.counts))
        selfs.append(tracer.self_seconds())
        sx, jobs, _ = fresh()
        wall, _, failed = run_pass(jobs)
        plain.append(wall)
        failures.extend(failed)
        attempted += 2 * len(jobs)
    attempted += 1  # the check that the counts repeat
    differ = sorted({name for c in counts for name in c if c.get(name) != counts[0].get(name)})
    if differ:
        failures.append(("-", "traced counts", f"differ between traced passes: {differ}"))
    tracer.write_spans(spans_path)

    count = counts[0]
    metrics = {}
    for name, unit in wanted.items():
        if unit == "s":
            metrics[name] = (statistics.median(s.get(name[:-2], 0.0) for s in selfs), unit)
        elif unit == "count":
            metrics[name] = (count.get(name, 0), unit)
    nf = count.get("groebner.nf", 0)
    metrics["groebner.nf_zero_ratio"] = (count.get("groebner.nf_zero", 0) / nf if nf else 0.0,
                                         "ratio")
    mul_us, inv_us = coefficient_kernels(sx, seed)
    metrics["coeff.mul_p7_us"] = (mul_us, "us")
    metrics["coeff.inv_p7_us"] = (inv_us, "us")
    metrics["trace.overhead_s"] = (min(traced) - min(plain), "s")
    metrics = {name: metrics[name] for name in wanted}
    info = {"passes": f"{len(plain)} untraced + {len(traced)} traced",
            "jobs_per_pass": len(jobs), "spans": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "suspensia" / "__init__.py").is_file():
        print(f"error: no library at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        def fresh(speed=None):
            return set_up(args.workload, args.seed, tmp, speed)

        # The first set-up also writes the bytecode caches; it is not timed.
        fresh()
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.tsv"
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, attempted, failures, info = per_layer(
                fresh, args.seconds, args.seed, spans, wanted)
        else:
            metrics, attempted, failures, info = end_to_end(fresh, args.seconds)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    for index, kind, outcome in failures[:5]:
        print(f"failed job {index} ({kind}): {outcome!r}", file=sys.stderr)
        if isinstance(outcome, Exception):
            traceback.print_exception(outcome, file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} jobs)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
