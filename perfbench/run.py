"""hho2 benchmark: one workload, timed end to end, or traced per module.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify-n6 --seed 1 --seconds 30 --trace 0

The program under test is the checkout's `src/hho2`, imported from source.  One
process runs one caller in a closed loop: the next task starts when the last
one has finished.  Workloads and their checks are in `workloads.py`, the
per-module trace in `tracing.py`; README.md explains the choices.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs tasks untraced
for half of --seconds, then installs the trace, repeats the set-up and replays
the same tasks, and reports the per-layer metrics.

Times are reported in reference seconds: a wall time is multiplied by
REFERENCE_NOMINAL_S over the wall time of a fixed piece of arithmetic measured
next to it.  The speed of the shared machine this was built on drifts by up to
half over tens of seconds, and this scaling cancels the drift.  The metadata
line also gives the plain wall-clock figures.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is measured this many times per run (this process plus fresh child
# processes, so that imports are paid each time) and reported as the median.
SETUP_SAMPLES = 3
# Reference runs before and after a set-up; their medians scale its time.
SETUP_REFERENCES = 3
# The reference work takes about this long on the machine the benchmark was
# built on, so reference seconds read close to its wall seconds.
REFERENCE_NOMINAL_S = 0.03
# The report digest covers this many first tasks; every run makes at least these.
DIGEST_TASKS = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tracing.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and print it (used for the repeated set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def reference_seconds() -> float:
    """Wall time of a fixed piece of exact arithmetic that does not use hho2.

    It multiplies two sparse polynomials the way `MultiPoly.mul` does: tuple
    exponent keys in a dict, `Fraction` coefficients.
    """
    start = time.perf_counter()
    terms = {(i, j, k, m): Fraction(i - j + 2, k + m + 1)
             for i in range(3) for j in range(3) for k in range(3) for m in range(3)}
    product = {}
    for ea, ca in terms.items():
        for eb, cb in terms.items():
            e = tuple(map(int.__add__, ea, eb))
            product[e] = product.get(e, 0) + ca * cb
    return time.perf_counter() - start


def scaled(wall: float, reference: float) -> float:
    return wall * REFERENCE_NOMINAL_S / reference


class Run:
    """Runs numbered tasks of one workload instance and collects the outcome."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        # Reference time around each task: the mean of the runs before and after it.
        self.references = []
        self._reference_before = None
        self.failed = 0
        self.all_reports = hashlib.sha256()
        self.first_reports = hashlib.sha256()

    def one(self, index: int) -> None:
        if self._reference_before is None:
            self._reference_before = reference_seconds()
        start = time.perf_counter()
        try:
            result = self.workload.task(index)
        except Exception:
            result = None
            print(f"task {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.latencies.append(time.perf_counter() - start)
        after = reference_seconds()
        self.references.append((self._reference_before + after) / 2)
        self._reference_before = after
        if result is None:
            self.failed += 1
            return
        if result.problems:
            self.failed += 1
            for problem in result.problems:
                print(f"task {index}: {problem}", file=sys.stderr)
        self.all_reports.update(result.report)
        if index < DIGEST_TASKS:
            self.first_reports.update(result.report)

    def for_seconds(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        least = max(self.workload.min_tasks, DIGEST_TASKS)
        while index < least or time.perf_counter() - start < seconds:
            self.one(index)
            index += 1

    def replay(self, count: int) -> None:
        for index in range(count):
            self.one(index)

    def scaled_latencies(self):
        return [scaled(t, r) for t, r in zip(self.latencies, self.references)]


def reference_median() -> float:
    return statistics.median(reference_seconds() for _ in range(SETUP_REFERENCES))


def child_setup_sample(args):
    """One set-up in a fresh interpreter, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); runs with ten tasks or fewer
    fall back to the maximum.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def end_to_end(run: Run, setups):
    """The end-to-end metrics and the metadata that goes with them."""
    times = run.scaled_latencies()
    value, percentile, beyond = tail(times)
    metrics = {
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (value, "s"),
        "setup_s": (statistics.median(scaled(w, r) for w, r in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    meta = {
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "setup_samples": setups,
        "wall_clock": {
            "tasks_per_s": len(run.latencies) / sum(run.latencies),
            "task_p50_s": statistics.median(run.latencies),
            "task_tail_s": tail(run.latencies)[0],
            "setup_s": statistics.median(w for w, _ in setups),
            "reference_median_s": statistics.median(run.references),
        },
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}, meta


def clear_sympy_cache() -> None:
    """Drop sympy's memo so that a replay does not reuse the first pass's results."""
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hho2" / "__init__.py").is_file():
        print(f"error: no hho2 source at {SRC / 'hho2'}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    reference_seconds()  # the first run in a process is slower and is not counted
    reference_before = reference_median()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hho2

    if Path(hho2.__file__).resolve().parent != (SRC / "hho2").resolve():
        print(f"error: imported hho2 from {hho2.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    def instance(label: str):
        path = workdir / label
        path.mkdir()
        return workloads.WORKLOADS[args.workload](args.seed, path)

    main_run = Run(instance("untraced"))
    main_run.workload.setup()
    setup = (time.perf_counter() - start, (reference_before + reference_median()) / 2)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }
    if args.trace == 0:
        setups = [setup] + [child_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        main_run.for_seconds(args.seconds)
        problems = main_run.workload.finish()
        metrics, extra = end_to_end(main_run, setups)
        meta.update(extra)
        runs = [main_run]
    else:
        clear_sympy_cache()
        main_run.for_seconds(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_run = Run(instance("traced"))
            start = time.perf_counter()
            traced_run.workload.setup()
            traced_setup = time.perf_counter() - start
            clear_sympy_cache()
            traced_run.replay(len(main_run.latencies))
        finally:
            tracer.uninstall()
        problems = main_run.workload.finish() + traced_run.workload.finish()
        if traced_run.all_reports.digest() != main_run.all_reports.digest():
            problems.append("traced replay produced different reports than the untraced tasks")
        metrics = tracer.metrics(REFERENCE_NOMINAL_S / statistics.median(traced_run.references))
        meta.update(trace_overhead=sum(traced_run.scaled_latencies()) / sum(main_run.scaled_latencies()),
                    traced_setup_s=scaled(traced_setup, statistics.median(traced_run.references)))
        runs = [main_run, traced_run]

    attempted = sum(len(run.latencies) for run in runs)
    failed = sum(run.failed for run in runs)
    for problem in problems:
        print(f"run: {problem}", file=sys.stderr)
    meta.update(tasks=len(main_run.latencies), error_ratio=failed / attempted,
                report_digest=main_run.first_reports.hexdigest(),
                digest_tasks=DIGEST_TASKS)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
