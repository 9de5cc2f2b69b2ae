"""aggdom benchmark: CLI jobs on seeded inputs, end to end and per layer.

    python3 bench/run.py --workload census-n4|formula-cli|domain-cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; aggdom is imported from its `src/`.  Each
workload is a closed loop with one client: one process and one thread run
CLI jobs back to back, each job being `aggdom.cli.main(argv)` called
in-process with stdout and stderr captured.  The job list is run in order,
wrapping around, until at least one whole pass and S seconds of job time
are done; the timing metrics use each job's mean time over its executions,
so a partly repeated pass does not skew the mix, and estimate quantiles by
Harrell-Davis.  No layer of aggdom has a
queue, so waiting time is not measured.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs whole passes untraced for about S/2 seconds, then as many passes
traced, and reports the per-layer metrics from the spans (see spans.py),
plus the tracing overhead.  Every job's output is checked outside the timed
region (see checker.py).  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def import_cli():
    """aggdom.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import aggdom.cli

    if not Path(aggdom.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"aggdom imported from {aggdom.cli.__file__}, not from {SRC}")
    return aggdom.cli


def run_job(main, argv, call=None):
    """One CLI job in-process: (seconds, exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call("cli.main", main, argv) if call else main(argv)
    except SystemExit as exc:  # argparse rejects
        code = exc.code
    except Exception as exc:  # an escaped exception fails the job, the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), error


def run_jobs(main, jobs, seconds=None, passes=None, call=None, tracer=None):
    """Run the job list in order, wrapping around, until at least one whole
    pass and `seconds` of job time are done, or exactly `passes` whole
    passes.  Returns one (job index, seconds, code, stdout, stderr, error)
    record per execution."""
    records = []
    measured = 0.0
    while True:
        index = len(records) % len(jobs)
        if index == 0 and passes is not None and len(records) == passes * len(jobs):
            break
        if passes is None and len(records) >= len(jobs) and measured >= seconds:
            break
        gc.collect()
        if tracer is not None:
            tracer.job = len(records)
        elapsed, code, stdout, stderr, error = run_job(main, jobs[index].argv, call)
        measured += elapsed
        records.append((index, elapsed, code, stdout, stderr, error))
    return records


def per_job_means(records, njobs) -> list[float]:
    """Mean time of each job of the list over its executions."""
    sums, counts = [0.0] * njobs, [0] * njobs
    for index, elapsed, *_ in records:
        sums[index] += elapsed
        counts[index] += 1
    return [t / c for t, c in zip(sums, counts)]


def check_records(checker, jobs, records) -> tuple[int, list[str]]:
    failed = 0
    reasons = []
    for index, _elapsed, code, stdout, stderr, error in records:
        job = jobs[index]
        reason = error or checker.check_job(job, code, stdout, stderr)
        if reason:
            failed += 1
            reasons.append(f"{' '.join(job.argv)}: {reason}")
    return failed, reasons


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile: every order statistic,
    weighted by the mass a Beta(p(n+1), (1-p)(n+1)) density puts on its
    1/n-wide slot.  On a few tens of jobs whose times cluster it moves far
    less from run to run than any single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = []
    for i in range(n):
        cells = ((i + (k + 0.5) / steps) / n for k in range(steps))
        logs.append([(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in cells])
    top = max(max(cell) for cell in logs)
    weights = [sum(math.exp(v - top) for v in cell) for cell in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure_setup(workload, seed) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import aggdom.cli and generate the workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = WORK / f"setup-{workload}-{seed}-{os.getpid()}-{i}"
        argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
                "--seed", str(seed), "--workdir", str(workdir)]
        start = time.perf_counter()
        try:
            subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        finally:
            times.append(time.perf_counter() - start)
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


def report_line(name, value, unit, note=""):
    print(f"  {name:<58} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: cannot import aggdom from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")
    if args.setup_only:
        gen.generate(args.workload, args.seed, args.workdir)
        return 0

    import checker
    import spans

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = gen.generate(args.workload, args.seed, str(workdir))
        if args.trace:
            # untraced whole passes for about half the time, then as many traced ones
            records = run_jobs(cli.main, jobs, passes=1)
            passes = max(1, round(args.seconds / 2 / sum(r[1] for r in records)))
            records += run_jobs(cli.main, jobs, passes=passes - 1)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_jobs(cli.main, jobs, passes=passes, call=tracer.call, tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            records, traced = run_jobs(cli.main, jobs, seconds=args.seconds), []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, reasons = check_records(checker.Checker(), jobs, records + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records) + len(traced)
    measured = sum(r[1] for r in records)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs in the list, "
          f"{len(records)} executions in {measured:.2f} s of job time")
    print("  closed loop, one client (one process, one thread); no layer has a queue, "
          "so waiting time is not measured")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")

    if not args.trace:
        means = per_job_means(records, len(jobs))
        count = f"({len(jobs)} jobs, {len(records)} executions"
        tail = "" if len(jobs) >= 100 else "; fewer than 100 jobs, so fewer than 10 beyond the p90"
        metrics = {
            "setup_s": (setup_s, "s", f"(median of {SETUP_REPEATS} fresh set-ups)"),
            "jobs_per_s": (len(jobs) / sum(means), "1/s", count + ")"),
            "job_p50_s": (quantile(means, 0.5), "s", count + ")"),
            "job_p90_s": (quantile(means, 0.9), "s", count + tail + ")"),
            "peak_rss_mb": (peak_rss_mb, "MB", "(this process)"),
            "ok_frac": (1 - failed / attempted, "ratio", f"(failed_frac {failed}/{attempted})"),
        }
        correct = failed == 0
    else:
        mismatched = sum(a[3] != b[3] for a, b in zip(records, traced))
        if mismatched:
            print(f"  FAILED {mismatched} traced jobs printed other stdout than untraced")
            failed += mismatched
        kinds = {i: jobs[i % len(jobs)].kind for i in range(len(traced))}
        values, detail = spans.layer_metrics(tracer.spans, kinds, passes)
        values["trace.overhead_frac"] = sum(r[1] for r in traced) / measured - 1
        metrics = {}
        for name, unit, moves in spans.LAYER_METRICS:
            extra = f" per kind {detail[name]}" if name in detail else ""
            metrics[name] = (values[name], unit, f"# moves {moves}{extra}")
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(str(span_file))
        print(f"  {passes} untraced and {passes} traced passes; {len(tracer.spans)} spans written to "
              f"{span_file.relative_to(ROOT)}; counts and times are per pass")
        correct = failed == 0

    for name, (value, unit, note) in metrics.items():
        report_line(name, value, unit, note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
