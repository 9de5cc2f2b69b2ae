"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --out runs.json --label before --seeds 1-10 \
        [--workloads a,b] [--trace 0|1]

Each run is a separate `bench/run.py` process, one at a time.  Under
`--label` the output file gets the environment, every run's JSON line, and
per workload and metric the median, the quartiles and the spread (quartile
distance over median); other labels already in the file are kept, so one
file can hold the sets of runs to compare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import numpy

    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "run_seconds": config["run_seconds"],
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **line})
            print(workload, seed, f"{wall:.1f}s", line["correct"], line["failed"],
                  {k: round(v["value"], 4) for k, v in line["metrics"].items()}, flush=True)
        names = runs[0]["metrics"]
        result["workloads"][workload] = {
            "runs": runs,
            "summary": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
        }
    out = Path(args.out)
    sets = json.loads(out.read_text()) if out.exists() else {}
    sets[args.label] = result
    out.write_text(json.dumps(sets, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
