"""Traced runs from outside the program.

`Tracer.install` wraps each traced public function of aggdom at every module
binding that holds it (a function imported with `from .x import f` lives
under several names), so calls are timed whichever module makes them.  Each
call becomes one span: job id, parent span, name, start, end and the counts
read off its arguments and result.  Spans stay in memory until `write`.
Nothing inside aggdom changes; `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
from dataclasses import dataclass
from time import perf_counter

MODULES = ("aggdom", "aggdom.cli", "aggdom.formula", "aggdom.domain", "aggdom.boolfn",
           "aggdom.recognize", "aggdom.synthesize", "aggdom.aggregate", "aggdom.oracle")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counts computed at the boundary from arguments and result, per traced function.
COUNTERS = {
    "formula.parse_formula": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))},
    "formula.models": lambda a, k, r: {"positions": 1 << _arg(a, k, 0, "f").n},
    "domain.parse_domain": None,
    "domain.is_affine": None,
    "domain.is_closed_under": lambda a, k, r: {
        "tuples_bound": len(_arg(a, k, 0, "d").members) ** _arg(a, k, 1, "f").arity,
        "true": int(r),
    },
    "boolfn.named_fn": None,
    "boolfn.fn_name": None,
    "recognize.classify_formula": lambda a, k, r: {"clauses_in": len(_arg(a, k, 0, "f").clauses)},
    "recognize.check_renamable_partially_horn": None,
    "recognize.check_separable": None,
    "recognize.check_partially_horn": None,
    "recognize.check_lpic": None,
    "synthesize.prime_cnf": lambda a, k, r: {
        "nonmembers_swept": (1 << _arg(a, k, 0, "d").n) - len(_arg(a, k, 0, "d").members),
        "clauses_out": len(r.formula.clauses),
    },
    "synthesize.affine_formula": None,
    "synthesize.pic_for": None,
    "synthesize.lpic_analysis": lambda a, k, r: {"accepted": int(r[0] is not None)},
    "aggregate.classify_domain": None,
    "aggregate.is_aggregator": lambda a, k, r: {
        "tuples_bound": len(_arg(a, k, 1, "d").members) ** _arg(a, k, 0, "F").k,
        "accepted": int(r),
    },
    "aggregate.is_generalized_dictatorship": None,
    "oracle.census": None,
    "oracle.oracle_verdicts": None,
    "oracle.brute_binary": lambda a, k, r: {
        "candidates_bound": 4 ** _arg(a, k, 0, "d").n,
        "found": int(r is not None),
    },
    "oracle.brute_ternary_commutative": lambda a, k, r: {"found": int(r is not None)},
}


@dataclass(frozen=True)
class Span:
    job: int
    parent: int  # index of the parent span, -1 at a job's root
    name: str
    start: float
    end: float
    counts: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        """Run fn as one span named `name`, nested under the open span."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            counts = counter(args, kwargs, result) if ok and counter else None
            self.spans[sid] = Span(self.job, parent, name, start, end, counts)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for qualified, counter in COUNTERS.items():
            module_name, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"aggdom.{module_name}"), attr)
            wrapper = self._wrap(qualified, original, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self):
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return wrapper

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, s in enumerate(self.spans):
                record = {"id": sid, "job": s.job, "parent": s.parent, "name": s.name,
                          "start": s.start, "end": s.end}
                if s.counts:
                    record["counts"] = s.counts
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for sid, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(sid)
    out = []
    for sid, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(sid, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _outermost(spans, sid) -> bool:
    """No ancestor of the span has the same name (recursion counts once in busy time)."""
    name = spans[sid].name
    parent = spans[sid].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def _ratio(num, den):
    return num / den if den else 0.0


# ratio metric -> the count it divides by the number of calls
RATIOS = {"true_ratio": "true", "accept_ratio": "accepted", "found_ratio": "found"}


# Per-layer metrics: (name, unit, the end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("cli.main.self_s", "s", "job_p50_s on census-n4 and formula-cli"),
    ("formula.parse_formula.busy_s", "s", "job_p50_s and jobs_per_s on formula-cli; no others"),
    ("formula.parse_formula.bytes", "bytes", "job_p50_s and jobs_per_s on formula-cli; no others"),
    ("formula.models.calls", "count", "job_p50_s on domain-cli"),
    ("formula.models.busy_s", "s", "job_p50_s on domain-cli"),
    ("formula.models.positions", "count", "job_p50_s on domain-cli"),
    ("domain.parse_domain.busy_s", "s", "job_p50_s on domain-cli"),
    ("domain.is_affine.calls", "count", "jobs_per_s on census-n4 and domain-cli"),
    ("domain.is_affine.busy_s", "s", "jobs_per_s on census-n4 and domain-cli"),
    ("domain.is_closed_under.calls", "count", "job_p90_s on domain-cli"),
    ("domain.is_closed_under.busy_s", "s", "job_p90_s on domain-cli"),
    ("domain.is_closed_under.tuples_bound", "count", "job_p90_s on domain-cli"),
    ("domain.is_closed_under.true_ratio", "ratio", "job_p90_s on domain-cli"),
    ("boolfn.named_fn.calls", "count", "jobs_per_s on census-n4"),
    ("boolfn.named_fn.busy_s", "s", "jobs_per_s on census-n4"),
    ("boolfn.fn_name.calls", "count", "jobs_per_s on census-n4"),
    ("boolfn.fn_name.busy_s", "s", "jobs_per_s on census-n4"),
    ("recognize.classify_formula.busy_s", "s", "job_p50_s on formula-cli"),
    ("recognize.clauses_in", "count", "job_p50_s on formula-cli"),
    ("recognize.check_renamable_partially_horn.calls", "count", "job_p50_s on formula-cli"),
    ("recognize.check_renamable_partially_horn.busy_s", "s", "job_p50_s on formula-cli"),
    ("recognize.check_renamable_partially_horn.calls_per_job", "count", "job_p50_s on formula-cli"),
    ("recognize.check_separable.calls", "count", "job_p50_s on formula-cli"),
    ("recognize.check_separable.busy_s", "s", "job_p50_s on formula-cli"),
    ("recognize.check_partially_horn.busy_s", "s", "job_p50_s on formula-cli"),
    ("recognize.check_lpic.calls", "count", "job_p50_s on formula-cli"),
    ("recognize.check_lpic.busy_s", "s", "job_p50_s on formula-cli"),
    ("synthesize.prime_cnf.calls", "count", "job_p50_s and jobs_per_s on domain-cli, jobs_per_s on census-n4"),
    ("synthesize.prime_cnf.calls_per_job", "count", "job_p50_s and jobs_per_s on domain-cli, jobs_per_s on census-n4"),
    ("synthesize.prime_cnf.busy_s", "s", "job_p50_s and jobs_per_s on domain-cli, jobs_per_s on census-n4"),
    ("synthesize.prime_cnf.nonmembers_swept", "count", "job_p50_s and jobs_per_s on domain-cli"),
    ("synthesize.prime_cnf.clauses_out", "count", "job_p50_s and jobs_per_s on domain-cli"),
    ("synthesize.prime_cnf.clauses_per_swept", "ratio", "job_p50_s and jobs_per_s on domain-cli"),
    ("synthesize.affine_formula.calls", "count", "job_p50_s on domain-cli"),
    ("synthesize.affine_formula.busy_s", "s", "job_p50_s on domain-cli"),
    ("synthesize.pic_for.calls", "count", "job_p50_s on domain-cli"),
    ("synthesize.pic_for.busy_s", "s", "job_p50_s on domain-cli"),
    ("synthesize.lpic_analysis.calls", "count", "job_p50_s on domain-cli"),
    ("synthesize.lpic_analysis.busy_s", "s", "job_p50_s on domain-cli"),
    ("synthesize.lpic_analysis.accept_ratio", "ratio", "job_p50_s on domain-cli"),
    ("aggregate.classify_domain.calls", "count", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.classify_domain.busy_s", "s", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.classify_domain.self_s", "s", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.is_aggregator.calls", "count", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.is_aggregator.busy_s", "s", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.is_aggregator.tuples_bound", "count", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.is_aggregator.accept_ratio", "ratio", "job_p90_s on domain-cli, jobs_per_s on census-n4"),
    ("aggregate.is_generalized_dictatorship.calls", "count", "jobs_per_s on census-n4"),
    ("aggregate.is_generalized_dictatorship.busy_s", "s", "jobs_per_s on census-n4"),
    ("oracle.census.busy_s", "s", "jobs_per_s on census-n4"),
    ("oracle.oracle_verdicts.calls", "count", "jobs_per_s on census-n4"),
    ("oracle.oracle_verdicts.busy_s", "s", "jobs_per_s on census-n4"),
    ("oracle.oracle_verdicts.self_s", "s", "jobs_per_s on census-n4"),
    ("oracle.brute_binary.calls", "count", "jobs_per_s on census-n4"),
    ("oracle.brute_binary.busy_s", "s", "jobs_per_s on census-n4"),
    ("oracle.brute_binary.candidates_bound", "count", "jobs_per_s on census-n4"),
    ("oracle.brute_binary.found_ratio", "ratio", "jobs_per_s on census-n4"),
    ("oracle.brute_ternary_commutative.calls", "count", "jobs_per_s on census-n4"),
    ("oracle.brute_ternary_commutative.busy_s", "s", "jobs_per_s on census-n4"),
    ("oracle.brute_ternary_commutative.found_ratio", "ratio", "jobs_per_s on census-n4"),
    ("trace.overhead_frac", "ratio", "no end-to-end metric; traced over untraced job time, minus one"),
)


def layer_metrics(spans, job_kinds: dict[int, str], passes: int) -> tuple[dict, dict]:
    """Per-layer values per pass over the job list, from the recorded spans.

    Counts, busy and self times are totals per pass; a ratio divides one
    count by the calls; calls_per_job is the median calls per job over the
    jobs of one kind (CLI command) that call the function, for the kind where
    that median is largest.  Also returns, for each calls_per_job metric, the
    median of every kind.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    per_job: dict[str, dict[int, int]] = {}
    for sid, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[sid]
        if _outermost(spans, sid):
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        if s.counts:
            bucket = counts.setdefault(s.name, {})
            for key, value in s.counts.items():
                bucket[key] = bucket.get(key, 0) + value
        jobs = per_job.setdefault(s.name, {})
        jobs[s.job] = jobs.get(s.job, 0) + 1

    def per_kind(name):
        by_kind: dict[str, list[int]] = {}
        for job, n in per_job.get(name, {}).items():
            by_kind.setdefault(job_kinds[job], []).append(n)
        return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    detail: dict[str, dict] = {}
    for metric, _unit, _moves in LAYER_METRICS:
        if metric == "trace.overhead_frac":
            continue
        name, _, stat = metric.rpartition(".")
        if metric == "recognize.clauses_in":
            name, stat = "recognize.classify_formula", "clauses_in"
        if stat == "calls_per_job":
            detail[metric] = per_kind(name)
            values[metric] = max(detail[metric].values(), default=0)
        elif stat in RATIOS:
            values[metric] = _ratio(count(name, RATIOS[stat]), calls.get(name, 0))
        elif stat == "clauses_per_swept":
            values[metric] = _ratio(count(name, "clauses_out"), count(name, "nonmembers_swept"))
        else:
            totals = {"calls": calls, "busy_s": busy, "self_s": self_s}
            total = totals[stat].get(name, 0) if stat in totals else count(name, stat)
            values[metric] = total / passes
    return values, detail
