"""Tests of the benchmark itself: generator determinism, a checker that
rejects corrupted outputs, and the span arithmetic.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from aggdom import cli  # noqa: E402


def _files(directory):
    return {name: Path(directory, name).read_bytes() for name in sorted(os.listdir(directory))}


def _argv(jobs, directory):
    return [[a.replace(str(directory), "") for a in job.argv] for job in jobs]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_writes_identical_inputs(workload, tmp_path):
    a = gen.generate(workload, 5, str(tmp_path / "a"))
    b = gen.generate(workload, 5, str(tmp_path / "b"))
    c = gen.generate(workload, 6, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _argv(a, tmp_path / "a") == _argv(b, tmp_path / "b")
    assert [j.expect for j in a] == [j.expect for j in b]
    if workload == "census-n4":
        assert _argv(a, "") != _argv(c, "")
    else:
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _formula_job(tmp_path, family, m=400):
    n, clauses, expect = gen._family_formula(family, random.Random(3), m)
    path = tmp_path / f"{family}.ecnf"
    path.write_text(gen.render_ecnf(n, clauses))
    expect = {"code": 0 if expect["pic"] else 1, "family": family, **expect}
    job = gen.Job("classify-formula", ["classify-formula", str(path), "--json"], expect, str(path))
    return job, _run(job.argv)


def _corrupt(stdout, name, change):
    report = json.loads(stdout)
    for record in report:
        if record["class"] == name:
            change(record)
    return json.dumps(report)


@pytest.mark.parametrize("family", sorted(gen.FORMULA_FAMILIES))
def test_checker_accepts_real_formula_reports(family, tmp_path):
    job, (code, stdout, stderr) = _formula_job(tmp_path, family)
    assert checker.Checker().check_job(job, code, stdout, stderr) is None


def test_checker_rejects_corrupted_formula_reports(tmp_path):
    job, (code, stdout, stderr) = _formula_job(tmp_path, "renamable-horn")
    rph = next(r for r in json.loads(stdout) if r["class"] == "renamable_partially_horn")["witness"]
    flipped = rph["renamed"][0] if rph["renamed"] else rph["admissible"][0]

    def flip_verdict(record):
        record["verdict"] = not record["verdict"]

    def wrong_renaming(record):
        record["witness"] = sorted(set(record["witness"]) ^ {flipped})

    def wrong_rph(record):
        record["witness"]["renamed"] = sorted(set(record["witness"]["renamed"]) ^ {flipped})

    corrupted = [
        _corrupt(stdout, "horn", flip_verdict),
        _corrupt(stdout, "pic", flip_verdict),
        _corrupt(stdout, "renamable_horn", wrong_renaming),
        _corrupt(stdout, "renamable_partially_horn", wrong_rph),
    ]
    for bad in corrupted:
        assert checker.Checker().check_job(job, code, bad, stderr) is not None
    assert checker.Checker().check_job(job, 1 - code, stdout, stderr) is not None

    job, (code, stdout, stderr) = _formula_job(tmp_path, "separable")
    sep = next(r for r in json.loads(stdout) if r["class"] == "separable")["witness"]
    moved = sep["part2"][0]

    def wrong_split(record):
        record["witness"] = {"part1": sep["part1"] + [moved], "part2": sep["part2"][1:]}

    bad = _corrupt(stdout, "separable", wrong_split)
    assert checker.Checker().check_job(job, code, bad, stderr) is not None


@pytest.fixture
def domain_jobs(tmp_path):
    jobs = gen.domain_jobs(4, str(tmp_path))
    return [(job, _run(job.argv)) for job in jobs if "and-closed" in job.argv[1] and "--permissive" not in job.argv]


def test_checker_accepts_real_domain_outputs(domain_jobs):
    for job, (code, stdout, stderr) in domain_jobs:
        assert checker.Checker().check_job(job, code, stdout, stderr) is None, job.argv


def test_checker_rejects_corrupted_domain_outputs(domain_jobs):
    job, (code, stdout, stderr) = next(j for j in domain_jobs if j[0].kind == "classify-domain")
    n, members = checker.parse_domain_file(Path(job.path).read_text())
    assert not checker.closed(n, members, [checker.NAMED_TABLES["or"]] * n)

    def flip_verdict(record):
        record["verdict"] = not record["verdict"]

    def not_closing(record):
        record["witness"]["components"] = ["or"] * n

    def dictatorial(record):
        record["witness"]["components"] = ["pr1"] * n

    def wrong_family(record):
        record["method"] = "and,or"

    for bad in [
        _corrupt(stdout, "possibility", flip_verdict),
        _corrupt(stdout, "possibility", not_closing),
        _corrupt(stdout, "possibility", dictatorial),
        _corrupt(stdout, "systematic_family", wrong_family),
    ]:
        assert checker.Checker().check_job(job, code, bad, stderr) is not None

    job, (code, stdout, stderr) = next(j for j in domain_jobs if j[0].kind == "synthesize")
    lines = stdout.splitlines()
    n_vars, n_clauses = lines[0].split()[2:]
    dropped = "\n".join([f"p ecnf {n_vars} {int(n_clauses) - 1}"] + lines[2:]) + "\n"
    assert checker.Checker().check_job(job, code, dropped, stderr) is not None


def test_checker_rejects_corrupted_census():
    job = gen.census_jobs(1)[0]
    code, stdout, stderr = _run(job.argv)
    assert checker.Checker().check_job(job, code, stdout, stderr) is None
    records = json.loads(stdout)
    mismatch = [dict(records[0], match=False)] + records[1:]
    for bad in (records[1:], mismatch):
        assert checker.Checker().check_job(job, code, json.dumps(bad), stderr) is not None


def _span(job, parent, name, start, end, counts=None):
    return spans.Span(job, parent, name, start, end, counts)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(0, 0, "a.f", 1.0, 4.0),
        _span(0, 1, "a.g", 2.0, 3.0),
        _span(0, 0, "a.g", 3.0, 6.0),  # overlaps its sibling: counted once
        _span(0, 0, "a.f", 8.0, 12.0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(0, 0, "synthesize.prime_cnf", 1.0, 3.0, {"nonmembers_swept": 10, "clauses_out": 4}),
        _span(0, 0, "synthesize.prime_cnf", 4.0, 6.0, {"nonmembers_swept": 10, "clauses_out": 4}),
        _span(0, 0, "synthesize.pic_for", 6.0, 9.0),
        _span(0, 3, "synthesize.pic_for", 7.0, 8.0),  # recursion: busy counts the outer call
        _span(1, -1, "cli.main", 10.0, 12.0),
        _span(1, 5, "synthesize.prime_cnf", 10.5, 11.0, {"nonmembers_swept": 4, "clauses_out": 1}),
    ]
    values, detail = spans.layer_metrics(tree, {0: "classify-domain", 1: "synthesize"}, passes=1)
    assert values["synthesize.prime_cnf.calls"] == 3
    assert values["synthesize.prime_cnf.busy_s"] == pytest.approx(4.5)
    assert values["synthesize.prime_cnf.nonmembers_swept"] == 24
    assert values["synthesize.prime_cnf.clauses_per_swept"] == pytest.approx(9 / 24)
    assert values["synthesize.prime_cnf.calls_per_job"] == 2
    assert detail["synthesize.prime_cnf.calls_per_job"] == {"classify-domain": 2, "synthesize": 1}
    assert values["synthesize.pic_for.calls"] == 2
    assert values["synthesize.pic_for.busy_s"] == pytest.approx(3.0)
    assert values["cli.main.self_s"] == pytest.approx(10 - 7 + 2 - 0.5)
    half, _ = spans.layer_metrics(tree, {0: "classify-domain", 1: "synthesize"}, passes=2)
    assert half["synthesize.prime_cnf.calls"] == 1.5


def test_tracer_wraps_every_binding_and_restores_it():
    from aggdom import aggregate, synthesize

    original = synthesize.prime_cnf
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert synthesize.prime_cnf is not original
        assert aggregate.prime_cnf is synthesize.prime_cnf
        tracer.job = 0
        code, _, _ = tracer.call("cli.main", _run, ["census", "3", "--sample", "2", "--json"])
    finally:
        tracer.uninstall()
    assert synthesize.prime_cnf is original and aggregate.prime_cnf is original
    assert code == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "oracle.census", "synthesize.prime_cnf", "aggregate.classify_domain"} <= names
    assert all(s.parent < sid for sid, s in enumerate(tracer.spans))


def test_benchmark_json_lists_every_per_layer_metric():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in config["per_layer"]]
    assert listed == [(name, unit) for name, unit, _ in spans.LAYER_METRICS]


def test_harrell_davis_quantiles():
    values = list(range(1, 102))
    assert run.quantile(values, 0.5) == pytest.approx(51, abs=1e-6)
    assert run.quantile(values, 0.9) == pytest.approx(91, abs=0.5)
    assert run.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    # a gap at the median moves the estimate smoothly, not by the whole gap
    assert 1 < run.quantile([1] * 10 + [2] * 10, 0.5) < 2
