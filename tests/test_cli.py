import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aggdom
from aggdom import cli
from aggdom.cli import main
from aggdom import Formula, parse_domain, parse_formula, models

from util import count_calls

PHI7 = "p ecnf 3 2\n-1 2 3 0\n1 -2 -3 0\n"
PHI6 = "p ecnf 5 3\n-1 2 3 4 0\n1 -2 -3 0\n-4 5 0\n"
MOD14 = "d 3\n001\n010\n100\n111\n"
MOD7 = "d 3\n000\n001\n010\n101\n110\n111\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("phi7.ecnf", PHI7),
        ("phi6.ecnf", PHI6),
        ("mod14.dom", MOD14),
        ("mod7.dom", MOD7),
    ]:
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    return paths


def test_classify_formula_phi6(files, capsys):
    code = main(["classify-formula", files["phi6.ecnf"], "--json"])
    records = {r["class"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert records["renamable_partially_horn"]["verdict"] is True
    assert records["renamable_partially_horn"]["witness"]["admissible"] == [4, 5]
    assert records["pic"]["verdict"] is True


def test_classify_formula_reject_exit(files, capsys):
    code = main(["classify-formula", files["phi7.ecnf"]])
    capsys.readouterr()
    assert code == 1


def test_classify_domain_mod7_exit_one(files, capsys):
    code = main(["classify-domain", files["mod7.dom"], "--json"])
    records = {r["class"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert records["possibility"]["verdict"] is False
    assert set(records["possibility"]) == {"class", "verdict", "witness", "method", "counterexample"}


def test_classify_domain_witnesses(files, capsys):
    code = main(["classify-domain", files["mod14.dom"], "--json", "--witness"])
    records = {r["class"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert records["anonymous"]["witness"]["components"] == ["xor3", "xor3", "xor3"]
    assert records["monotone_nondictatorial"]["verdict"] is False


def test_synthesize_round_trip(files, tmp_path, capsys):
    out = tmp_path / "mod14.ecnf"
    code = main(["synthesize", files["mod14.dom"], "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    synthesized = parse_formula(out.read_text())
    assert models(synthesized) == parse_domain(MOD14)


def test_synthesize_reject(files, capsys):
    code = main(["synthesize", files["mod7.dom"]])
    captured = capsys.readouterr()
    assert code == 1
    assert "no possibility" in captured.err


def test_models_command(files, capsys):
    code = main(["models", files["phi7.ecnf"]])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_domain(out) == parse_domain(MOD7)


def test_models_to_synthesize_round_trip(files, tmp_path, capsys):
    domain_file = tmp_path / "roundtrip.dom"
    code = main(["models", files["phi6.ecnf"], "--out", str(domain_file)])
    assert code == 0
    formula_file = tmp_path / "roundtrip.ecnf"
    code = main(["synthesize", str(domain_file), "--out", str(formula_file)])
    capsys.readouterr()
    assert code == 0
    assert models(parse_formula(formula_file.read_text())) == models(parse_formula(PHI6))


def test_library_runs_without_numpy(files):
    argvs = [
        ["synthesize", files["mod14.dom"]],
        ["synthesize", files["mod14.dom"], "--lpic"],
        ["models", files["phi7.ecnf"]],
        ["classify-domain", files["mod7.dom"]],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from aggdom.cli import main\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    src = str(Path(aggdom.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[0, 0, 0, 1], False]


def _fresh_run(argv):
    """Exit code, stdout and stderr of `argv` in a new interpreter."""
    src = str(Path(aggdom.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys\nfrom aggdom.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def test_one_parser_serves_a_bad_then_a_good_argv(files, capsys, monkeypatch):
    # the argument parser is built once per process; a failed parse must not
    # change what the next call prints
    builds = count_calls(monkeypatch, cli, "build_parser")
    cli._parser.cache_clear()
    bad = ["synthesize", files["mod14.dom"], "--no-such-flag"]
    good = ["synthesize", files["mod14.dom"], "--json"]
    with pytest.raises(SystemExit) as exit_info:
        main(bad)
    in_process = [(exit_info.value.code, *capsys.readouterr())]
    code = main(good)
    in_process.append((code, *capsys.readouterr()))
    assert len(builds) == 1
    assert in_process == [_fresh_run(bad), _fresh_run(good)]
    assert in_process[0][0] == 2 and in_process[1][0] == 0


def test_aggregator_check(files, tmp_path, capsys):
    agg = tmp_path / "xbar.agg"
    agg.write_text("a 3 3\nxor3\nxor3\nxor3\n")
    code = main(["aggregator", "check", files["mod14.dom"], str(agg), "--json"])
    records = {r["class"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert records["aggregator"]["verdict"] is True
    assert records["anonymous"]["verdict"] is True
    assert records["monotone"]["verdict"] is False

    code = main(["aggregator", "check", files["mod7.dom"], str(agg), "--json"])
    records = {r["class"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert records["aggregator"]["counterexample"] is not None


def test_aggregator_find(files, capsys):
    code = main(["aggregator", "find", files["mod14.dom"], "--kind", "anonymous"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("a 3 3")
    code = main(["aggregator", "find", files["mod14.dom"], "--kind", "strongdem"])
    capsys.readouterr()
    assert code == 1
    code = main(["aggregator", "find", files["mod7.dom"], "--kind", "binary"])
    capsys.readouterr()
    assert code == 1


def test_aggregator_find_over_the_tuple_cap_exits_three(tmp_path, capsys):
    # 216 members: 216^3 ternary member tuples exceed the 10^7 tuple cap
    path = tmp_path / "n8.dom"
    path.write_text("d 8\n" + "".join(format(v, "08b") + "\n" for v in range(216)))
    code = main(["aggregator", "find", str(path), "--kind", "strongdem"])
    captured = capsys.readouterr()
    assert code == 3 and "cap exceeded" in captured.err and captured.out == ""


def test_census_command(capsys):
    code = main(["census", "2", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 7 and all(row["match"] for row in rows)


@pytest.mark.parametrize("argv", [["census", "2", "--sample", "50"], ["census", "3", "--sample", "-1"]])
def test_census_impossible_sample_exit_two(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_input_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.dom"
    bad.write_text("d 2\n0x\n")
    code = main(["classify-domain", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    code = main(["classify-domain", str(tmp_path / "missing.dom")])
    capsys.readouterr()
    assert code == 2


def test_cap_exit_three(files, capsys):
    code = main(["--cap-models", "2", "models", files["phi7.ecnf"]])
    captured = capsys.readouterr()
    assert code == 3
    assert "cap exceeded" in captured.err


def test_classify_domain_honours_caps(files, tmp_path, capsys):
    # mod14 has 4 members, so a ternary closure check needs 4^3 = 64 tuples
    code = main(["--cap-tuples", "5", "classify-domain", files["mod14.dom"]])
    captured = capsys.readouterr()
    assert code == 3 and "cap exceeded" in captured.err
    n4 = tmp_path / "n4.dom"
    n4.write_text("d 4\n0000\n0101\n1111\n")
    code = main(["--cap-models", "2", "classify-domain", str(n4)])
    captured = capsys.readouterr()
    assert code == 3 and "cap exceeded" in captured.err


# Two n=6 domains with x4..x6 fixed to 1.  The free part of the first has no
# constraint and that of the second has one, yet both lift to the full arity.
CAP_DEGENERATE = {"none.dom": "d 6\n001111\n010111\n100111\n", "some.dom": "d 6\n000111\n011111\n111111\n"}


@pytest.mark.parametrize("name", sorted(CAP_DEGENERATE))
@pytest.mark.parametrize("command", [["classify-domain"], ["synthesize"], ["synthesize", "--lpic"]])
def test_models_cap_bounds_the_input_arity_whatever_the_verdict(name, command, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(CAP_DEGENERATE[name])
    code = main(["--cap-models", "4", command[0], str(path), *command[1:], "--permissive"])
    captured = capsys.readouterr()
    assert code == 3 and "cap exceeded" in captured.err
    code = main(["--cap-models", "6", command[0], str(path), *command[1:], "--permissive"])
    capsys.readouterr()
    assert code == (0 if name == "some.dom" else 1)


def test_tuple_cap_bounds_only_witness_checks(tmp_path, capsys):
    # mod9 has a binary witness but no lpic, so no ternary check runs: a cap
    # between |d|^2 and |d|^3 classifies it, and one below |d|^2 does not
    from conftest import MOD9

    path = tmp_path / "mod9.dom"
    path.write_text("d 6\n" + "".join("".join(map(str, row)) + "\n" for row in MOD9))
    size = len(MOD9)
    code = main(["--cap-tuples", str(size**3 - 1), "classify-domain", str(path), "--json"])
    records = {r["class"]: r["verdict"] for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert records["possibility"] and not records["local_possibility"]
    code = main(["--cap-tuples", str(size**2), "classify-domain", str(path)])
    assert code == 0
    capsys.readouterr()
    code = main(["--cap-tuples", str(size**2 - 1), "classify-domain", str(path)])
    assert code == 3 and "cap exceeded" in capsys.readouterr().err


def test_degenerate_domain_strict_vs_permissive(tmp_path, capsys):
    path = tmp_path / "deg.dom"
    path.write_text("d 2\n00\n01\n")
    code = main(["classify-domain", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "degenerate" in captured.err
    code = main(["classify-domain", str(path), "--permissive"])
    capsys.readouterr()
    assert code == 0


def test_internal_error_exit_four(files, capsys, monkeypatch):
    from aggdom import aggregate

    monkeypatch.setattr(aggregate, "is_aggregator", lambda *args, **kwargs: False)
    code = main(["classify-domain", files["mod14.dom"]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_render_fault_fails_the_round_trip(files, capsys, monkeypatch):
    # the rendered text loses the last clause of the checked formula
    render = cli.render_formula
    monkeypatch.setattr(cli, "render_formula", lambda f: render(Formula(f.n, f.clauses[:-1])))
    code = main(["synthesize", files["mod14.dom"]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "internal error: round-trip verification failed\n"


# Header numbers stay at 8 or below so that `models` and the prime-CNF sweep
# behind `classify-domain` and `synthesize` stay fast on every example.  Most
# files are near-valid (rows, clauses or components that fit the header, with
# some noise lines), so that the commands behind the parsers run as well.
_NOISE = st.lists(st.sampled_from(["0", "-1", "x", "g", "t", "c", "and", "0110"]), max_size=4).map(" ".join)


@st.composite
def _fuzzed_files(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text())
    tag = draw(st.sampled_from(["p ecnf", "d", "a"]))
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([2, 3]))
    if tag == "d":
        line = st.text(alphabet="01", min_size=n, max_size=n)
    elif tag == "p ecnf":
        line = st.builds(
            lambda kind, vs, signs: kind + " ".join(str(v if pos else -v) for v, pos in zip(vs, signs)) + " 0",
            st.sampled_from(["", "", "x ", "g -1 x "]),
            st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True),
            st.lists(st.booleans(), min_size=3, max_size=3),
        )
    else:
        names = ["and", "or", "pr1", "pr2", "t 0111"] if k == 2 else ["maj", "xor3", "and3", "pr3"]
        line = st.sampled_from(names)
    if draw(st.booleans()):
        line = st.one_of(line, _NOISE)
    lines = draw(st.lists(line, max_size=4 if tag == "a" else 8, unique=tag == "d"))
    numbers = {"d": [n], "p ecnf": [n, len(lines)], "a": [len(lines), k]}[tag]
    if draw(st.booleans()):
        numbers = draw(st.lists(st.integers(-1, 8), min_size=1, max_size=2))
    return " ".join([tag, *map(str, numbers)]) + "\n" + "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(text=_fuzzed_files())
def test_cli_exit_codes_on_fuzzed_files(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("fuzz")
    fuzzed, domain, agg = folder / "fuzzed", folder / "mod14.dom", folder / "maj.agg"
    fuzzed.write_text(text)
    domain.write_text(MOD14)
    agg.write_text("a 3 3\nmaj\nmaj\nmaj\n")
    runs = [
        ["classify-formula", str(fuzzed)],
        ["classify-domain", str(fuzzed), "--permissive"],
        ["synthesize", str(fuzzed)],
        ["models", str(fuzzed)],
        ["aggregator", "check", str(domain), str(fuzzed)],
        ["aggregator", "check", str(fuzzed), str(agg)],
    ]
    for argv in runs:
        assert main(argv) in {0, 1, 2, 3}, argv
