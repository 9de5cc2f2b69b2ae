import json

import pytest

from aggdom.cli import main
from aggdom import parse_domain, parse_formula, models

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


def test_census_command(capsys):
    code = main(["census", "2", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 7 and all(row["match"] for row in rows)


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
