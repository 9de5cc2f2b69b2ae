import random
import time

import pytest

from aggdom import (
    Clause,
    Formula,
    check_lpic,
    check_partially_horn,
    check_pic,
    check_renamable_horn,
    check_renamable_partially_horn,
    check_separable,
    check_syntactic_class,
    classify_formula,
    parse_formula,
    rename,
    verify_lpic,
    verify_partially_horn,
)
from aggdom.recognize import FormulaClassReport, build_implication_graph

from util import count_calls, max_admissible, reference_verify_lpic


def test_syntactic_classes(phi):
    assert check_syntactic_class(rename(phi[1], {1, 2, 3, 4})).horn
    assert check_syntactic_class(phi[14]).affine
    f = parse_formula("p ecnf 2 2\n1 2 0\n-1 2 0\n")
    flags = check_syntactic_class(f)
    assert flags.bijunctive and flags.dual_horn and not flags.horn


def test_empty_formula_flags():
    flags = check_syntactic_class(Formula(2))
    assert flags.horn and flags.dual_horn and flags.bijunctive and flags.affine


def test_separable_phi3(phi):
    witness = check_separable(phi[3])
    assert witness.part1 == frozenset({1, 2, 3})
    assert witness.part2 == frozenset({4, 5})


def test_separable_rejects(phi):
    assert check_separable(phi[1]) is None
    assert check_separable(phi[2]) is None
    assert check_separable(parse_formula("p ecnf 3 1\n1 -2 3 0\n")) is None


def test_separable_needs_two_variables():
    with pytest.raises(ValueError):
        check_separable(parse_formula("p ecnf 2 1\n1 0\n"))


def test_separable_invariant_under_reordering(phi):
    rng = random.Random(5)
    for f in phi.values():
        try:
            expected = check_separable(f)
        except ValueError:
            continue
        for _ in range(5):
            clauses = list(f.clauses)
            rng.shuffle(clauses)
            shuffled = []
            for c in clauses:
                ors = list(c.or_part)
                rng.shuffle(ors)
                shuffled.append(Clause(c.kind, tuple(ors), c.xor_part))
            got = check_separable(Formula(f.n, tuple(shuffled)))
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert {got.part1, got.part2} == {expected.part1, expected.part2}


def test_verify_partially_horn_examples(phi):
    assert verify_partially_horn(phi[4], {1, 2})
    assert not any(
        verify_partially_horn(phi[5], set(s))
        for s in _nonempty_subsets(range(1, 5))
    )
    horn = rename(phi[1], {1, 2, 3, 4})
    assert verify_partially_horn(horn, set(range(1, 6)))
    with pytest.raises(ValueError):
        verify_partially_horn(phi[4], set())


def _nonempty_subsets(variables):
    variables = list(variables)
    for pattern in range(1, 1 << len(variables)):
        yield {v for i, v in enumerate(variables) if pattern >> i & 1}


def test_partially_horn(phi):
    assert check_partially_horn(phi[4]) == frozenset({1, 2})
    assert check_partially_horn(phi[5]) is None
    assert check_partially_horn(phi[8]) == frozenset({1})  # pure negative literal
    assert check_partially_horn(phi[2]) is None
    assert check_partially_horn(phi[3]) is None
    assert check_partially_horn(phi[1]) is not None  # pure negative x5


def test_horn_is_partially_horn(phi):
    horn = rename(phi[1], {1, 2, 3, 4})
    assert check_partially_horn(horn) == frozenset(range(1, 6))


def test_rph_phi6_exact_witness(phi):
    witness = check_renamable_partially_horn(phi[6])
    assert witness.admissible == frozenset({4, 5})
    assert witness.renamed == frozenset({4, 5})
    assert verify_partially_horn(rename(phi[6], witness.renamed), set(witness.admissible))


def test_rph_rejects_phi7(phi):
    assert check_renamable_partially_horn(phi[7]) is None


def test_rph_accepts_phi5(phi):
    witness = check_renamable_partially_horn(phi[5])
    assert witness is not None
    assert verify_partially_horn(rename(phi[5], witness.renamed), set(witness.admissible))


def test_renamable_horn(phi):
    assert check_renamable_horn(phi[1]) == frozenset({1, 2, 3, 4})
    assert check_renamable_horn(phi[2]) is None
    assert check_syntactic_class(rename(phi[1], check_renamable_horn(phi[1]))).horn


def test_two_sat_with_model_is_renamable_horn():
    # plant a model, then generate 2-clauses it satisfies
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        model = [rng.randint(0, 1) for _ in range(n)]
        clauses = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.sample(range(1, n + 1), 2)
            pick = rng.choice([u, v])
            lits = []
            for w in (u, v):
                if w == pick:  # literal satisfied by the model
                    lits.append(w if model[w - 1] else -w)
                else:
                    lits.append(w if rng.random() < 0.5 else -w)
            clauses.append(Clause.disjunction(*lits))
        f = Formula(n, tuple(clauses))
        renaming = check_renamable_horn(f)
        assert renaming is not None
        assert check_syntactic_class(rename(f, renaming)).horn


def test_implication_graph_edge_symmetry(phi):
    for f in phi.values():
        adj, _dead = build_implication_graph(f)
        edges = {(u, v) for u, neighbors in enumerate(adj) for v in neighbors}
        assert edges == {(v ^ 1, u ^ 1) for u, v in edges}


def test_pic(phi):
    assert check_pic(phi[9]).separable is not None
    assert not check_pic(phi[7]).accepted
    result = check_pic(phi[14])
    assert result.affine and result.kinds() == ("affine",)


def test_separability_errors_are_not_rejects(monkeypatch, phi):
    # a ValueError inside the separability analysis is a bug signal: check_pic
    # must raise it, not report the formula as not separable
    from aggdom import recognize

    def broken(f, occurring):
        raise ValueError("broken component split")

    monkeypatch.setattr(recognize, "_components", broken)
    with pytest.raises(ValueError, match="broken component split"):
        check_pic(phi[3])


def test_pic_reports_every_branch(phi):
    result = check_pic(phi[3])
    assert result.separable is not None
    assert result.renamable_partially_horn is not None
    assert result.kinds() == ("separable", "renamable-partially-horn")


def test_lpic_rejects_phi8(phi):
    assert check_lpic(phi[8]) is None


def test_lpic_bijunctive_and_affine(phi):
    bij = parse_formula("p ecnf 3 2\n1 -2 0\n2 3 0\n")
    witness = check_lpic(bij)
    assert witness.v1 == frozenset({1, 2, 3}) and not witness.v0 and not witness.v2
    witness = check_lpic(phi[14])
    assert witness.v2 == frozenset({1, 2, 3})


def test_lpic_phi10(phi):
    witness = check_lpic(phi[10])
    assert witness is not None
    assert verify_lpic(phi[10], set(witness.renamed), set(witness.v0), set(witness.v1), set(witness.v2))


def test_lpic_generalized_clause():
    f = parse_formula("p ecnf 3 1\ng 1 x 2 3 0\n")
    witness = check_lpic(f)
    assert witness is not None
    assert witness.v0 == frozenset({1}) and witness.v2 == frozenset({2, 3})


def test_lpic_separable_split():
    f = parse_formula("p ecnf 4 2\n1 -2 0\nx 3 4 0\n")
    witness = check_lpic(f)
    assert witness is not None
    assert witness.v2 == frozenset({3, 4})  # xor variables can never be admissible
    assert verify_lpic(f, set(witness.renamed), set(witness.v0), set(witness.v1), set(witness.v2))


def test_lpic_split_without_admissible_part():
    # all four 2-clauses over {1,2} weld every renaming vertex into one bad
    # component, so V0 comes out empty and the split branch must carry it:
    # a bijunctive component plus an affine component
    f = parse_formula("p ecnf 4 5\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\nx 3 4 0\n")
    assert check_renamable_partially_horn(f) is None
    witness = check_lpic(f)
    assert witness.v0 == frozenset()
    assert witness.v1 == frozenset({1, 2}) and witness.v2 == frozenset({3, 4})


def test_lpic_rejects_mixed_component():
    # one connected component carrying both a wide or-clause and an xor clause
    f = parse_formula("p ecnf 4 2\n1 2 3 0\nx 3 4 0\n")
    assert check_lpic(f) is None


def test_verify_lpic_phi6_counterexample(phi):
    # the first clause of phi6* keeps three variables outside V0
    f6s = rename(phi[6], {4, 5})
    assert not verify_lpic(f6s, set(), {4, 5}, {1, 2, 3}, set())


def test_verify_lpic_partition_required(phi):
    with pytest.raises(ValueError):
        verify_lpic(phi[10], set(), {1}, {2}, set())  # 3 missing


def test_verify_lpic_trivial_parts():
    bij = parse_formula("p ecnf 2 2\n1 -2 0\n-1 2 0\n")
    assert verify_lpic(bij, set(), set(), {1, 2}, set())
    aff = parse_formula("p ecnf 2 1\nx 1 2 0\n")
    assert verify_lpic(aff, set(), set(), set(), {1, 2})


def test_admissible_set_is_maximal_desk_scale():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(2, 5)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            clauses.append(
                Clause.disjunction(*(v if rng.random() < 0.5 else -v for v in variables))
            )
        f = Formula(n, tuple(clauses))
        witness = check_renamable_partially_horn(f)
        best = max_admissible(f)
        if witness is None:
            assert best == frozenset()
        else:
            assert len(witness.admissible) == len(best)


def test_partially_horn_is_the_maximum_without_renaming():
    # without renaming, admissible sets are closed under union, so the
    # largest one is the unique maximum
    rng = random.Random(31)
    for _ in range(1000):
        f = _random_formula(rng)
        assert (check_partially_horn(f) or frozenset()) == max_admissible(f, renaming=False)


def _chain(k):
    # links (x_{i+1} v -x_i), last link first, then (x1 v x_{k+1}): every
    # exclusion reaches the next variable only through the link listed before
    links = tuple(Clause.disjunction(i + 1, -i) for i in range(k, 0, -1))
    return Formula(k + 1, links + (Clause.disjunction(1, k + 1),))


def _split_components(k):
    # k unsatisfiable 2-clause cores and k two-variable xor clauses, so the
    # lpic witness comes from the component split with an empty V0
    clauses = []
    for a in range(1, 4 * k, 4):
        b, c, d = a + 1, a + 2, a + 3
        clauses += [Clause.disjunction(*lits) for lits in ((a, b), (a, -b), (-a, b), (-a, -b))]
        clauses.append(Clause.exclusive_or(c, d))
    return Formula(4 * k, tuple(clauses))


def test_partially_horn_chain_is_linear():
    f = _chain(3000)
    start = time.perf_counter()
    assert check_partially_horn(f) is None
    assert time.perf_counter() - start < 2.0


def test_lpic_component_split_is_linear():
    f = _split_components(1000)
    start = time.perf_counter()
    report = classify_formula(f)
    assert time.perf_counter() - start < 2.0
    assert report.lpic is not None and not report.lpic.v0
    assert len(report.lpic.v1) == len(report.lpic.v2) == 2000


def test_mixed_clause_extension_note():
    report = classify_formula(parse_formula("p ecnf 3 1\ng 1 x 2 3 0\n"))
    assert "mixed-clause-extension" in report.notes
    report = classify_formula(parse_formula("p ecnf 2 1\n1 2 0\n"))
    assert report.notes == ()


RNG_KINDS = ("or", "or", "or", "xor", "generalized")


def _random_formula(rng):
    n = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(RNG_KINDS)
        width = rng.randint(1, min(4, n))
        variables = rng.sample(range(1, n + 1), width)
        literals = [v if rng.random() < 0.5 else -v for v in variables]
        if kind == "or" or (kind == "generalized" and width < 2):
            clauses.append(Clause.disjunction(*literals))
        elif kind == "xor":
            clauses.append(Clause.exclusive_or(*literals))
        else:
            split = rng.randint(1, width - 1)
            clauses.append(Clause.generalized(literals[:split], literals[split:]))
    return Formula(n, tuple(clauses))


def test_class_implications_on_random_formulas():
    rng = random.Random(92)
    for _ in range(10_000):
        f = _random_formula(rng)
        report = classify_formula(f)
        if report.horn:
            assert report.partially_horn is not None
        if report.partially_horn is not None:
            assert report.renamable_partially_horn is not None
        if report.renamable_partially_horn is not None:
            assert report.pic.accepted
        if report.bijunctive:
            assert report.lpic is not None
        if report.affine:
            assert report.pic.accepted and report.lpic is not None
        if report.lpic is not None and report.lpic.v0:
            assert report.renamable_partially_horn is not None
        if report.renamable_horn is not None:
            assert report.renamable_partially_horn is not None


def _renaming_invariants(report):
    rph, lpic = report.renamable_partially_horn, report.lpic
    return (
        report.separable,
        report.renamable_horn is not None,
        None if rph is None else rph.admissible,
        report.pic.kinds(),
        None if lpic is None else (lpic.v0, lpic.v1, lpic.v2),
        report.affine,
        report.bijunctive,
    )


def test_classification_invariant_under_renaming():
    # a renaming only flips signs, so every answer that does not name the
    # renamed set itself must survive it
    rng = random.Random(3)
    for _ in range(2000):
        f = _random_formula(rng)
        flip = {v for v in range(1, f.n + 1) if rng.random() < 0.5}
        expected = _renaming_invariants(classify_formula(f))
        assert _renaming_invariants(classify_formula(rename(f, flip))) == expected, (f, flip)


def test_classify_formula_builds_one_graph_and_one_split(phi, monkeypatch):
    from aggdom import recognize

    for f in phi.values():
        counted = {
            name: count_calls(monkeypatch, recognize, name)
            for name in ("build_implication_graph", "_tarjan", "variable_components", "_greatest_admissible")
        }
        recognize.classify_formula(f)
        # one graph, one Tarjan and one component split; both zero
        # propagations (RPH and partially Horn) still run on the one graph
        assert {name: len(calls) for name, calls in counted.items()} == {
            "build_implication_graph": 1,
            "_tarjan": 1,
            "variable_components": 1,
            "_greatest_admissible": 2,
        }
        monkeypatch.undo()


_MOD14_TEXT = "d 3\n001\n010\n100\n111\n"  # affine: both constraints take the xor rewrite
_DEGENERATE_TEXT = "d 4\n0011\n0101\n1001\n1111\n"  # x4 fixed to 1


@pytest.mark.parametrize(
    "argv, text, expected",
    [
        # OR, xor and generalized clauses, one of them split over two lines
        pytest.param(
            ["classify-formula", "--json"],
            "p ecnf 5 4\n1 -2 0\nx 2 3 0\ng -1 x\n4 5 0\n-3 -4 0\n",
            "renamable_partially_horn",
            id="classify-formula",
        ),
        pytest.param(["synthesize"], _MOD14_TEXT, "x 1 2 3 0", id="synthesize"),
        pytest.param(["synthesize", "--lpic"], _MOD14_TEXT, "x -1 -2 3 0", id="synthesize-lpic"),
        pytest.param(["classify-domain", "--json", "--witness"], _MOD14_TEXT, '"lpic"', id="classify-domain"),
        pytest.param(["synthesize", "--permissive"], _DEGENERATE_TEXT, "x 4 0", id="synthesize-permissive"),
        pytest.param(
            ["classify-domain", "--permissive"], _DEGENERATE_TEXT, "lpic+fixed-coordinates",
            id="classify-domain-permissive",
        ),
    ],
)
def test_classify_formula_cli_builds_no_clause(tmp_path, monkeypatch, capsys, argv, text, expected):
    # the library works on the clause arena alone: parsing, recognizing,
    # synthesizing (prime CNF, xor rewrite, lpic rewrite, lifting) and
    # classifying build no Clause
    from aggdom import cli
    from aggdom.formula import Clause

    built = []
    post_init = Clause.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Clause, "__post_init__", counted)
    Clause.disjunction(1)
    assert len(built) == 1  # the count sees every Clause constructed
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.main([*argv, str(path)]) in (0, 1)
    assert expected in capsys.readouterr().out
    assert len(built) == 1


def _standalone_report(f):
    """classify_formula's report assembled from the public recognizers alone."""
    flags = check_syntactic_class(f)
    try:
        separable = check_separable(f)
    except ValueError:
        separable = None
    return FormulaClassReport(
        horn=flags.horn,
        dual_horn=flags.dual_horn,
        bijunctive=flags.bijunctive,
        affine=flags.affine,
        renamable_horn=check_renamable_horn(f),
        separable=separable,
        partially_horn=check_partially_horn(f),
        renamable_partially_horn=check_renamable_partially_horn(f),
        pic=check_pic(f),
        lpic=check_lpic(f),
        notes=classify_formula(f).notes,
    )


def _no_admissible_formula(rng):
    # an unsatisfiable 2-clause core on {1, 2} and every other variable in
    # some xor clause, so V0 is empty and lpic rests on the component split;
    # random 2-clauses join components and make some splits fail
    n = rng.randint(3, 8)
    clauses = [Clause.disjunction(*lits) for lits in ((1, 2), (1, -2), (-1, 2), (-1, -2))]
    rest = list(range(3, n + 1))
    rng.shuffle(rest)
    while rest:
        width = rng.randint(1, min(3, len(rest)))
        clauses.append(Clause.exclusive_or(*(v if rng.random() < 0.5 else -v for v in rest[:width])))
        rest = rest[width:]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        clauses.append(Clause.disjunction(a, -b))
    return Formula(n, tuple(clauses))


def test_classify_formula_equals_the_standalone_recognizers(phi):
    rng = random.Random(57)
    formulas = list(phi.values()) + [_split_components(k) for k in (1, 2, 3)]
    formulas += [_random_formula(rng) for _ in range(2000)]
    formulas += [_no_admissible_formula(rng) for _ in range(300)]
    for f in formulas:
        assert classify_formula(f) == _standalone_report(f), f


def test_verify_lpic_matches_plain_loop_reference():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(3000):
        f = _random_formula(rng)
        v0, v1, v2 = parts = (set(), set(), set())
        weights = [rng.random() for _ in parts]  # lopsided splits reach the accepts
        for v in f.occurring_variables():
            rng.choices(parts, weights)[0].add(v)
        renamed = {v for v in v0 if rng.random() < 0.5}
        expected = reference_verify_lpic(f, renamed, v0, v1, v2)
        assert verify_lpic(f, renamed, v0, v1, v2) == expected, (f, renamed, v0, v1, v2)
        verdicts.add(expected)
    assert verdicts == {True, False}
