import random

import pytest
from hypothesis import example, given, settings, strategies as st

from aggdom import (
    Clause,
    ClauseKind,
    Formula,
    ParseError,
    evaluate,
    flip_assignment,
    models,
    parse_formula,
    render_formula,
    rename,
)
from aggdom import parse_aggregator, parse_domain
from aggdom.recognize import check_syntactic_class

from util import brute_models, clause_true, reference_parse_formula


def test_parse_or_clause():
    f = parse_formula("p ecnf 2 1\n1 -2 0\n")
    assert f.n == 2
    (clause,) = f.clauses
    assert clause.kind is ClauseKind.OR
    assert clause.or_part == (1, -2)


def test_parse_xor_clause(phi):
    (clause,) = phi[14].clauses
    assert clause.kind is ClauseKind.XOR
    assert clause.xor_part == (1, 2, 3)


def test_parse_generalized_clause():
    f = parse_formula("p ecnf 3 1\ng -1 x 2 3 0\n")
    (clause,) = f.clauses
    assert clause.kind is ClauseKind.GENERALIZED
    assert clause.or_part == (-1,)
    assert clause.xor_part == (2, 3)


def test_parse_accepts_comments_and_crlf():
    f = parse_formula("c a comment\r\np ecnf 2 1\r\nc mid\r\n1 2 0\r\n")
    assert f.n == 2 and len(f.clauses) == 1


# Each malformed input with its exact message and (line, column); the
# texts double as the test ids.
_PARSE_ERRORS = {
    # the header
    "": ("empty input, expected 'p ecnf <nvars> <nclauses>' header", None, None),
    "c only a comment\n\n": ("empty input, expected 'p ecnf <nvars> <nclauses>' header", None, None),
    "1 2 0\n": ("expected 'p' header, got '1'", 1, 1),
    "  ecnf 2 1\n": ("expected 'p' header, got 'ecnf'", 1, 3),
    "p ecnf 2\n": ("truncated header", 1, 1),
    "p\n": ("truncated header", 1, 1),
    "\n p cnf\n": ("truncated header", 2, 2),
    "p\necnf\n2\n": ("truncated header", 1, 1),
    "p cnf 2 1\n1 2 0\n": ("expected format 'ecnf', got 'cnf'", 1, 3),
    "p\nCNF 2 1\n": ("expected format 'ecnf', got 'CNF'", 2, 1),
    "p ecnf\nq 1\n": ("expected an integer, got 'q'", 2, 1),
    "p ecnf 2\n\tq\n": ("expected an integer, got 'q'", 2, 2),
    "p ecnf 0 0\n": ("header must declare at least one variable", 1, 1),
    "c x\n  p ecnf\n-3 0\n": ("header must declare at least one variable", 2, 3),
    "p ecnf 2 -1\n": ("negative clause count", 1, 1),
    "p ecnf 2 1 extra\n1 0\n": ("expected an integer, got 'extra'", 1, 12),
    "p ecnf \u0663 1\n1 0\n": ("expected an integer, got '\u0663'", 1, 8),
    "p ecnf 2 1_0\n1 0\n": ("expected an integer, got '1_0'", 1, 10),
    "p ecnf 2147483648 1\n1 0\n": ("header declares more than 2147483647 variables", 1, 1),
    "p ecnf 2 2\n1 2 0\n": ("header declares 2 clauses but 1 were given", None, None),
    "p ecnf 2 0\n1 0\n": ("header declares 0 clauses but 1 were given", None, None),
    # the terminator
    "p ecnf 2 1\n1 2 -0\n": ("unexpected token '-0' in clause", 2, 5),
    "p ecnf 2 1\n1 2 00\n": ("unexpected token '00' in clause", 2, 5),
    "p ecnf 2 1\n-0\n": ("unexpected token '-0' in clause", 2, 1),
    "p ecnf 2 1\nx 1 2 +0\n": ("unexpected token '+0' in xor clause", 2, 7),
    "p ecnf 2 1\ng 1 x 2 -0\n": ("unexpected token '-0' in generalized clause", 2, 9),
    "p ecnf 2 1\n1 2\n": ("clause not terminated by 0", 2, 3),
    "p ecnf 2 1\n1 2 0\nx 1\nc trailing\n": ("clause not terminated by 0", 3, 3),
    "p ecnf 2 1\ng 1 x\n": ("clause not terminated by 0", 2, 5),
    "p ecnf 2 1\nx\n": ("clause not terminated by 0", 2, 1),
    # clause syntax
    "p ecnf 2 1\ng 1 0\n": ("generalized clause needs an 'x' separator", 2, 5),
    "p ecnf 2 1\ng 1 -0\n": ("generalized clause needs an 'x' separator", 2, 5),
    "p ecnf 2 1\ng 1 2 x 0\n": ("generalized clause needs both parts non-empty", 2, 1),
    "p ecnf 2 1\ng x 1 0\n": ("generalized clause needs both parts non-empty", 2, 1),
    "p ecnf 2 1\nx 1 x 2 0\n": ("expected an integer, got 'x'", 2, 5),
    "p ecnf 3 1\ng 1 x 2 x 3 0\n": ("expected an integer, got 'x'", 2, 9),
    "p ecnf 2 1\n1 x 0\n": ("expected an integer, got 'x'", 2, 3),
    "p ecnf 2 1\n1 g 0\n": ("expected an integer, got 'g'", 2, 3),
    "p ecnf 2 1\n1 q 0\n": ("expected an integer, got 'q'", 2, 3),
    # integers are ASCII decimal: no underscores, no other digits
    "p ecnf 10 1\n1_0 +2 0\n": ("expected an integer, got '1_0'", 2, 1),
    "p ecnf 2 1\n\uff11 0\n": ("expected an integer, got '\uff11'", 2, 1),
    "p ecnf 3 1\nx 1 \u0663 0\n": ("expected an integer, got '\u0663'", 2, 5),
    "p ecnf 3 1\n1 2\n3_ 0\n": ("expected an integer, got '3_'", 3, 1),
    "p ecnf 2 1\n0\n": ("OR clause needs at least one literal", 2, 1),
    "p ecnf 2 1\nx 0\n": ("XOR clause needs at least one literal", 2, 1),
    # literals
    "p ecnf 2 1\n1 3 0\n": ("variable x3 out of range (n=2)", 2, 3),
    "p ecnf 2 1\n1\t\t-3 0\n": ("variable x3 out of range (n=2)", 2, 4),
    "p ecnf 2 1\n1 -1 0\n": ("variable x1 repeated within a clause", 2, 1),
    "p ecnf 3 1\n1 0\n  2 3\n -2 0\n": ("variable x2 repeated within a clause", 3, 3),
    "p ecnf 3 1\ng 1 x -1 0\n": ("variable x1 repeated within a clause", 2, 1),
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_errors(text):
    message, line, column = _PARSE_ERRORS[text]
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    where = "" if line is None else f"line {line}, col {column}: "
    assert str(err.value) == where + message
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_accepts_a_plus_sign():
    assert parse_formula("p ecnf +2 +1\n+1 -2 0\n") == parse_formula("p ecnf 2 1\n1 -2 0\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p ecnf 2 1\n1 3 0\n")
    assert err.value.line == 2


# One valid file per parser, as a list of lines.
_VALID_FILES = {
    "formula": (parse_formula, ["p ecnf 2 2", "1 -2 0", "x 1 2 0"]),
    "domain": (parse_domain, ["d 2", "01", "10"]),
    "aggregator": (parse_aggregator, ["a 2 2", "and", "t 0110"]),
}


@pytest.mark.parametrize("kind", list(_VALID_FILES))
def test_comment_lines_are_skipped_by_every_parser(kind):
    parse, lines = _VALID_FILES[kind]
    plain = parse("\n".join(lines) + "\n")
    header, *rows = lines
    commented = "\n".join(
        ["c before the header", "", header, "  c indented comment"]
        + [row + "\n\tc between rows" for row in rows]
        + ["c at the end", "c"]
    )
    assert parse(commented) == plain


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("formula", "c1 p ecnf 2 1\n", "line 1, col 1: expected 'p' header, got 'c1'"),
        ("formula", "p ecnf 2 1\ncx 1 0\n", "line 2, col 1: expected an integer, got 'cx'"),
        ("formula", "p ecnf 2 1\n1 0\nc1\n", "line 3, col 1: expected an integer, got 'c1'"),
        ("domain", "c1\nd 2\n01\n10\n", "line 1, col 1: expected header 'd <n>'"),
        ("domain", "d 2\ncx\n01\n10\n", "line 2, col 1: row 'cx' has non-binary characters"),
        ("domain", "d 2\n01\n10\nc1 trailing\n", "line 4, col 1: expected one 0/1 row per line"),
        ("aggregator", "cx 1 2\na 1 2\nand\n", "line 1, col 1: expected header 'a <n> <k>'"),
        ("aggregator", "a 2 2\nand\ncx\nor\n", "line 3, col 1: unknown function name 'cx'"),
        ("aggregator", "a 1 2\nand\nc1\n", "line 3, col 1: unknown function name 'c1'"),
    ],
)
def test_tokens_starting_with_c_are_not_comments(kind, text, message):
    parse, _lines = _VALID_FILES[kind]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_render_examples(phi):
    assert render_formula(parse_formula("p ecnf 2 1\n1 -2 0\n")) == "p ecnf 2 1\n1 -2 0\n"
    assert render_formula(Formula(1)) == "p ecnf 1 0\n"
    assert render_formula(phi[14]) == "p ecnf 3 1\nx 1 2 3 0\n"


def test_render_parse_round_trip(phi):
    for f in phi.values():
        assert parse_formula(render_formula(f)) == f


def test_evaluate_phi7(phi):
    assert evaluate(phi[7], (1, 0, 0)) is False
    assert evaluate(phi[7], (0, 1, 1)) is False
    assert evaluate(phi[7], (1, 1, 1)) is True


def test_evaluate_generalized():
    f = parse_formula("p ecnf 3 1\ng -1 x 2 3 0\n")
    # or part falsified and two xor literals satisfied
    assert evaluate(f, (1, 1, 1)) is False
    assert evaluate(f, (1, 1, 0)) is True
    assert evaluate(f, (0, 1, 1)) is True


def test_evaluate_xor(phi):
    assert evaluate(phi[14], (1, 1, 1)) is True
    assert evaluate(phi[14], (1, 1, 0)) is False


def test_evaluate_arity_mismatch(phi):
    with pytest.raises(ValueError):
        evaluate(phi[7], (1, 0))


def test_models_phi7(phi, mod):
    assert models(phi[7]) == mod[7]


def test_models_empty_formula_is_cube():
    assert sorted(models(Formula(1)).members) == [(0,), (1,)]


def test_models_phi11(phi, mod):
    assert models(phi[11]) == mod[11]


def test_models_cap():
    from aggdom import CapExceededError

    with pytest.raises(CapExceededError):
        models(Formula(5), cap=4)


def test_models_published_sets(phi, mod):
    for k in (9, 10, 12, 13, 14):
        assert models(phi[k]) == mod[k]


def test_models_phi6_decomposition(phi, mod):
    # under x4=0 the last clause frees x5 and the first clause restores the
    # Mod(phi7) shape; under x4=1 the first clause is satisfied outright, x5
    # is forced to 1, and only the middle clause constrains x1..x3
    expected = {a + b for a in mod[7].members for b in [(0, 0), (0, 1)]}
    expected |= {a + (1, 1) for a in models(Formula(3)).members if a != (0, 1, 1)}
    assert set(models(phi[6]).members) == expected


def test_models_agrees_with_brute_force(phi):
    for f in phi.values():
        assert sorted(models(f).members) == brute_models(f)


def test_rename_phi1_is_horn(phi):
    assert check_syntactic_class(rename(phi[1], {1, 2, 3, 4})).horn


def test_rename_identity_and_involution(phi):
    for f in phi.values():
        assert rename(f, set()) is f
        assert rename(rename(f, {1, 2}), {1, 2}) == f


def test_rename_keeps_unchanged_clauses():
    f = parse_formula("p ecnf 4 2\n1 -2 0\nx 2 3 0\n")
    assert rename(f, {4}) is f  # x4 does not occur
    renamed = rename(f, {3})
    assert renamed.clauses[0] is f.clauses[0]
    assert renamed.clauses[1] == Clause.exclusive_or(2, -3)
    assert rename(renamed, {3}) == f


def test_rename_out_of_range(phi):
    with pytest.raises(ValueError):
        rename(phi[7], {9})


def test_flip_assignment_out_of_range():
    assert flip_assignment((0, 1, 0), {1, 3}) == (1, 1, 1)
    for bad in ({9}, {0}, {-1}, {4}):
        with pytest.raises(ValueError):
            flip_assignment((0, 1, 0), bad)


signed_literals = st.integers(min_value=1, max_value=6).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@st.composite
def formulas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["or", "xor", "generalized"]))
        variables = draw(
            st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=min(4, n), unique=True)
        )
        literals = [v if draw(st.booleans()) else -v for v in variables]
        if kind == "or" or (kind == "generalized" and len(literals) < 2):
            clauses.append(Clause.disjunction(*literals))
        elif kind == "xor":
            clauses.append(Clause.exclusive_or(*literals))
        else:
            split = draw(st.integers(min_value=1, max_value=len(literals) - 1))
            clauses.append(Clause.generalized(literals[:split], literals[split:]))
    return Formula(n, tuple(clauses))


@given(formulas(), st.sets(st.integers(min_value=1, max_value=6)))
def test_rename_involution_property(f, variables):
    variables = {v for v in variables if v <= f.n}
    assert rename(rename(f, variables), variables) == f


@given(formulas(), st.sets(st.integers(min_value=1, max_value=6)), st.data())
def test_rename_flip_evaluation_property(f, variables, data):
    variables = {v for v in variables if v <= f.n}
    a = tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(f.n))
    assert evaluate(rename(f, variables), flip_assignment(a, variables)) == evaluate(f, a)


# Whitespace, line breaks and whole comment lines that may stand between two
# tokens; a clause or the header may be split over lines.
_LAYOUT = st.sampled_from([" ", "  ", "\t", " \t ", "\n", "\r\n", "\n\n  ", "\nc noise 0 x\n", "\n\tc\n "])


@given(formulas(), st.data())
def test_parse_render_round_trip_property(f, data):
    assert parse_formula(render_formula(f)) == f
    tokens = render_formula(f).split()
    gaps = data.draw(st.lists(_LAYOUT, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    noisy = gaps[0] + "".join(token + gap for token, gap in zip(tokens, gaps[1:]))
    assert parse_formula(noisy) == f


# Tokens that make a file malformed when inserted or substituted.
_BAD_TOKENS = ["x", "g", "-0", "00", "+0", "1_0", "\u0663", "q", "0", "7", "-7"]


@st.composite
def ecnf_texts(draw):
    """A rendered random formula, edited up to twice (a stray, replaced or
    dropped token, a repeated variable, an out-of-range literal, a wrong
    clause count), then laid out with random whitespace, CRLF endings,
    comment lines, clauses split over lines and lines holding two clauses."""
    tokens = render_formula(draw(formulas())).split()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edit = draw(st.sampled_from(["insert", "replace", "drop", "repeat", "range", "count"]))
        at = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        if edit == "insert":
            tokens.insert(at, draw(st.sampled_from(_BAD_TOKENS)))
        elif edit == "replace":
            tokens[at] = draw(st.sampled_from(_BAD_TOKENS))
        elif edit == "drop":
            del tokens[at]
        elif edit in ("repeat", "range"):
            # a literal of some clause
            literals = [i for i, token in enumerate(tokens[4:], 4) if token.lstrip("-").isdigit() and int(token)]
            if not literals:
                continue
            at = draw(st.sampled_from(literals))
            if edit == "repeat":
                tokens.insert(at + 1, draw(st.sampled_from([tokens[at], str(-int(tokens[at]))])))
            elif tokens[2:3] and tokens[2].isdigit():
                tokens[at] = str(draw(st.sampled_from([1, -1])) * (int(tokens[2]) + 1))
        elif edit == "count" and tokens[3:4] and tokens[3].isdigit():
            tokens[3] = str(int(tokens[3]) + draw(st.sampled_from([1, -1])))
    # the plain layout is one clause per line; any gap may be a space or
    # noise instead
    gaps = [
        draw(st.one_of(st.just("\n" if token == "0" or at == 3 else " "), st.just(" "), _LAYOUT))
        for at, token in enumerate(tokens)
    ]
    return "".join(token + gap for token, gap in zip(tokens, gaps))


def _parse_outcome(parse, text):
    """The formula, or the type, message and position of the error."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=200, deadline=None)
@given(ecnf_texts())
@example("p ecnf 3 2\n1 0 -2 3 0\n")  # two clauses on one line
@example("p ecnf 3 1\r\ng -1 x\r\nc split\r\n2 3 0\r\n")
def test_parse_formula_equals_the_token_stream_reference(text):
    assert _parse_outcome(parse_formula, text) == _parse_outcome(reference_parse_formula, text)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(ecnf_texts())
def test_parse_formula_equals_the_token_stream_reference_at_length(text):
    assert _parse_outcome(parse_formula, text) == _parse_outcome(reference_parse_formula, text)


def test_xor_equals_generalized_semantics_exhaustively():
    # an xor clause behaves exactly like the generalized-clause rule with an
    # empty (vacuously false) or part, exhaustively up to n=10
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 10)
        width = rng.randint(1, n)
        variables = rng.sample(range(1, n + 1), width)
        literals = [v if rng.random() < 0.5 else -v for v in variables]
        clause = Clause.exclusive_or(*literals)
        f = Formula(n, (clause,))
        for p in range(1 << n):
            a = tuple((p >> (n - v)) & 1 for v in range(1, n + 1))
            odd = sum((a[abs(s) - 1] == 1) == (s > 0) for s in literals) & 1
            assert evaluate(f, a) == (odd == 1) == clause_true(clause, a)


def test_clause_kind_is_syntactic():
    or_unit = Clause.disjunction(1)
    xor_unit = Clause.exclusive_or(1)
    assert or_unit != xor_unit
    f_or = Formula(1, (or_unit,))
    f_xor = Formula(1, (xor_unit,))
    assert models(f_or) == models(f_xor)
    assert check_syntactic_class(f_or).horn and not check_syntactic_class(f_xor).horn


def test_formula_packs_and_checks_the_clauses_it_is_given():
    clauses = (Clause.disjunction(1, -2), Clause.generalized([-1], [2]), Clause.exclusive_or(2))
    f = Formula(2, list(clauses))
    assert f.clauses == clauses and f.clauses[0] is clauses[0]
    assert (f.lits.tolist(), f.starts.tolist(), f.xstarts.tolist(), f.ends.tolist()) == (
        [1, -2, -1, 2, 2], [0, 2, 4], [2, 3, 4], [2, 4, 5]
    )
    assert f == parse_formula(render_formula(f)) and hash(f) == hash(parse_formula(render_formula(f)))
    for n, bad, message in [
        (0, (), "at least one variable"),
        (2**31, (), "at most 2147483647 variables"),
        (2, clauses + (Clause.disjunction(1, -3),), r"x3 out of range \(n=2\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            Formula(n, bad)


def test_duplicate_clauses_preserved():
    f = parse_formula("p ecnf 2 2\n1 2 0\n1 2 0\n")
    assert len(f.clauses) == 2


# Small numbers only: a well-formed aggregator header with a large arity asks
# for a 2^k-entry table, which is a cost question, not a parse question.
_PIECES = st.sampled_from(
    ["0", "1", "-1", "2", "-3", "4", "-0", "x", "g", "t", "c", "p", "ecnf", "a", "d",
     "0101", "1000", "01", "and", "maj", "pr1", "pr0"]
)


_HEADERS = st.one_of(
    st.just(""),
    st.builds(
        lambda tag, numbers: " ".join([tag, *map(str, numbers)]) + "\n",
        st.sampled_from(["p ecnf", "d", "a"]),
        st.lists(st.integers(-2, 4), min_size=1, max_size=2),
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    header=_HEADERS,
    body=st.one_of(st.text(), st.lists(st.lists(_PIECES, max_size=4).map(" ".join)).map("\n".join)),
)
@example(header="a 1 -1\n", body="t 1")  # k < 1 would reach a negative shift
@example(header="a 0 2\n", body="")  # n < 1 would reach an empty Aggregator
def test_parsers_return_or_raise_parse_error(header, body):
    for parse in (parse_formula, parse_domain, parse_aggregator):
        try:
            parse(header + body)
        except ParseError:
            pass
