from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggdom import (
    CapExceededError,
    Domain,
    EmptyDomainError,
    ParseError,
    degeneracy,
    is_affine,
    is_closed_under,
    models,
    named_fn,
    parse_domain,
    pr,
    project,
    rename,
    rename_domain,
    render_domain,
)
from aggdom.boolfn import BoolFn
from aggdom.domain import closure_counterexample

from util import brute_closed


def test_parse_domain_basic():
    d = parse_domain("d 2\n00\n11\n")
    assert d.n == 2 and d.members == ((0, 0), (1, 1))


def test_parse_domain_comments():
    d = parse_domain("c hello\nd 1\nc mid\n0\n1\n")
    assert d.members == ((0,), (1,))


@pytest.mark.parametrize(
    "text",
    [
        "d 1\n0\n0\n",  # duplicate row
        "d 2\n0\n",  # ragged row
        "d 2\n0x\n",  # non-binary
        "d 2\n",  # empty domain
        "x 2\n00\n",  # bad header
        "d 1_0\n0000000000\n",  # int() reads 1_0 as 10
        "d \uff12\n00\n",  # a non-ASCII digit
    ],
)
def test_parse_domain_errors(text):
    with pytest.raises(ParseError):
        parse_domain(text)


def test_parse_domain_header_takes_a_plus_sign():
    assert parse_domain("d +2\n01\n").n == 2


def test_render_round_trip(mod):
    for d in mod.values():
        assert parse_domain(render_domain(d)) == d


def test_mod_phi7_file_round_trip(mod):
    text = render_domain(mod[7])
    assert len(text.strip().splitlines()) == 7  # header + 6 rows
    assert parse_domain(text) == mod[7]


def test_degeneracy():
    assert degeneracy(Domain(2, [(0, 0), (1, 1)])).non_degenerate
    report = degeneracy(Domain(2, [(0, 0), (0, 1)]))
    assert not report.non_degenerate
    assert report.fixed_coordinates == ((1, 0),)


def test_degeneracy_mod11(mod):
    # scan of the four published members: every coordinate takes both values
    for j in range(3):
        assert {row[j] for row in mod[11].members} == {0, 1}
    assert degeneracy(mod[11]).non_degenerate


def test_degeneracy_empty_domain():
    with pytest.raises(EmptyDomainError):
        degeneracy(Domain(1, []))


def test_project():
    assert project(Domain(2, [(0, 1), (1, 1)]), {2}) == Domain(1, [(1,)])


def test_project_phi9_factor(phi, mod):
    assert project(mod[9], {1, 2, 3}) == mod[7]
    assert project(mod[9], {4, 5, 6}) == mod[7]


def test_project_identity(mod):
    for d in mod.values():
        assert project(d, range(1, d.n + 1)) == d


def test_project_composition(mod):
    d = mod[9]
    assert project(project(d, {1, 2, 5}), {1, 3}) == project(d, {1, 5})


def test_project_errors(mod):
    with pytest.raises(ValueError):
        project(mod[7], set())
    with pytest.raises(ValueError):
        project(mod[7], {4})


def test_rename_domain():
    assert rename_domain(Domain(2, [(0, 1)]), {1}) == Domain(2, [(1, 1)])


def test_rename_domain_involution(mod):
    for d in mod.values():
        flipped = rename_domain(d, {1, 2})
        assert rename_domain(flipped, {1, 2}) == d
        assert len(flipped) == len(d)


def test_rename_domain_commutes_with_formula_rename(phi):
    flip = {1, 2, 3, 4}
    assert models(rename(phi[1], flip)) == rename_domain(models(phi[1]), flip)


def test_rename_preserves_degeneracy_pattern():
    d = Domain(3, [(0, 0, 1), (0, 1, 1)])
    before = degeneracy(d).fixed_coordinates
    after = degeneracy(rename_domain(d, {1})).fixed_coordinates
    assert [j for j, _ in before] == [j for j, _ in after]
    assert dict(after)[1] == 1 - dict(before)[1]


def test_closed_under_xor3(mod):
    xor3 = named_fn("xor3")
    assert is_closed_under(mod[14], xor3)
    assert not is_closed_under(mod[7], xor3)
    assert not brute_closed(mod[7].members, xor3)


def test_closed_under_projection(mod):
    for d in mod.values():
        assert is_closed_under(d, pr(2, 3))


def test_closure_unanimity_baseline(mod):
    # constant-repetition tuples always map back under any unanimous function
    f = named_fn("maj")
    for d in mod.values():
        for row in d.members:
            assert tuple(f(row[j], row[j], row[j]) for j in range(d.n)) == row


def test_closure_cap():
    d = Domain(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(CapExceededError):
        is_closed_under(d, named_fn("maj"), tuple_cap=10)


def test_is_affine(mod):
    assert is_affine(mod[14])
    assert not is_affine(mod[11])
    assert is_affine(Domain(2, [(0, 1)]))  # singletons are trivially affine


def test_affine_counterexample_mod11(mod):
    # xor3 of three members escapes: (0,0,1)+(0,1,0)+(1,0,0) = (1,1,1)
    xor3 = named_fn("xor3")
    image = tuple(xor3(a, b, c) for a, b, c in zip((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert image == (1, 1, 1) and image not in mod[11].member_set


def test_is_affine_matches_ternary_closure(mod):
    import random

    rng = random.Random(3)
    xor3 = named_fn("xor3")
    for _ in range(60):
        n = rng.randint(1, 4)
        size = rng.randint(1, min(8, 1 << n))
        members = set()
        while len(members) < size:
            members.add(tuple(rng.randint(0, 1) for _ in range(n)))
        d = Domain(n, tuple(members))
        assert is_affine(d) == is_closed_under(d, xor3)
    # random subsets are almost never affine: cosets of random subspaces are,
    # and the same cosets short of one member almost never are
    for _ in range(60):
        n = rng.randint(1, 6)
        span = {0}
        for _ in range(rng.randint(0, n)):
            g = rng.randrange(1 << n)
            span |= {s ^ g for s in span}
        offset = rng.randrange(1 << n)
        coset = Domain.from_mask(n, sum(1 << (s ^ offset) for s in span))
        assert is_affine(coset)
        short = Domain(n, coset.members[1:] or coset.members)
        assert is_affine(short) == is_closed_under(short, xor3)


@st.composite
def domains(draw, max_n=5, max_size=16):
    """A random domain with n <= max_n and 1..max_size members."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=max_size)
    )
    return Domain(n, [tuple((p >> (n - v)) & 1 for v in range(1, n + 1)) for p in rows])


def tables(k):
    return st.tuples(*[st.integers(min_value=0, max_value=1)] * (1 << k))


def boolfns():
    """Any table of arity 1..3, unanimous or not."""
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda k: tables(k).map(lambda table: BoolFn(k, table))
    )


def first_escape(d, f):
    """First member tuple in product order whose image leaves d, by a plain loop."""
    for rows in product(d.members, repeat=f.arity):
        if tuple(f(*(row[j] for row in rows)) for j in range(d.n)) not in d.member_set:
            return rows
    return None


@settings(max_examples=200, deadline=None)
@given(domains(), boolfns())
def test_closure_counterexample_is_first_escape(d, f):
    found = closure_counterexample(d, f)
    assert found == first_escape(d, f)
    assert (found is None) == brute_closed(d.members, f)
    assert closure_counterexample(d, f, tuple_cap=len(d) ** f.arity) == found
    with pytest.raises(CapExceededError):
        closure_counterexample(d, f, tuple_cap=len(d) ** f.arity - 1)
