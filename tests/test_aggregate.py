from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggdom import (
    Aggregator,
    CapExceededError,
    DegenerateDomainError,
    Domain,
    ParseError,
    apply,
    classify_domain,
    degeneracy,
    diamond,
    is_aggregator,
    is_anonymous,
    is_closed_under,
    is_dictatorial,
    is_generalized_dictatorship,
    is_locally_nondictatorial,
    is_monotone,
    is_projection_aggregator,
    is_strongdem,
    is_systematic,
    lpic_for,
    models,
    named_fn,
    parse_aggregator,
    pic_for,
    pr,
    render_aggregator,
    star,
    superpose,
    systematic,
)
from aggdom.aggregate import aggregator_counterexample, generalized_dictatorship_counterexample
from aggdom.boolfn import BoolFn
from aggdom.domain import DEFAULT_TUPLE_CAP

from test_domain import domains, tables
from util import brute_closed, count_calls


def agg(*names, k=2):
    return Aggregator(tuple(named_fn(name, k) for name in names))


def test_apply():
    F = agg("and", "or", "and")
    assert apply(F, [(0, 1, 1), (1, 1, 0)]) == (0, 1, 0)
    first = agg("pr1", "pr1", "pr1")
    assert apply(first, [(0, 1, 0), (1, 0, 1)]) == (0, 1, 0)
    xbar = systematic(named_fn("xor3"), 3)
    assert apply(xbar, [(0, 0, 1), (0, 1, 0), (1, 0, 0)]) == (1, 1, 1)


def test_apply_shape_errors():
    with pytest.raises(ValueError):
        apply(agg("and", "or"), [(0, 1)])
    with pytest.raises(ValueError):
        apply(agg("and", "or"), [(0,), (1,)])


def test_is_aggregator_examples(phi, mod):
    assert is_aggregator(agg("and", "or", "and"), mod[10])
    phi6_domain = models(phi[6])
    F = Aggregator((pr(1, 2), pr(1, 2), pr(1, 2), named_fn("or"), named_fn("or")))
    assert is_aggregator(F, phi6_domain)
    counterexample = aggregator_counterexample(systematic(named_fn("xor3"), 3), mod[7])
    assert counterexample is not None
    image = apply(systematic(named_fn("xor3"), 3), counterexample)
    assert image not in mod[7].member_set


def test_is_aggregator_requires_unanimity(mod):
    from aggdom.boolfn import BoolFn

    constant = BoolFn(2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        is_aggregator(Aggregator((constant,) * 3), mod[7])


def test_is_aggregator_cap(mod):
    with pytest.raises(CapExceededError):
        is_aggregator(systematic(named_fn("maj"), 3), mod[7], tuple_cap=5)


def test_predicates_on_tuples():
    dictator = agg("pr1", "pr1")
    assert is_dictatorial(dictator) and is_projection_aggregator(dictator)
    mixed = agg("pr1", "pr2")
    assert not is_dictatorial(mixed) and is_projection_aggregator(mixed)
    assert is_systematic(agg("and", "and"))
    assert not is_systematic(agg("and", "or"))
    assert is_anonymous(agg("and", "or"))
    assert not is_anonymous(mixed)
    assert is_monotone(agg("and", "pr2"))
    assert is_strongdem(systematic(named_fn("maj"), 2))
    assert not is_strongdem(agg("pr1", "pr1"))
    assert is_locally_nondictatorial(agg("and", "or"))
    assert not is_locally_nondictatorial(agg("and", "pr2"))


def test_generalized_dictatorship_mod11(mod):
    andbar = systematic(named_fn("and"), 3)
    assert is_aggregator(andbar, mod[11])
    counterexample = generalized_dictatorship_counterexample(andbar, mod[11])
    assert counterexample is not None
    assert apply(andbar, counterexample) not in counterexample


def test_generalized_dictatorship_mod12(mod):
    andbar = systematic(named_fn("and"), 3)
    assert is_aggregator(andbar, mod[12])
    assert is_generalized_dictatorship(andbar, mod[12])
    better = agg("and", "or", "or")
    assert is_aggregator(better, mod[12])
    assert not is_generalized_dictatorship(better, mod[12])


def test_projection_tuples_are_generalized_dictatorships(mod):
    for d in (mod[7], mod[11], mod[12]):
        for i in (1, 2):
            F = systematic(pr(i, 2), d.n)
            assert is_generalized_dictatorship(F, d)


def test_superpose_identity(mod):
    F = agg("and", "or", "and")
    projections = [systematic(pr(i, 2), 3) for i in (1, 2)]
    assert superpose(F, projections) == F


def test_superpose_closure_mod10(mod):
    F = agg("and", "or", "and")
    G = agg("or", "or", "or")
    assert is_aggregator(F, mod[10]) and is_aggregator(G, mod[10])
    H = superpose(F, [G, G])
    assert is_aggregator(H, mod[10])


def test_diamond_and_star_identities():
    n = 4
    xbar = systematic(named_fn("xor3"), n)
    andbar3 = systematic(named_fn("and3"), n)
    majbar = systematic(named_fn("maj"), n)
    # star with xor components reproduces the second argument
    assert star(xbar, majbar) == majbar
    # star with and3 components stays and3
    assert star(andbar3, majbar) == andbar3
    # diamond with a commutative second argument reproduces it
    assert diamond(systematic(pr(1, 3), n), majbar) == majbar
    assert diamond(xbar, andbar3) == andbar3


def test_diamond_star_are_superpositions(mod):
    d = mod[10]
    F = Aggregator((named_fn("and3"), named_fn("or3"), named_fn("and3")))
    G = Aggregator((named_fn("or3"), named_fn("or3"), named_fn("or3")))
    assert is_aggregator(F, d) and is_aggregator(G, d)
    assert is_aggregator(diamond(F, G), d)
    assert is_aggregator(star(F, G), d)


def test_diamond_star_definable_via_superpose(mod):
    # star(F, G) is the superposition F(F, F, G); diamond(F, G) superposes F
    # with G composed with the two argument rotations
    n = 3
    F = Aggregator((named_fn("and3"), named_fn("or3"), named_fn("maj")))
    G = Aggregator((named_fn("maj"), named_fn("xor3"), named_fn("or3")))
    assert star(F, G) == superpose(F, [F, F, G])
    rot1 = [systematic(pr(i, 3), n) for i in (2, 3, 1)]
    rot2 = [systematic(pr(i, 3), n) for i in (3, 1, 2)]
    g_rot1 = superpose(G, rot1)
    g_rot2 = superpose(G, rot2)
    assert diamond(F, G) == superpose(F, [G, g_rot1, g_rot2])


def test_diamond_star_closure_on_census_witnesses():
    # wherever the census finds a local possibility domain, combining the
    # theory witness with the oracle find stays an aggregator
    from aggdom.oracle import brute_ternary_commutative, census_domains

    checked = 0
    for _mask, d in census_domains(3):
        r = classify_domain(d)
        if not r.local_possibility.holds:
            continue
        T = r.local_possibility.witness
        O = brute_ternary_commutative(d)
        assert O is not None
        assert is_aggregator(diamond(T, O), d)
        assert is_aggregator(star(T, O), d)
        checked += 1
    assert checked > 50


def test_aggregator_file_round_trip():
    text = "a 3 2\nand\nor\npr2\n"
    F = parse_aggregator(text)
    assert render_aggregator(F) == text
    table_text = "a 1 3\nt 00010111\n"
    G = parse_aggregator(table_text)
    assert G.components[0] == named_fn("maj")
    assert render_aggregator(parse_aggregator("a 1 3\nt 00000001\n")) == "a 1 3\nand3\n"


def test_aggregator_file_errors():
    with pytest.raises(ParseError):
        parse_aggregator("a 2 2\nand\n")  # missing component
    with pytest.raises(ParseError):
        parse_aggregator("a 1 2\nt 010\n")  # wrong table width
    with pytest.raises(ParseError):
        parse_aggregator("b 1 2\nand\n")
    # header integers are ASCII decimal: int() alone reads 1_0 as 10
    assert parse_aggregator("a +1 2\nand\n") == parse_aggregator("a 1 2\nand\n")
    for header in ("a 1_0 2", "a 1 \u0662", "a \uff11 2"):
        with pytest.raises(ParseError, match="bad aggregator header"):
            parse_aggregator(header + "\nand\n")


def test_aggregator_arity_bounded_by_tuple_cap():
    # checking a k-ary aggregator on two members visits 2^k tuples after
    # building n 2^k minterm masks, so a header with n 2^k above the default
    # tuple cap is refused before any table
    assert 1 << 23 <= DEFAULT_TUPLE_CAP < 1 << 24
    for n, k in ((1, 24), (1, 30), (1, 10**6), (200, 16), (1000, 23)):
        with pytest.raises(ParseError, match=r"2\^k"):
            parse_aggregator(f"a {n} {k}\n" + "pr1\n" * n)
    with pytest.raises(ParseError, match="declares 1 components"):
        parse_aggregator("a 1 23\n")  # the largest arity passes the header


def test_classify_mod12(mod):
    result = classify_domain(mod[12])
    assert result.possibility.holds
    assert result.monotone_nondictatorial.holds
    ngd = result.non_generalized_dictatorship
    assert ngd.holds
    assert is_aggregator(ngd.witness, mod[12])
    assert not is_generalized_dictatorship(ngd.witness, mod[12])
    assert result.strongdem.holds  # renamable Horn domain


def test_classify_mod14(mod):
    result = classify_domain(mod[14])
    assert result.anonymous.holds
    assert is_anonymous(result.anonymous.witness)
    assert not result.monotone_nondictatorial.holds
    assert not result.strongdem.holds
    assert result.systematic_family == ("xor3",)


def test_classify_two_element_domain():
    d = Domain(2, [(0, 0), (1, 1)])
    result = classify_domain(d)
    assert result.possibility.holds
    assert not result.non_generalized_dictatorship.holds
    assert result.non_generalized_dictatorship.method == "two-element-domain"


def test_classify_mod7(mod):
    result = classify_domain(mod[7])
    assert not result.possibility.holds
    assert not result.local_possibility.holds
    assert not result.non_generalized_dictatorship.holds
    assert result.systematic_family == ()


def test_classify_witnesses_verify(mod):
    for key in (9, 10, 11, 12, 13, 14):
        result = classify_domain(mod[key])
        for verdict in (
            result.possibility,
            result.local_possibility,
            result.anonymous,
            result.monotone_nondictatorial,
            result.strongdem,
            result.non_generalized_dictatorship,
        ):
            if verdict.holds and verdict.witness is not None:
                assert is_aggregator(verdict.witness, mod[key])


def test_classify_implications_n3_census():
    from aggdom.oracle import census_domains

    for _mask, d in census_domains(3):
        r = classify_domain(d)
        if r.strongdem.holds:
            assert r.local_possibility.holds
        if r.local_possibility.holds:
            assert r.possibility.holds
        assert r.anonymous.holds == r.local_possibility.holds
        if r.non_generalized_dictatorship.holds:
            assert r.possibility.holds
        if r.monotone_nondictatorial.holds:
            assert r.possibility.holds


def test_affine_minority_never_generalized_dictatorship_n3():
    from aggdom.domain import is_affine
    from aggdom.oracle import census_domains

    xbar3 = lambda n: systematic(named_fn("xor3"), n)
    for _mask, d in census_domains(3):
        if is_affine(d) and len(d.members) >= 3:
            assert is_aggregator(xbar3(d.n), d)
            assert not is_generalized_dictatorship(xbar3(d.n), d)


def test_classify_degenerate_policies():
    d = Domain(3, [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    with pytest.raises(DegenerateDomainError):
        classify_domain(d)
    result = classify_domain(d, policy="permissive")
    assert result.degenerate_coordinates == ((3, 1),)
    assert result.possibility.holds
    assert is_aggregator(result.possibility.witness, d)


def test_bad_policy_is_a_value_error(mod):
    for policy in ("Strict", "lenient", ""):
        for call in (classify_domain, pic_for, lpic_for):
            with pytest.raises(ValueError, match="unknown policy"):
                call(mod[11], policy=policy)


def test_classify_domain_builds_one_prime_cnf(mod, monkeypatch):
    from aggdom import synthesize

    strict = [mod[k] for k in (7, 10, 11, 12, 13, 14)]  # mod14 is affine
    permissive = [
        Domain(4, [row + (1,) for row in mod[14].members]),
        Domain(4, [(0,) + row for row in mod[12].members]),
    ]
    for policy, domains_ in (("strict", strict), ("permissive", permissive)):
        for d in domains_:
            calls = count_calls(monkeypatch, synthesize, "prime_cnf")
            classify_domain(d, policy=policy)
            assert len(calls) == 1, (policy, d)
            monkeypatch.undo()


def test_classify_domain_sends_each_kernel_input_once(mod, monkeypatch):
    from aggdom import aggregate, domain

    strict = [mod[k] for k in (7, 9, 10, 11, 12, 13, 14)]
    permissive = [
        Domain(4, [row + (1,) for row in mod[14].members]),
        Domain(4, [(0,) + row for row in mod[12].members]),
    ]
    witness_checks = 0
    for policy, domains_ in (("strict", strict), ("permissive", permissive)):
        for d in domains_:
            inputs, closure_checks = [], count_calls(monkeypatch, domain, "escaping_tuple")

            def kernel(d_, tables, tuple_cap=DEFAULT_TUPLE_CAP, own_rows=False, original=aggregate.escaping_tuple):
                inputs.append((d_, tuple(map(tuple, tables)), own_rows))
                return original(d_, tables, tuple_cap, own_rows)

            monkeypatch.setattr(aggregate, "escaping_tuple", kernel)
            classify_domain(d, policy=policy)
            assert len(set(inputs)) == len(inputs), (policy, d)
            assert closure_checks == [], (policy, d)  # the family needs no closure check
            witness_checks += len(inputs)
            monkeypatch.undo()
    assert witness_checks > 0


def _closure_family(d):
    return tuple(name for name in ("and", "or", "maj", "xor3") if is_closed_under(d, named_fn(name)))


def test_systematic_family_is_the_closure_family():
    from aggdom.oracle import census_domains

    for n in (1, 2, 3):
        for _mask, d in census_domains(n):
            assert classify_domain(d).systematic_family == _closure_family(d), d
    for _mask, d in census_domains(4, sample=2000, seed=4):
        assert classify_domain(d).systematic_family == _closure_family(d), d


@pytest.mark.slow
def test_systematic_family_is_the_closure_family_exhaustive_n4():
    from aggdom.oracle import census_domains

    for _mask, d in census_domains(4):
        assert classify_domain(d).systematic_family == _closure_family(d), d


def test_permissive_classification_lifts_the_synthesized_constraints():
    checked = 0
    for n in (2, 3):
        for mask in range(1, 1 << (1 << n)):
            d = Domain.from_mask(n, mask)
            if len(d.members) < 2 or degeneracy(d).non_degenerate:
                continue
            result = classify_domain(d, policy="permissive")
            assert result.pic == pic_for(d, policy="permissive")
            assert result.lpic == lpic_for(d, policy="permissive")
            checked += 1
    assert checked == 4 + 54  # degenerate n=2 and n=3 domains with >= 2 members


def first_failure(F, d, accept):
    """First member tuple in product order whose plainly computed image fails
    accept(image, rows)."""
    for rows in product(d.members, repeat=F.k):
        image = tuple(f(*(row[j] for row in rows)) for j, f in enumerate(F.components))
        if not accept(image, rows):
            return rows
    return None


@st.composite
def domain_and_aggregator(draw, unanimous):
    d = draw(domains())
    k = draw(st.integers(min_value=1, max_value=3))
    components = []
    for _ in range(d.n):
        table = draw(tables(k))
        if unanimous:
            table = (0,) + table[1:-1] + (1,)
        components.append(BoolFn(k, table))
    return d, Aggregator(tuple(components))


@settings(max_examples=200, deadline=None)
@given(domain_and_aggregator(unanimous=True))
def test_aggregator_counterexample_is_first_escape(case):
    d, F = case
    found = aggregator_counterexample(F, d)
    assert found == first_failure(F, d, lambda image, rows: image in d.member_set)
    assert is_aggregator(F, d) == (found is None)
    f = F.components[0]
    assert is_aggregator(systematic(f, d.n), d) == brute_closed(d.members, f)
    with pytest.raises(CapExceededError):
        aggregator_counterexample(F, d, tuple_cap=len(d) ** F.k - 1)


@settings(max_examples=200, deadline=None)
@given(domain_and_aggregator(unanimous=False))
def test_generalized_dictatorship_counterexample_is_first_failure(case):
    d, F = case
    found = generalized_dictatorship_counterexample(F, d)
    assert found == first_failure(F, d, lambda image, rows: image in rows)
    assert is_generalized_dictatorship(F, d) == (found is None)
    with pytest.raises(CapExceededError):
        generalized_dictatorship_counterexample(F, d, tuple_cap=len(d) ** F.k - 1)
