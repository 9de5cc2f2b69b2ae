import functools
from itertools import product

import pytest

from aggdom import (
    Aggregator,
    CapExceededError,
    Domain,
    brute_binary,
    brute_property,
    brute_ternary_commutative,
    census,
    is_aggregator,
    is_generalized_dictatorship,
    named_fn,
    systematic,
)
from aggdom.aggregate import is_dictatorial
from aggdom.boolfn import fn_name
from aggdom import oracle
from aggdom.oracle import (
    BINARY_SET,
    TERNARY_SET,
    TERNARY_SET_NO_XOR,
    PROPERTY_TAGS,
    SPACES,
    _closed_candidates,
    _oracle_not_gendict,
    census_domains,
    oracle_verdicts,
)

from util import basis_closed_candidates, basis_searches, brute_closed, count_calls


def test_brute_binary_mod7_none(mod):
    assert brute_binary(mod[7]) is None


def test_brute_binary_mod9_found(mod):
    found = brute_binary(mod[9])
    assert found is not None
    assert not is_dictatorial(found)
    assert is_aggregator(found, mod[9])


def test_brute_binary_full_cube():
    cube = Domain(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    found = brute_binary(cube)
    assert found is not None
    # lexicographic candidate order starts at the all-and tuple
    assert found.describe() == ("and", "and")


def test_brute_binary_cap(monkeypatch):
    # 4^11 binary candidates exceed DEFAULT_CANDIDATE_CAP = 2^20
    columns = count_calls(monkeypatch, oracle, "_columns")
    d = Domain(11, [(0,) * 11, (1,) * 11])
    with pytest.raises(CapExceededError, match="4\\^11 candidates"):
        brute_binary(d)
    assert columns == []


def test_brute_ternary_mod13(mod):
    from aggdom import Aggregator

    found = brute_ternary_commutative(mod[13])
    assert found is not None
    assert all(fn_name(f) in {"and3", "or3", "maj", "xor3"} for f in found.components)
    assert is_aggregator(found, mod[13])
    # the published witness also verifies directly
    published = Aggregator(
        (named_fn("and3"), named_fn("or3"), named_fn("maj"), named_fn("maj"))
    )
    assert is_aggregator(published, mod[13])


def test_brute_ternary_mod9_none(mod):
    assert brute_ternary_commutative(mod[9]) is None


def test_brute_ternary_mod14_xor_dependence(mod):
    assert brute_ternary_commutative(mod[14], allow_xor=True) is not None
    assert brute_ternary_commutative(mod[14], allow_xor=False) is None


def test_brute_property_not_gendict_mod12(mod):
    from aggdom import Aggregator

    found = brute_property(mod[12], "not-generalized-dictatorship", "binary-unanimous")
    assert found is not None
    assert is_aggregator(found, mod[12])
    assert not is_generalized_dictatorship(found, mod[12])
    # first find in candidate order is (and, or, and); the prose example
    # (and, or, or) also satisfies the property
    assert found.describe() == ("and", "or", "and")
    example = Aggregator((named_fn("and"), named_fn("or"), named_fn("or")))
    assert is_aggregator(example, mod[12])
    assert not is_generalized_dictatorship(example, mod[12])


def test_brute_property_two_element_none():
    d = Domain(2, [(0, 0), (1, 1)])
    assert brute_property(d, "not-generalized-dictatorship", "binary-unanimous") is None


def test_brute_property_monotone_mod14_none(mod):
    assert brute_property(mod[14], "monotone-nondictatorial", "ternary-commutative") is None


def test_brute_property_anonymous(mod):
    found = brute_property(mod[14], "anonymous", "ternary-commutative")
    assert found is not None and is_aggregator(found, mod[14])


def test_brute_property_unknown_tag(mod):
    with pytest.raises(ValueError, match="unknown property"):
        brute_property(mod[7], "best-effort", "binary-unanimous")


def test_brute_property_unknown_space(mod):
    with pytest.raises(ValueError, match="unknown search space 'all-unanimous'"):
        brute_property(mod[7], "nondictatorial", "all-unanimous")


def test_oracle_verdicts_match_examples(mod):
    verdicts = oracle_verdicts(mod[7])
    assert verdicts == {
        "possibility": False,
        "local_possibility": False,
        "anonymous": False,
        "monotone_nondictatorial": False,
        "strongdem": False,
        "non_generalized_dictatorship": False,
    }
    verdicts = oracle_verdicts(mod[14])
    assert verdicts["possibility"] and verdicts["anonymous"]
    assert not verdicts["monotone_nondictatorial"] and not verdicts["strongdem"]
    assert verdicts["non_generalized_dictatorship"]


def test_census_n1_and_n2():
    report = census(1)
    assert len(report.records) == 1 and not report.mismatches
    report = census(2)
    assert len(report.records) == 7 and not report.mismatches


def test_census_domains_filtering():
    for _mask, d in census_domains(2):
        assert len(d.members) >= 2
        for j in range(d.n):
            assert {row[j] for row in d.members} == {0, 1}


def test_census_exhaustive_cap():
    with pytest.raises(CapExceededError):
        list(census_domains(5))


@pytest.mark.slow
def test_census_n4_exhaustive():
    report = census(4)
    assert len(report.records) == 63_775
    assert not report.mismatches


def test_census_sample_stops_when_every_subset_is_drawn():
    # n=2 has 7 eligible domains among its 16 subsets, n=3 has 193 among 256
    with pytest.raises(ValueError, match="only 7 eligible domains"):
        list(census_domains(2, sample=50))
    assert len(census(3, sample=193).records) == 193
    with pytest.raises(ValueError, match="only 193 eligible domains"):
        list(census_domains(3, sample=194))


def test_census_sample_deterministic():
    first = census(4, sample=25, seed=9)
    second = census(4, sample=25, seed=9)
    assert [r.domain_bits for r in first.records] == [r.domain_bits for r in second.records]
    assert not first.mismatches


def test_all_verdicts_match_oracle_random_n5():
    import random

    from aggdom import classify_domain
    from aggdom.domain import degeneracy

    rng = random.Random(424242)
    checked = 0
    while checked < 300:
        members = set()
        size = rng.randint(4, 24)
        while len(members) < size:
            members.add(tuple(rng.randint(0, 1) for _ in range(5)))
        d = Domain(5, tuple(members))
        if not degeneracy(d).non_degenerate:
            continue
        checked += 1
        assert classify_domain(d).verdicts() == oracle_verdicts(d)


def test_census_json_schema():
    import json

    report = census(2)
    rows = json.loads(report.to_json())
    assert {"domain_bits", "members", "theory_verdicts", "oracle_verdicts", "match"} <= rows[0].keys()


@functools.lru_cache(maxsize=2)
def _table_indices(d, k):
    """Per ordered k-tuple of members, each coordinate's index into a k-ary
    truth table (the first argument's bit most significant)."""
    return [
        tuple(sum(row[j] << (k - 1 - p) for p, row in enumerate(rows)) for j in range(d.n))
        for rows in product(d.members, repeat=k)
    ]


def plain_closed(d, components):
    """Every k-tuple of members maps into d: a plain loop over the tuples,
    reading each coordinate's image off its component's truth table."""
    member_set = set(d.members)
    return all(
        tuple(f.table[i] for f, i in zip(components, indices)) in member_set
        for indices in _table_indices(d, components[0].arity)
    )


def reference_first(d, names, k, accept=lambda components: True, closed=plain_closed):
    """First candidate over `names` in product order that `closed` (the plain
    loop, or a memo of it) accepts and that satisfies accept; the closure
    test shares no code with the oracle or the kernel."""
    for chosen in product(names, repeat=d.n):
        components = tuple(named_fn(name, k) for name in chosen)
        if closed(d, components) and accept(components):
            return Aggregator(components)
    return None


def escapes(d, components):
    """Some pair of members whose image is neither of them (plain loop)."""
    for x in d.members:
        for y in d.members:
            image = tuple(f(a, b) for f, a, b in zip(components, x, y))
            if image != x and image != y:
                return True
    return False


def reference_not_gendict(d):
    if len(d.members) < 3:
        return None
    found = reference_first(d, BINARY_SET, 2, lambda components: escapes(d, components))
    # on an affine domain of 4 or more members, xor3 of three distinct members
    # is none of them, so systematic xor3 is never a generalized dictatorship
    if found is None and brute_closed(d.members, named_fn("xor3")):
        found = Aggregator((named_fn("xor3"),) * d.n)
    return found


def test_oracle_witnesses_are_lexicographically_first():
    """Every eligible n=3 domain and a seeded sample of n=4 domains: each
    search returns the first witness of a plain product-order search, so the
    pruned walk loses and reorders nothing."""
    dictators = ({named_fn("pr1", 2)}, {named_fn("pr2", 2)})
    not_dictatorial = lambda components: set(components) not in dictators
    domains = [d for _mask, d in census_domains(3)]
    domains += [d for _mask, d in census_domains(4, sample=25, seed=31)]
    for d in domains:
        assert brute_binary(d) == reference_first(d, BINARY_SET, 2, not_dictatorial), d
        assert brute_ternary_commutative(d) == reference_first(d, TERNARY_SET, 3), d
        assert brute_ternary_commutative(d, allow_xor=False) == reference_first(
            d, TERNARY_SET_NO_XOR, 3
        ), d
        assert _oracle_not_gendict(d) == reference_not_gendict(d), d


def _every_domain(n):
    cube = list(product((0, 1), repeat=n))
    for mask in range(1, 1 << len(cube)):
        yield Domain(n, [row for i, row in enumerate(cube) if mask >> i & 1])


def test_closed_candidates_equal_the_basis_engine_on_every_small_domain():
    """Every non-empty domain with n <= 3, degenerate ones included: the
    pruned depth-first search lists exactly the closed candidates that
    testing every candidate against the basis list finds, in the same order."""
    for n in (1, 2, 3):
        for d in _every_domain(n):
            for k, nsets in ((2, 4), (3, 4), (3, 3)):
                assert list(_closed_candidates(d, k, nsets)) == list(
                    basis_closed_candidates(d, k, nsets)
                ), (d, k, nsets)


def test_searches_equal_the_basis_engine_on_sampled_domains():
    domains = [d for _mask, d in census_domains(4, sample=2000, seed=14)]
    domains += [d for _mask, d in census_domains(5, sample=200, seed=14)]
    for d in domains:
        found = (
            brute_binary(d),
            brute_ternary_commutative(d),
            brute_ternary_commutative(d, allow_xor=False),
            _oracle_not_gendict(d),
        )
        assert found == basis_searches(d), d


def test_search_over_the_tuple_cap_stops_before_building_columns(monkeypatch):
    # 216^3 ternary member tuples exceed DEFAULT_TUPLE_CAP = 10^7, 215^3 do not
    columns = count_calls(monkeypatch, oracle, "_columns")
    d = Domain(8, [tuple(int(b) for b in format(v, "08b")) for v in range(216)])
    for allow_xor in (True, False):
        with pytest.raises(CapExceededError, match="216\\^3"):
            brute_ternary_commutative(d, allow_xor=allow_xor)
    assert columns == []


def test_brute_property_equals_the_plain_product_loop():
    """Every tag over every named space, on every eligible n <= 3 domain (the
    n=1 one is Domain(1, {0, 1})) and a seeded sample of n=4 domains: the
    pruned walk returns the first candidate of a plain product loop that is
    closed and has the property."""
    domains = [d for n in (1, 2, 3) for _mask, d in census_domains(n)]
    domains += [d for _mask, d in census_domains(4, sample=200, seed=15)]
    assert domains[0] == Domain(1, [(0,), (1,)])
    assert brute_property(domains[0], "nondictatorial", "binary-unanimous").describe() == ("and",)
    for d in domains:
        closed = functools.cache(plain_closed)  # shared by the 18 searches on d
        for space, (k, names) in SPACES.items():
            for tag, predicate in PROPERTY_TAGS.items():
                expected = reference_first(
                    d, names, k, lambda components: predicate(Aggregator(components), d), closed
                )
                assert brute_property(d, tag, space) == expected, (d, tag, space)
