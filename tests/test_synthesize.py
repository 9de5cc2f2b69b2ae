import random
import re
import sys
import time
import tracemalloc

import pytest

from aggdom import (
    Clause,
    DegenerateDomainError,
    Domain,
    EmptyDomainError,
    Formula,
    VerificationError,
    affine_formula,
    check_lpic,
    check_renamable_partially_horn,
    check_separable,
    check_syntactic_class,
    lpic_for,
    models,
    pic_for,
    prime_cnf,
)
from aggdom.oracle import brute_binary, brute_ternary_commutative
from aggdom import synthesize
from aggdom.formula import _variable_masks
from aggdom.synthesize import _check_prime_cnf, _shrunk_clauses, lpic_analysis

from util import count_calls, is_prime_implicate, reference_prime_cnf


def _clause_tuples(formula):
    return {c.or_part for c in formula.clauses}


def test_prime_cnf_diagonal():
    d = Domain(2, [(0, 0), (1, 1)])
    result = prime_cnf(d)
    assert result.prime_certified
    assert _clause_tuples(result.formula) == {(1, -2), (-1, 2)}
    assert models(result.formula) == d


def test_prime_cnf_full_cube():
    d = Domain(3, [tuple((p >> (2 - i)) & 1 for i in range(3)) for p in range(8)])
    assert prime_cnf(d).formula.clauses == ()


def test_prime_cnf_mod7(mod):
    result = prime_cnf(mod[7])
    assert models(result.formula) == mod[7]
    for clause in result.formula.clauses:
        assert is_prime_implicate(clause.or_part, mod[7].members)


def test_prime_cnf_random_domains_and_primality():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        size = rng.randint(1, 1 << n)
        members = set()
        while len(members) < size:
            members.add(tuple(rng.randint(0, 1) for _ in range(n)))
        d = Domain(n, tuple(members))
        result = prime_cnf(d)
        assert models(result.formula) == d
        for clause in result.formula.clauses:
            assert is_prime_implicate(clause.or_part, d.members)


def _random_domain(rng, n, size):
    positions = rng.sample(range(1 << n), size)
    return Domain.from_mask(n, sum(1 << p for p in positions))


def test_prime_cnf_matches_plain_loop_reference():
    # the clauses and their order, not just the model set
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 10)
        d = _random_domain(rng, n, rng.randint(1, min(40, 1 << n)))
        clauses = [c.or_part for c in prime_cnf(d).formula.clauses]
        assert clauses == reference_prime_cnf(d.members, n), d


@pytest.mark.parametrize("bits", [1, 24, 700])
def test_windowed_sweep_matches_plain_loop_reference(bits, monkeypatch):
    # a small window budget splits the 2^n assignments into many windows
    monkeypatch.setattr(synthesize, "_SWEEP_BITS", bits)
    rng = random.Random(bits)
    windows = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        d = _random_domain(rng, n, rng.randint(1, min(60, 1 << n)))
        clauses = [c.or_part for c in prime_cnf(d).formula.clauses]
        assert clauses == reference_prime_cnf(d.members, n), d
        width = max(0, min(n, (bits // len(d)).bit_length() - 1))
        windows = max(windows, 1 << (n - width))
    assert windows >= 16


def test_sweep_memory_stays_within_the_window_budget(monkeypatch):
    # unwindowed, the 500 agree masks of 2^13 bits would take 8x the budget
    bits = 1 << 19
    monkeypatch.setattr(synthesize, "_SWEEP_BITS", bits)
    rng = random.Random(3)
    ints = tuple(sorted(rng.sample(range(1 << 13), 500)))
    masks = _variable_masks(13)
    tracemalloc.start()
    try:
        clauses = _shrunk_clauses(ints, 13, masks)
        kept, peak = tracemalloc.get_traced_memory()  # kept: the clause list
    finally:
        tracemalloc.stop()
    assert clauses
    assert peak - kept < 3 * bits // 8


@pytest.mark.parametrize(
    "members, clause, message",
    [
        ([(1, 1)], (-1,), "clause [-1] excludes a member"),
        ([(1, 1), (1, 0)], (1, 2), "clause [1, 2] is not prime"),
        ([(1, 1)], (1,), "synthesized formula admits a non-member"),
    ],
)
def test_prime_cnf_certifier_failure_modes(members, clause, message):
    with pytest.raises(VerificationError, match=re.escape(message)):
        _check_prime_cnf(Formula(2, (Clause.disjunction(*clause),)), Domain(2, members))


def test_prime_cnf_errors():
    from aggdom import CapExceededError

    with pytest.raises(EmptyDomainError):
        prime_cnf(Domain(1, []))
    with pytest.raises(CapExceededError):
        prime_cnf(Domain(5, [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]), cap=4)


def test_affine_formula_mod14(mod):
    f = affine_formula(mod[14])
    assert check_syntactic_class(f).affine
    assert models(f) == mod[14]


def test_affine_formula_diagonal():
    d = Domain(2, [(0, 0), (1, 1)])
    f = affine_formula(d)
    assert check_syntactic_class(f).affine
    assert models(f) == d


def test_affine_formula_rejects_mod11(mod):
    assert affine_formula(mod[11]) is None


def test_pic_for_mod7_rejects(mod):
    assert pic_for(mod[7]) is None


def test_pic_for_mod9_separable(mod):
    result = pic_for(mod[9])
    assert result.kind == "separable"
    assert models(result.formula) == mod[9]
    witness = check_separable(result.formula)
    assert {witness.part1, witness.part2} == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}


def test_pic_for_mod14_affine(mod):
    result = pic_for(mod[14])
    assert result.kind == "affine"
    assert check_syntactic_class(result.formula).affine
    assert models(result.formula) == mod[14]


def test_pic_for_degenerate_strict():
    d = Domain(2, [(0, 0), (0, 1)])
    with pytest.raises(DegenerateDomainError):
        pic_for(d)


def test_pic_for_degenerate_permissive():
    d = Domain(2, [(0, 0), (0, 1)])
    result = pic_for(d, policy="permissive")
    assert result is not None
    assert models(result.formula) == d
    assert result.fixed_coordinates == ((1, 0),)


def test_lpic_for_mod10(mod):
    result = lpic_for(mod[10])
    assert result is not None
    assert models(result.formula) == mod[10]
    assert check_lpic(result.formula) is not None


def test_lpic_model_set_computed_once(monkeypatch, mod):
    # mod10 takes the occurring-within-admissible path, where the prime CNF's
    # certificate checks the model set, and mod14 the xor rewrite, where the
    # candidate is checked: on each, exactly one satisfying_mask call sees
    # the final lpic formula, and no models call does, through any binding
    enumerated = []
    original = models
    for module in [m for name, m in sys.modules.items() if name.startswith("aggdom")]:
        if getattr(module, "models", None) is original:
            monkeypatch.setattr(module, "models", lambda f, *a, **k: enumerated.append(f) or original(f, *a, **k))
    for d, rewritten in ((mod[10], False), (mod[14], True)):
        sweeps = count_calls(monkeypatch, synthesize, "satisfying_mask")
        result = lpic_for(d)
        assert bool(result.witness.v1 or result.witness.v2) == rewritten
        assert sum(1 for args in sweeps if args[0] == result.formula) == 1
        assert result.formula not in enumerated


def test_lpic_for_mod9_rejects(mod):
    result, reason = lpic_analysis(mod[9])
    assert result is None
    assert reason == "component neither bijunctive nor affine"


def test_lpic_for_mod14_affine(mod):
    result = lpic_for(mod[14])
    assert result is not None
    assert result.witness.v2 == frozenset({1, 2, 3})
    assert models(result.formula) == mod[14]


def test_lpic_guarded_xor_rewrite_regression():
    # prime CNF (-z|u|v|w)(u|-v|-w)(-u|v|-w)(-u|-v|w) has an affine tail set,
    # yet the guard z=0 activates only three of the four tails, whose or-form
    # admits 000 while the xor-form does not; the rewrite must be rejected,
    # and the brute-force search confirms no commutative witness exists
    d = Domain(
        4,
        [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1),
            (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
        ],
    )
    result, reason = lpic_analysis(d)
    assert result is None
    assert reason == "xor rewrite not model-preserving"
    assert brute_ternary_commutative(d) is None


def test_lpic_unsatisfiable_tail_component():
    # the prime CNF of this domain has a clause-tail component with no
    # models at all; that still counts as an affine tail set (a pair of
    # contradictory xor clauses has the same, empty, model set), so the
    # analysis must reach the rewrite check instead of crashing
    d = Domain(
        5,
        [
            (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 1, 0, 1), (0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1),
            (1, 0, 1, 1, 1), (1, 1, 0, 0, 0),
        ],
    )
    result, reason = lpic_analysis(d)
    assert result is None
    assert reason == "xor rewrite not model-preserving"
    assert brute_ternary_commutative(d) is None


def test_lpic_matches_oracle_random_n5():
    import random as rng_module

    rng = rng_module.Random(2024)
    from aggdom.domain import degeneracy

    checked = 0
    for _ in range(150):
        members = set()
        size = rng.randint(4, 14)
        while len(members) < size:
            members.add(tuple(rng.randint(0, 1) for _ in range(5)))
        d = Domain(5, tuple(members))
        if not degeneracy(d).non_degenerate:
            continue
        checked += 1
        result, _reason = lpic_analysis(d)
        assert (result is not None) == (brute_ternary_commutative(d) is not None)
    assert checked > 100


def test_lpic_complete_on_lpic_shaped_domains():
    # model sets of formulas that are local possibility constraints by
    # construction must always be accepted back by the domain-side pipeline
    import random as rng_module

    from aggdom import Clause, Formula, check_lpic
    from aggdom.domain import degeneracy

    rng = rng_module.Random(77)
    accepted = 0
    while accepted < 120:
        n = rng.randint(3, 6)
        variables = list(range(1, n + 1))
        rng.shuffle(variables)
        k0 = rng.randint(0, n)
        k1 = rng.randint(0, n - k0)
        v0, v1, v2 = variables[:k0], variables[k0 : k0 + k1], variables[k0 + k1 :]
        clauses = []
        for _ in range(rng.randint(1, 6)):
            options = [p for p, part in (("h", v0), ("b", v1), ("g", v2)) if part]
            pick = rng.choice(options)
            if pick == "h":
                vs = rng.sample(v0, rng.randint(1, min(3, len(v0))))
                lits = [-v for v in vs]
                if rng.random() < 0.6:
                    lits[0] = abs(lits[0])
                clauses.append(Clause.disjunction(*lits))
            elif pick == "b":
                vs = rng.sample(v1, rng.randint(1, min(2, len(v1))))
                clauses.append(
                    Clause.disjunction(*(v if rng.random() < 0.5 else -v for v in vs))
                )
            else:
                xs = rng.sample(v2, rng.randint(1, min(3, len(v2))))
                xlits = [v if rng.random() < 0.5 else -v for v in xs]
                guards = (
                    [-v for v in rng.sample(v0, rng.randint(0, min(2, len(v0))))]
                    if v0
                    else []
                )
                if guards:
                    clauses.append(Clause.generalized(guards, xlits))
                else:
                    clauses.append(Clause.exclusive_or(*xlits))
        f = Formula(n, tuple(clauses))
        assert check_lpic(f) is not None
        d = models(f)
        if len(d.members) < 2 or not degeneracy(d).non_degenerate:
            continue
        result, reason = lpic_analysis(d)
        assert result is not None, (f, reason)
        accepted += 1


def _census_domains_n3():
    from aggdom.oracle import census_domains

    return [d for _mask, d in census_domains(3)]


def test_round_trip_oracle_consistency_n3():
    # synthesis accepts exactly when the corresponding oracle search succeeds
    from aggdom.domain import is_affine

    for d in _census_domains_n3():
        pic = pic_for(d)
        assert (pic is not None) == (brute_binary(d) is not None or is_affine(d))
        lpic = lpic_for(d)
        assert (lpic is not None) == (brute_ternary_commutative(d) is not None)


def test_round_trip_sampled_n4():
    from aggdom.oracle import census_domains

    rng_domains = list(census_domains(4, sample=120, seed=5))
    for _mask, d in rng_domains:
        pic = pic_for(d)
        if pic is not None:
            assert models(pic.formula) == d
        lpic = lpic_for(d)
        if lpic is not None:
            assert models(lpic.formula) == d
            assert check_lpic(lpic.formula) is not None


@pytest.mark.slow
def test_prime_cnf_n20_within_ten_seconds():
    d = _random_domain(random.Random(20), 20, 200)
    start = time.perf_counter()
    result = prime_cnf(d)
    assert time.perf_counter() - start < 10
    assert result.prime_certified
    assert models(result.formula) == d


@pytest.mark.slow
def test_round_trip_exhaustive_n4():
    from aggdom.oracle import _eligible

    for mask in range(1, 1 << 16):
        d = Domain.from_mask(4, mask)
        if not _eligible(d):
            continue
        pic = pic_for(d)
        if pic is not None:
            assert models(pic.formula) == d
        lpic = lpic_for(d)
        if lpic is not None:
            assert models(lpic.formula) == d


def test_synthesized_witnesses_verify_n3(mod):
    for d in _census_domains_n3():
        pic = pic_for(d)
        if pic is None:
            continue
        if pic.kind == "separable":
            assert check_separable(pic.formula) is not None
        elif pic.kind == "renamable-partially-horn":
            assert check_renamable_partially_horn(pic.formula) is not None
        else:
            assert check_syntactic_class(pic.formula).affine
