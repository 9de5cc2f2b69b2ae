"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Budgets are asserted exactly as stated."""

import random
import time
from contextlib import contextmanager

from aggdom import (
    Aggregator,
    Domain,
    Formula,
    rename,
    brute_binary,
    check_lpic,
    check_partially_horn,
    check_pic,
    check_renamable_horn,
    check_renamable_partially_horn,
    check_separable,
    check_syntactic_class,
    classify_domain,
    is_affine,
    is_aggregator,
    is_generalized_dictatorship,
    lpic_for,
    models,
    named_fn,
    pic_for,
    prime_cnf,
    systematic,
)
from aggdom.boolfn import (
    BoolFn,
    is_1_immune,
    is_anonymous,
    is_essentially_unary,
    is_monotone,
    is_unanimous,
    linear_fn,
)
from aggdom.formula import Clause
from aggdom.oracle import census, census_domains

from util import is_prime_implicate


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.perf_counter() - start:.2f}s", flush=True)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number} ({name}): {status} in {elapsed:.2f}s (budget {budget_seconds}s)", flush=True)
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_paper_formula_suite(phi):
    with criterion(1, "paper formula suite", 1.0):
        # phi1 renamable Horn
        renaming = check_renamable_horn(phi[1])
        assert renaming is not None
        assert check_syntactic_class(rename(phi[1], renaming)).horn
        # phi2, phi3 not partially Horn but renamable partially Horn
        for k in (2, 3):
            assert check_partially_horn(phi[k]) is None
            assert check_renamable_partially_horn(phi[k]) is not None
        # phi3 separable with the published parts
        witness = check_separable(phi[3])
        assert witness.part1 == frozenset({1, 2, 3})
        assert witness.part2 == frozenset({4, 5})
        # phi4 partially Horn, phi5 not
        assert check_partially_horn(phi[4]) is not None
        assert check_partially_horn(phi[5]) is None
        # phi6 renamable partially Horn with admissible set {4,5}
        witness = check_renamable_partially_horn(phi[6])
        assert witness.admissible == frozenset({4, 5})
        # phi7 neither renamable partially Horn nor a possibility constraint
        assert check_renamable_partially_horn(phi[7]) is None
        assert not check_pic(phi[7]).accepted
        # phi8 is a possibility constraint but not a local one
        assert check_pic(phi[8]).accepted
        assert check_lpic(phi[8]) is None
        # phi11 and phi12 are introduced as Horn formulas
        assert check_syntactic_class(phi[11]).horn
        assert check_syntactic_class(phi[12]).horn
        # phi14 affine
        assert check_syntactic_class(phi[14]).affine


def test_criterion_2_paper_domain_suite(phi, mod):
    with criterion(2, "paper domain suite", 5.0):
        # Mod(phi7): impossibility; the oracle exhausts all 4^3 binary tuples
        # and the ternary xor closure
        assert not classify_domain(mod[7]).possibility.holds
        assert brute_binary(mod[7]) is None
        assert not is_affine(mod[7])

        # Mod(phi9): possibility but not a local possibility domain
        r9 = classify_domain(mod[9])
        assert r9.possibility.holds and not r9.local_possibility.holds

        # Mod(phi10): local possibility domain
        assert classify_domain(mod[10]).local_possibility.holds

        # Mod(phi11): the systematic and-tuple is an aggregator but no
        # generalized dictatorship
        andbar = systematic(named_fn("and"), 3)
        assert is_aggregator(andbar, mod[11])
        assert not is_generalized_dictatorship(andbar, mod[11])
        assert classify_domain(mod[11]).non_generalized_dictatorship.holds

        # Mod(phi12): (and, or, or) is an aggregator and not a generalized
        # dictatorship, while the systematic and-tuple is one
        example = Aggregator((named_fn("and"), named_fn("or"), named_fn("or")))
        assert is_aggregator(example, mod[12])
        assert not is_generalized_dictatorship(example, mod[12])
        assert is_aggregator(andbar, mod[12])
        assert is_generalized_dictatorship(andbar, mod[12])
        assert classify_domain(mod[12]).non_generalized_dictatorship.holds

        # Mod(phi13) admits (and3, or3, maj, maj)
        published = Aggregator(
            (named_fn("and3"), named_fn("or3"), named_fn("maj"), named_fn("maj"))
        )
        assert is_aggregator(published, mod[13])

        # Mod(phi14): anonymous yes, monotone no, StrongDem no
        r14 = classify_domain(mod[14])
        assert r14.anonymous.holds
        assert not r14.monotone_nondictatorial.holds
        assert not r14.strongdem.holds

        # the fixture domains really are the model sets of the formulas
        for k in (7, 9, 10, 11, 12, 13, 14):
            assert models(phi[k]) == mod[k]


def test_criterion_3_exhaustive_n3_census():
    with criterion(3, "exhaustive n=3 census", 60.0):
        report = census(3)
        assert len(report.records) == 193
        assert report.mismatches == ()


def test_criterion_4_synthesis_round_trip():
    with criterion(4, "synthesis round-trip", 60.0):
        for _mask, d in census_domains(3):
            pic = pic_for(d)
            if pic is not None:
                assert models(pic.formula) == d
                if pic.kind == "separable":
                    assert check_separable(pic.formula) is not None
                elif pic.kind == "renamable-partially-horn":
                    assert check_renamable_partially_horn(pic.formula) is not None
                else:
                    assert check_syntactic_class(pic.formula).affine
            lpic = lpic_for(d)
            if lpic is not None:
                assert models(lpic.formula) == d
                assert check_lpic(lpic.formula) is not None


def test_criterion_5_function_predicate_exhaustives():
    with criterion(5, "function-predicate exhaustives", 30.0):
        # anonymous + monotone implies 1-immune, over every table of arity <= 4
        for k in (2, 3, 4):
            for value in range(1 << (1 << k)):
                table = tuple((value >> i) & 1 for i in range(1 << k))
                f = BoolFn(k, table)
                if is_anonymous(f) and is_monotone(f):
                    assert is_1_immune(f)
        # every linear unanimous function of arity 3 or 5 is either a
        # projection or neither monotone nor 1-immune; unanimity itself is
        # exactly c0 = 0 with odd support
        for k in (3, 5):
            for constant in (0, 1):
                for pattern in range(1 << k):
                    support = {i + 1 for i in range(k) if pattern >> i & 1}
                    f = linear_fn(k, support, constant)
                    assert is_unanimous(f) == (constant == 0 and len(support) % 2 == 1)
                    if not is_unanimous(f):
                        continue
                    if is_essentially_unary(f):
                        assert len(support) == 1
                    else:
                        assert not is_monotone(f)
                        assert not is_1_immune(f)


def test_criterion_6_performance():
    import gc

    with criterion(6, "performance", 20.0):
        rng = random.Random(7)
        nvars, nclauses = 10_000, 100_000
        clauses = []
        for _ in range(nclauses):
            variables = rng.sample(range(1, nvars + 1), 3)
            clauses.append(
                Clause.disjunction(*(v if rng.random() < 0.5 else -v for v in variables))
            )
        f = Formula(nvars, tuple(clauses))

        # benchmark hygiene: collections triggered by earlier tests' garbage
        # are not part of what the budget measures
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            check_separable(f)
            separable_time = time.perf_counter() - start
            assert separable_time < 2.0, f"check_separable took {separable_time:.2f}s"

            start = time.perf_counter()
            check_renamable_partially_horn(f)
            rph_time = time.perf_counter() - start
            assert rph_time < 2.0, f"check_renamable_partially_horn took {rph_time:.2f}s"
        finally:
            gc.enable()

        rng = random.Random(1)
        members = set()
        while len(members) < 200:
            members.add(tuple(rng.randint(0, 1) for _ in range(10)))
        d = Domain(10, tuple(members))
        start = time.perf_counter()
        result = prime_cnf(d)
        prime_time = time.perf_counter() - start
        assert prime_time < 10.0, f"prime_cnf took {prime_time:.2f}s"
        assert result.prime_certified
        sample = list(result.formula.clauses)[:20]
        for clause in sample:
            assert is_prime_implicate(clause.or_part, d.members)
        print(
            f"  performance detail: separable {separable_time:.2f}s, "
            f"rph {rph_time:.2f}s, prime_cnf {prime_time:.2f}s "
            f"({len(result.formula.clauses)} clauses)",
            flush=True,
        )


def test_census_n4_sample_agrees():
    # the sampled n=4 census from the census operation's contract
    report = census(4, sample=2000, seed=1)
    assert report.mismatches == ()
