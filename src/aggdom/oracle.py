"""Brute-force existence checks for aggregator classes at small arity.

These searches are deliberately independent of the synthesis pipeline: the
census runs both paths over every small domain and reports any disagreement.
Every search is one walk, `_search`, over a named space of per-coordinate
functions (SPACES), in lexicographic candidate order, so witnesses are
reproducible.  Per domain and arity, every function's image is bit-sliced
over all ordered k-tuples of members.  The walk goes depth-first over the
coordinates, keeping for each partial image the mask of tuples that have
it, and cuts a branch as soon as a partial image is no member's prefix.
The first closed candidate that the search's acceptance test takes is
re-verified through the closure kernel (`aggregate.is_aggregator`).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import compress

from .aggregate import (
    Aggregator,
    classify_domain,
    is_aggregator,
    is_anonymous,
    is_dictatorial,
    is_generalized_dictatorship,
    is_locally_nondictatorial,
    is_monotone,
    is_strongdem,
    systematic,
)
from .boolfn import BoolFn, named_fn
from .domain import DEFAULT_TUPLE_CAP, Domain, degeneracy, is_affine
from .errors import CapExceededError, VerificationError

DEFAULT_CANDIDATE_CAP = 1 << 20

BINARY_SET = ("and", "or", "pr1", "pr2")
TERNARY_SET = ("and3", "or3", "maj", "xor3")
TERNARY_SET_NO_XOR = ("and3", "or3", "maj")

# search space name -> (arity, per-coordinate functions in candidate order)
SPACES = {
    "binary-unanimous": (2, BINARY_SET),
    "ternary-commutative": (3, TERNARY_SET),
    "ternary-commutative-no-xor": (3, TERNARY_SET_NO_XOR),
}


# Image columns per domain and arity: the census asks two searches of each.
@functools.lru_cache(maxsize=2)
def _columns(ints: tuple[int, ...], n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per coordinate, the k argument columns followed by the image columns
    of the set's four functions (and, or, pr1, pr2 for k = 2; and3, or3,
    maj, xor3 for k = 3).  A column is bit-sliced over the |D|^k ordered
    member tuples: tuple (i1, .., ik) is bit i1 |D|^(k-1) + .. + ik, and the
    argument column of position p has that bit set when member i_p has a 1
    at the coordinate.  Each argument column is the coordinate's bits spaced
    |D|^(k-p) apart, times one constant that spreads each bit to a block of
    that width and tiles the result |D|^(p-1) times: no loop over tuples."""
    size = len(ints)
    full = (1 << size**k) - 1
    layouts = []
    for p in range(1, k + 1):
        width = size ** (k - p)
        period = (1 << size * width) - 1
        units = [1 << i * width for i in range(size)]
        layouts.append((units, ((1 << width) - 1) * (full // period if full else 0)))
    columns = []
    for shift in range(n - 1, -1, -1):
        bits = [x >> shift & 1 for x in ints]
        args = tuple(sum(compress(units, bits)) * spread for units, spread in layouts)
        if k == 2:
            a, b = args
            images = (a & b, a | b, a, b)
        else:
            a, b, c = args
            images = (a & b & c, a | b | c, (a & b) | (b & c) | (a & c), a ^ b ^ c)
        columns.append(args + images)
    return tuple(columns)


def _closed_candidates(d: Domain, k: int, nsets: int):
    """Digits of every candidate over the first `nsets` functions of the
    arity-k set that maps every k-tuple of members into d, in the order of
    ``product(range(nsets), repeat=d.n)``.

    Depth-first over coordinates 1..n, trying functions in set order.  The
    state at depth j maps each j-bit partial image to the mask of tuples
    that have it; a choice splits every entry by its image column.  A branch
    is cut as soon as some partial image is not the prefix of a member, so
    at depth n, where the prefix test is the membership test, every leaf is
    closed."""
    ints, n = d.members_as_ints, d.n
    size = len(ints)
    if size**k > DEFAULT_TUPLE_CAP:
        raise CapExceededError(f"|d|^k = {size}^{k} exceeds cap {DEFAULT_TUPLE_CAP}")
    columns = _columns(ints, n, k)
    prefixes = [{x >> (n - j) for x in ints} for j in range(n + 1)]
    digits: list[int] = []

    def walk(j, state):
        if j == n:
            yield tuple(digits)
            return
        allowed = prefixes[j + 1]
        for g in range(nsets):
            image = columns[j][k + g]
            split = []
            for prefix, mask in state:
                one = mask & image
                if one:
                    prefix1 = prefix << 1 | 1
                    if prefix1 not in allowed:
                        break
                    split.append((prefix1, one))
                if one != mask:
                    if prefix << 1 not in allowed:
                        break
                    split.append((prefix << 1, mask ^ one))
            else:
                digits.append(g)
                yield from walk(j + 1, split)
                digits.pop()

    return walk(0, [(0, (1 << size**k) - 1)])


@functools.cache
def _space_functions(space: str) -> tuple[BoolFn, ...]:
    k, names = SPACES[space]
    return tuple(named_fn(name, k) for name in names)


def _verify_find(F: Aggregator, d: Domain, extra=None) -> Aggregator:
    if not is_aggregator(F, d):
        raise VerificationError(f"oracle returned a non-aggregator {F}")
    if extra is not None and not extra(F):
        raise VerificationError(f"oracle find {F} fails the requested property")
    return F


def _aggregator(digits: tuple[int, ...], space: str) -> Aggregator:
    functions = _space_functions(space)
    return Aggregator(tuple(functions[g] for g in digits))


def _search(d: Domain, space: str, accept=None, extra=None) -> Aggregator | None:
    """The first closed candidate of the named space, in product order, whose
    digits `accept` takes (any, when accept is None), re-verified through
    the closure kernel and the aggregator-level test `extra`; None when
    there is none.  Too many candidates or member tuples raise
    CapExceededError before the walk starts."""
    if space not in SPACES:
        raise ValueError(f"unknown search space {space!r}; choose from {sorted(SPACES)}")
    k, names = SPACES[space]
    if len(names) ** d.n > DEFAULT_CANDIDATE_CAP:
        raise CapExceededError(f"{len(names)}^{d.n} candidates exceed cap {DEFAULT_CANDIDATE_CAP}")
    for digits in _closed_candidates(d, k, len(names)):
        if accept is None or accept(digits):
            return _verify_find(_aggregator(digits, space), d, extra)
    return None


def brute_binary(d: Domain) -> Aggregator | None:
    """First non-dictatorial binary tuple over {and, or, pr1, pr2} that
    aggregates d, in lexicographic candidate order; None when none exists.
    Over this set the dictatorial tuples are exactly all-pr1 and all-pr2."""
    dictators = ((2,) * d.n, (3,) * d.n)
    return _search(d, "binary-unanimous", lambda digits: digits not in dictators)


def brute_ternary_commutative(d: Domain, allow_xor: bool = True) -> Aggregator | None:
    """First tuple over {and3, or3, maj} (plus xor3 when allowed) that
    aggregates d; all its components are non-projections by construction."""
    return _search(d, "ternary-commutative" if allow_xor else "ternary-commutative-no-xor")


PROPERTY_TAGS = {
    "nondictatorial": lambda F, d: not is_dictatorial(F),
    "locally-nondictatorial": lambda F, d: is_locally_nondictatorial(F),
    "anonymous": lambda F, d: is_anonymous(F),
    "monotone-nondictatorial": lambda F, d: is_monotone(F) and not is_dictatorial(F),
    "strongdem": lambda F, d: is_strongdem(F),
    "not-generalized-dictatorship": lambda F, d: not is_generalized_dictatorship(F, d),
}


def brute_property(d: Domain, property_tag: str, space: str) -> Aggregator | None:
    """First candidate of the named space (a key of SPACES) that aggregates d
    and has the tagged property (a key of PROPERTY_TAGS); exhaustive and
    deterministic."""
    if property_tag not in PROPERTY_TAGS:
        raise ValueError(f"unknown property {property_tag!r}; choose from {sorted(PROPERTY_TAGS)}")
    predicate = PROPERTY_TAGS[property_tag]
    holds = lambda F: predicate(F, d)
    return _search(d, space, lambda digits: holds(_aggregator(digits, space)), holds)


def _oracle_not_gendict(d: Domain) -> Aggregator | None:
    """Binary tuples first; minority as the fallback for affine domains."""
    if len(d.members) < 3:
        return None

    def escapes(digits):
        # the tuples whose image differs from the first, and from the second, member
        off_x = off_y = 0
        for column, g in zip(_columns(d.members_as_ints, d.n, 2), digits):
            image = column[2 + g]
            off_x |= image ^ column[0]
            off_y |= image ^ column[1]
        return off_x & off_y

    found = _search(d, "binary-unanimous", escapes, lambda G: not is_generalized_dictatorship(G, d))
    if found is None and is_affine(d):
        F = systematic(named_fn("xor3"), d.n)
        if is_aggregator(F, d) and not is_generalized_dictatorship(F, d):
            found = F
    return found


# ---------------------------------------------------------------------------
# census: theory path vs oracle path over every small domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    domain_bits: str
    members: tuple[str, ...]
    theory: dict
    oracle: dict
    match: bool

    def to_json(self) -> dict:
        return {
            "domain_bits": self.domain_bits,
            "members": list(self.members),
            "theory_verdicts": self.theory,
            "oracle_verdicts": self.oracle,
            "match": self.match,
        }


@dataclass(frozen=True)
class CensusReport:
    n: int
    sample: int | None  # None: exhaustive
    seed: int
    records: tuple[CensusRecord, ...]

    @property
    def mismatches(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if not r.match)

    def to_json(self) -> str:
        return json.dumps([r.to_json() for r in self.records], indent=None)


def oracle_verdicts(d: Domain) -> dict:
    binary = brute_binary(d)
    affine = is_affine(d)
    lpd = brute_ternary_commutative(d, allow_xor=True)
    strongdem = brute_ternary_commutative(d, allow_xor=False)
    ngd = _oracle_not_gendict(d)
    return {
        "possibility": binary is not None or affine,
        "local_possibility": lpd is not None,
        "anonymous": lpd is not None,
        "monotone_nondictatorial": binary is not None,
        "strongdem": strongdem is not None,
        "non_generalized_dictatorship": ngd is not None,
    }


def _eligible(d: Domain) -> bool:
    return len(d.members) >= 2 and degeneracy(d).non_degenerate


def census_domains(n: int, sample: int | None = None, seed: int = 0):
    """Non-degenerate domains with at least two members, each with its mask:
    all of them (sample None, n <= 4), or a seeded sample of that many
    distinct subsets.  A sample larger than the number of eligible domains
    raises ValueError."""
    size = 1 << n
    if sample is None:
        if n > 4:
            raise CapExceededError("exhaustive census is limited to n <= 4")
        for mask in range(1, 1 << size):
            d = Domain.from_mask(n, mask)
            if _eligible(d):
                yield mask, d
        return
    if sample < 0:
        raise ValueError(f"census sample must be >= 0, got {sample}")
    rng = random.Random(seed)
    seen = set()
    produced = 0
    while produced < sample:
        if len(seen) == 1 << size:
            raise ValueError(f"n={n} has only {produced} eligible domains, fewer than the sample of {sample}")
        mask = rng.getrandbits(size)
        if mask in seen:
            continue
        seen.add(mask)
        if not mask:
            continue
        d = Domain.from_mask(n, mask)
        if _eligible(d):
            produced += 1
            yield mask, d


def census(n: int, sample: int | None = None, seed: int = 0) -> CensusReport:
    """Theory and oracle verdicts on every domain of `census_domains`."""
    records = []
    for mask, d in census_domains(n, sample=sample, seed=seed):
        theory = classify_domain(d).verdicts()
        oracle = oracle_verdicts(d)
        records.append(
            CensusRecord(
                domain_bits=format(mask, f"0{1 << n}b"),
                members=tuple("".join(map(str, row)) for row in d.members),
                theory=theory,
                oracle=oracle,
                match=theory == oracle,
            )
        )
    return CensusReport(n, sample, seed, tuple(records))
