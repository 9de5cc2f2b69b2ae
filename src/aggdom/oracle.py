"""Brute-force existence checks for aggregator classes at small arity.

These searches are deliberately independent of the synthesis pipeline: the
census runs both paths over every small domain and reports any disagreement.
Candidate tuples are enumerated lexicographically over a fixed component
ordering (and < or < pr1 < pr2 for the binary set, and3 < or3 < maj < xor3
for the ternary commutative set) so that returned witnesses are reproducible.
Per domain and arity, every component function's image is bit-sliced over
all ordered k-tuples of members, one column per coordinate and function.
The search goes depth-first over the coordinates, keeping for each partial
image the mask of tuples that have it, and cuts a branch as soon as a
partial image is no member's prefix, so only closed candidates reach the
last coordinate; any find is re-verified through the shared closure kernel
(`aggregate.is_aggregator`) before being reported.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import compress, product

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


@dataclass(frozen=True)
class SearchSpaceSpec:
    """Per-coordinate candidate set for the generic search engine."""

    arity: int
    candidates: tuple[BoolFn, ...]
    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    tuple_cap: int = 10_000_000

    @classmethod
    def named(cls, name: str, k: int | None = None) -> "SearchSpaceSpec":
        if name == "binary-unanimous":
            return cls(2, tuple(named_fn(f, 2) for f in BINARY_SET))
        if name == "ternary-commutative":
            return cls(3, tuple(named_fn(f, 3) for f in TERNARY_SET))
        if name == "ternary-commutative-no-xor":
            return cls(3, tuple(named_fn(f, 3) for f in TERNARY_SET_NO_XOR))
        if name == "all-unanimous":
            if k is None:
                raise ValueError("all-unanimous needs an explicit arity")
            from .boolfn import all_unanimous_tables

            return cls(k, tuple(all_unanimous_tables(k)))
        raise ValueError(f"unknown search space {name!r}")


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
def _set_functions(names: tuple[str, ...], k: int) -> tuple[BoolFn, ...]:
    return tuple(named_fn(name, k) for name in names)


def _candidate_aggregator(digits: tuple[int, ...], names: tuple[str, ...], k: int) -> Aggregator:
    functions = _set_functions(names, k)
    return Aggregator(tuple(functions[g] for g in digits))


def _verify_find(F: Aggregator, d: Domain, extra=None) -> Aggregator:
    if not is_aggregator(F, d):
        raise VerificationError(f"oracle returned a non-aggregator {F}")
    if extra is not None and not extra(F):
        raise VerificationError(f"oracle find {F} fails the requested property")
    return F


def brute_binary(d: Domain, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> Aggregator | None:
    """First non-dictatorial binary tuple over {and, or, pr1, pr2} that
    aggregates d, in lexicographic candidate order; None when none exists."""
    if 4 ** d.n > candidate_cap:
        raise CapExceededError(f"4^{d.n} candidates exceed cap {candidate_cap}")
    all_pr1 = (2,) * d.n
    all_pr2 = (3,) * d.n
    for digits in _closed_candidates(d, 2, 4):
        if digits != all_pr1 and digits != all_pr2:
            return _verify_find(_candidate_aggregator(digits, BINARY_SET, 2), d)
    return None


def brute_ternary_commutative(
    d: Domain, allow_xor: bool = True, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> Aggregator | None:
    """First tuple over {and3, or3, maj} (plus xor3 when allowed) that
    aggregates d; all its components are non-projections by construction."""
    names = TERNARY_SET if allow_xor else TERNARY_SET_NO_XOR
    if len(names) ** d.n > candidate_cap:
        raise CapExceededError(f"{len(names)}^{d.n} candidates exceed cap {candidate_cap}")
    for digits in _closed_candidates(d, 3, len(names)):
        return _verify_find(_candidate_aggregator(digits, TERNARY_SET, 3), d)
    return None


PROPERTY_TAGS = {
    "nondictatorial": lambda F, d: not is_dictatorial(F),
    "locally-nondictatorial": lambda F, d: is_locally_nondictatorial(F),
    "anonymous": lambda F, d: is_anonymous(F),
    "monotone-nondictatorial": lambda F, d: is_monotone(F) and not is_dictatorial(F),
    "strongdem": lambda F, d: is_strongdem(F),
    "not-generalized-dictatorship": lambda F, d: not is_generalized_dictatorship(F, d),
}


def brute_property(d: Domain, property_tag: str, spec: SearchSpaceSpec) -> Aggregator | None:
    """Generic engine: first candidate tuple that is an aggregator for d and
    satisfies the tagged property; exhaustive and deterministic.  This is a
    sanity tool: arity 3 already settles every census question, so the
    all-table spaces carry an extra n * 2^(2^k) <= 10^6 guard."""
    if property_tag not in PROPERTY_TAGS:
        raise ValueError(f"unknown property {property_tag!r}; choose from {sorted(PROPERTY_TAGS)}")
    if len(spec.candidates) ** d.n > spec.candidate_cap:
        raise CapExceededError(
            f"{len(spec.candidates)}^{d.n} candidates exceed cap {spec.candidate_cap}"
        )
    if d.n * (1 << (1 << spec.arity)) > 1_000_000:
        raise CapExceededError(
            f"n * 2^(2^{spec.arity}) = {d.n * (1 << (1 << spec.arity))} exceeds 10^6"
        )
    predicate = PROPERTY_TAGS[property_tag]
    for chosen in product(spec.candidates, repeat=d.n):
        F = Aggregator(chosen)
        if predicate(F, d) and is_aggregator(F, d, spec.tuple_cap):
            return _verify_find(F, d, extra=lambda G: predicate(G, d))
    return None


def _oracle_not_gendict(d: Domain, candidate_cap: int) -> Aggregator | None:
    """Binary tuples first; minority as the fallback for affine domains."""
    if len(d.members) < 3:
        return None
    if 4 ** d.n > candidate_cap:
        raise CapExceededError(f"4^{d.n} candidates exceed cap {candidate_cap}")
    candidates = _closed_candidates(d, 2, 4)
    columns = _columns(d.members_as_ints, d.n, 2)
    for digits in candidates:
        # the tuples whose image differs from the first, and from the second, member
        off_x = off_y = 0
        for column, g in zip(columns, digits):
            image = column[2 + g]
            off_x |= image ^ column[0]
            off_y |= image ^ column[1]
        if off_x & off_y:
            F = _candidate_aggregator(digits, BINARY_SET, 2)
            return _verify_find(F, d, extra=lambda G: not is_generalized_dictatorship(G, d))
    if is_affine(d):
        F = systematic(named_fn("xor3"), d.n)
        if is_aggregator(F, d) and not is_generalized_dictatorship(F, d):
            return F
    return None


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
    mode: str
    seed: int
    records: tuple[CensusRecord, ...]

    @property
    def mismatches(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if not r.match)

    def to_json(self) -> str:
        return json.dumps([r.to_json() for r in self.records], indent=None)


def oracle_verdicts(d: Domain, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> dict:
    binary = brute_binary(d, candidate_cap)
    affine = is_affine(d)
    lpd = brute_ternary_commutative(d, allow_xor=True, candidate_cap=candidate_cap)
    strongdem = brute_ternary_commutative(d, allow_xor=False, candidate_cap=candidate_cap)
    ngd = _oracle_not_gendict(d, candidate_cap)
    return {
        "possibility": binary is not None or affine,
        "local_possibility": lpd is not None,
        "anonymous": lpd is not None,
        "monotone_nondictatorial": binary is not None,
        "strongdem": strongdem is not None,
        "non_generalized_dictatorship": ngd is not None,
    }


def _domain_from_mask(mask: int, n: int) -> Domain:
    size = 1 << n
    members = [
        tuple((p >> (n - v)) & 1 for v in range(1, n + 1))
        for p in range(size)
        if mask >> p & 1
    ]
    return Domain(n, members)


def _eligible(d: Domain) -> bool:
    return len(d.members) >= 2 and degeneracy(d).non_degenerate


def census_domains(n: int, mode: str = "exhaustive", sample: int = 2000, seed: int = 0):
    """Non-degenerate domains with at least two members: all of them for
    n <= 4, or a seeded sample of distinct subsets.  A sample larger than
    the number of eligible domains raises ValueError."""
    size = 1 << n
    if mode == "exhaustive":
        if n > 4:
            raise CapExceededError("exhaustive census is limited to n <= 4")
        for mask in range(1, 1 << size):
            d = _domain_from_mask(mask, n)
            if _eligible(d):
                yield mask, d
    elif mode == "sample":
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
            d = _domain_from_mask(mask, n)
            if _eligible(d):
                produced += 1
                yield mask, d
    else:
        raise ValueError(f"unknown census mode {mode!r}")


def census(n: int, mode: str = "exhaustive", sample: int = 2000, seed: int = 0) -> CensusReport:
    records = []
    for mask, d in census_domains(n, mode=mode, sample=sample, seed=seed):
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
    return CensusReport(n, mode, seed, tuple(records))
