"""Constraint synthesis: from an explicit domain to an equivalent prime CNF
and, when the structure allows it, to a possibility or local possibility
integrity constraint.

The prime CNF is built by maxterm shrinking: every excluded assignment
contributes the clause falsified only by it, and its literals are greedily
deleted (ascending variable index) while every member still satisfies the
clause.  The shrinking runs for all assignments at once on masks with one
bit per assignment (`_shrunk_clauses`): O(n |D|) big-int operations per
window of assignments, windows sized so that the sweep holds about
`_SWEEP_BITS` bits, plus O(n) per distinct clause to read the clauses off.
Duplicates are dropped, and clauses that others make redundant are pruned
greedily, longest first, on 2^n-bit masks of the assignments they falsify.
Each kept clause is certified prime and the model set is machine-checked.
No O(|D| n) clause bound is promised, only correctness.

Each domain is analysed once: one prime CNF, its affineness, separable split
and renamable-partially-Horn witness (`_DomainAnalysis`), from which both the
possibility and the local possibility constraint are read.  Degenerate
domains take one path (`_free_part`): the policy is applied, the fixed
coordinates are split off, and results on the free coordinates are lifted
back with unit clauses.

Every formula handed out has its model set checked exactly once, where it is
built, as `satisfying_mask(f) == d.mask`: the prime CNF in its certificate,
the xor rewrite, the guarded-xor lpic candidate and the lifted result.  The
models cap is checked once per public entry, on the input's arity.

Formulas are written and read as clause arenas only: each is packed from
(or part, xor part) pairs of signed ints and read back as arena slices, and
clauses are named by their index, so synthesis builds no clause objects.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import isqrt
from operator import and_, or_

from .domain import Domain, degeneracy, is_affine, project
from .errors import (
    CapExceededError,
    DegenerateDomainError,
    EmptyDomainError,
    VerificationError,
)
from .formula import (
    DEFAULT_MODELS_CAP,
    Formula,
    _from_pairs,
    _pairs,
    _repeat,
    _variable_masks,
    satisfying_mask,
)
from .recognize import (
    LpicWitness,
    RPHWitness,
    SeparabilityWitness,
    _group_by_component,
    _separable_or_none,
    check_lpic,
    check_renamable_partially_horn,
    variable_components,
    verify_lpic,
)


@dataclass(frozen=True)
class PrimeFormula:
    formula: Formula
    prime_certified: bool


@dataclass(frozen=True)
class SynthesisResult:
    formula: Formula
    kind: str  # separable | renamable-partially-horn | affine | lpic
    witness: SeparabilityWitness | RPHWitness | LpicWitness | None
    fixed_coordinates: tuple[tuple[int, int], ...] = ()


def _require_members(d: Domain):
    if not d.members:
        raise EmptyDomainError("synthesis needs a non-empty domain")


def prime_cnf(d: Domain, cap: int = DEFAULT_MODELS_CAP) -> PrimeFormula:
    """Equivalent prime CNF of an explicit domain (OR clauses only)."""
    _require_members(d)
    n = d.n
    if n > cap:
        raise CapExceededError(f"prime CNF synthesis needs n <= {cap}, got n={n}")
    masks = _variable_masks(n)
    clauses = _shrunk_clauses(d.members_as_ints, n, masks)
    formula = _from_pairs(n, ((c, ()) for c in _prune_redundant(clauses, n, masks)))
    _check_prime_cnf(formula, d, masks)
    return PrimeFormula(formula, prime_certified=True)


# Bits of agree masks per sweep window: |D| masks of 2^w bits each, for the
# largest w <= n that fits.
_SWEEP_BITS = 1 << 26


def _shrunk_clauses(ints: tuple[int, ...], n: int, masks: list[int]) -> list[tuple[int, ...]]:
    """The shrunk clause of every non-member, without repeats, in order of
    first appearance (non-members ascending).

    Non-member p's clause keeps the literal on variable v (falsified by p)
    iff some member m differs from p at v, agrees with p after v, and agrees
    with p on every literal kept before v.  That is decided for all p at once
    on masks with one bit per assignment: kept[v] is the OR over the members
    m of agree[m] (the p that agree with m on the literals they kept so far)
    and-ed with the periodic mask of the p whose low bits are m's with bit v
    flipped.  The clauses are then read off lowest p first, and each one
    clears every p with the same kept literals.  The assignments are swept in
    aligned windows of 2^w positions so that the agree masks stay within
    _SWEEP_BITS.
    """
    w = max(0, min(n, (_SWEEP_BITS // len(ints)).bit_length() - 1))
    size = 1 << w
    full = (1 << size) - 1
    nbytes = (size + 7) >> 3
    # ones[b]: the window positions whose bit b is 1, for b < w
    ones = (masks if w == n else _variable_masks(w))[::-1]
    # every[b]: one bit every 2^(b+1) window positions, from position 0
    every = [_repeat(1, 2 << b, size) for b in range(w)]
    clauses: dict[tuple[int, ...], None] = {}
    for base in range(0, 1 << n, size):
        agree = [full] * len(ints)
        # kept[v]: its mask as bytes (for bit tests), the kept p with bit 0
        # at v, those with bit 1 at v, and the p that drop v
        kept = []
        for b in range(n - 1, -1, -1):  # bit b of a position is variable n - b
            half = 1 << b
            low = (half << 1) - 1
            if b < w:
                pattern = every[b]
                mask = reduce(or_, ((pattern << ((m ^ half) & low)) & a for m, a in zip(ints, agree)), 0)
                one = ones[b]
            else:  # bit b is constant on the window: each m marks at most one p
                offset = base & low
                mask = 0
                for m, a in zip(ints, agree):
                    j = ((m ^ half) & low) - offset
                    if 0 <= j < size:
                        mask |= a & (1 << j)
                one = full if base & half else 0
            kept_one = mask & one
            kept_zero = mask ^ kept_one
            kept.append((mask.to_bytes(nbytes, "little"), kept_zero, kept_one, full ^ mask))
            if b:
                # a member stops agreeing with the p that keep v and differ from it at v
                unless_one, unless_zero = full ^ kept_zero, full ^ kept_one
                for i, m in enumerate(ints):
                    agree[i] &= unless_one if m & half else unless_zero
        del agree
        left = full ^ sum(1 << (m - base) for m in ints[bisect_left(ints, base):bisect_left(ints, base + size)])
        while left:
            j = (left & -left).bit_length() - 1
            p = base + j
            same = left  # the p' left whose clause equals p's
            clause = []
            for v, (bits, kept_zero, kept_one, not_kept) in enumerate(kept):
                if (bits[j >> 3] >> (j & 7)) & 1:
                    if (p >> (n - 1 - v)) & 1:
                        clause.append(-(v + 1))
                        same &= kept_one
                    else:
                        clause.append(v + 1)
                        same &= kept_zero
                else:
                    same &= not_kept
            clauses.setdefault(tuple(clause))
            left ^= same
    return list(clauses)


def _prune_redundant(clauses, n: int, ones: list[int]) -> list[tuple[int, ...]]:
    """Drop clauses whose removal keeps the model set, longest first.

    A clause goes when every assignment it falsifies (a 2^n-bit mask) is
    falsified by a clause kept before it or by one still to come.  The
    unions of the clauses still to come are stored only at block starts,
    and rebuilt inside one block at a time, so about 3 sqrt(k) masks are
    alive for k clauses rather than k.
    """
    full = (1 << (1 << n)) - 1

    def falsified(clause):
        return reduce(and_, (ones[-l - 1] if l < 0 else ones[l - 1] ^ full for l in clause), full)

    order = sorted(clauses, key=lambda c: (-len(c), c))
    step = isqrt(len(order)) + 1
    blocks = [order[i:i + step] for i in range(0, len(order), step)]
    after = [0] * (len(blocks) + 1)  # after[j]: union over blocks j, j+1, ...
    for j in range(len(blocks) - 1, -1, -1):
        after[j] = reduce(or_, map(falsified, blocks[j]), after[j + 1])
    kept = 0
    removed = set()
    for j, block in enumerate(blocks):
        masks = [falsified(c) for c in block]
        # later[-1 - i]: the union over everything after block[i]
        later = list(accumulate(reversed(masks[1:]), or_, initial=after[j + 1]))
        for c, mask, rest in zip(block, masks, reversed(later)):
            if mask & ~(kept | rest):
                kept |= mask
            else:
                removed.add(c)
    return [c for c in clauses if c not in removed]


def _check_prime_cnf(formula: Formula, d: Domain, masks: list[int] | None = None):
    ints = d.members_as_ints
    for or_part, _xor_part in _pairs(formula):
        signed = or_part.tolist()
        variables = sum(1 << (d.n - abs(l)) for l in signed)
        neg = sum(1 << (d.n + l) for l in signed if l < 0)
        # each member's satisfied literals, as bits of the packed layout
        sat = [(m ^ neg) & variables for m in ints]
        if not all(sat):
            raise VerificationError(f"clause {signed} excludes a member")
        # prime: every literal is, for some member, the only satisfied one
        if reduce(or_, (s for s in sat if not s & (s - 1)), 0) != variables:
            raise VerificationError(f"clause {signed} is not prime")
    if satisfying_mask(formula, masks) != d.mask:
        raise VerificationError("synthesized formula admits a non-member")


def affine_formula(d: Domain, cap: int = DEFAULT_MODELS_CAP) -> Formula | None:
    """All-XOR formula with model set d, or None when d is not affine.

    Each prime clause is rewritten as the exclusive-or of its literals; for a
    prime formula of an affine domain this preserves the model set, which is
    machine-checked anyway.
    """
    _require_members(d)
    if not is_affine(d):
        return None
    return _xor_rewrite(d, prime_cnf(d, cap=cap).formula)


def _xor_rewrite(d: Domain, prime: Formula) -> Formula:
    # each prime (OR) clause becomes the xor of its literals; two xor clauses
    # have the same models iff they share the variable set and the parity of
    # their negative literals, and the first of them is kept
    xor_parts = {}
    for or_part, _xor_part in _pairs(prime):
        key = (frozenset(map(abs, or_part)), sum(l < 0 for l in or_part) & 1)
        xor_parts.setdefault(key, or_part)
    formula = _from_pairs(d.n, (((), part) for part in xor_parts.values()))
    if satisfying_mask(formula) != d.mask:
        raise VerificationError("affine rewrite changed the model set")
    return formula


@dataclass(frozen=True)
class _DomainAnalysis:
    """The artifacts every constraint on a non-degenerate domain is read from."""

    prime: Formula
    affine: bool
    separable: SeparabilityWitness | None
    rph: RPHWitness | None


def _analyse(d: Domain, cap: int) -> _DomainAnalysis:
    prime = prime_cnf(d, cap=cap).formula
    return _DomainAnalysis(
        prime, is_affine(d), _separable_or_none(prime), check_renamable_partially_horn(prime)
    )


def _free_part(d: Domain, policy: str, cap: int):
    """The one path for degenerate domains: apply the policy, split off the
    fixed coordinates, and lift results back.

    Returns (fixed, core, lift): the fixed coordinates with their bits (empty
    when d is non-degenerate); the domain to analyse, which is d itself, its
    projection onto the free coordinates, or None when every coordinate is
    fixed; and the map taking a SynthesisResult on the core back to d.  A
    degenerate d raises DegenerateDomainError under the strict policy; the
    permissive policy proceeds, and any other policy is a ValueError.  The
    lift checks a model set of the full arity, so a degenerate d with
    n > cap raises CapExceededError whatever the core holds.
    """
    if policy not in ("strict", "permissive"):
        raise ValueError(f"unknown policy {policy!r}; use 'strict' or 'permissive'")
    fixed = dict(degeneracy(d).fixed_coordinates)
    if not fixed:
        return fixed, d, lambda result: result
    if policy == "strict":
        where = ", ".join(f"x{j}={b}" for j, b in sorted(fixed.items()))
        raise DegenerateDomainError(f"domain is degenerate ({where}); use the permissive policy to proceed")
    if d.n > cap:
        raise CapExceededError(f"model enumeration needs n <= {cap}, got n={d.n}")
    free = [v for v in range(1, d.n + 1) if v not in fixed]
    core = project(d, free) if free else None
    return fixed, core, lambda result: _lift_result(result, d, fixed, free)


def _lift_result(result: SynthesisResult | None, d: Domain, fixed, free) -> SynthesisResult | None:
    """Re-embed a reduced-domain synthesis into the full arity.

    Fixed coordinates come back as unit clauses (xor units when the class is
    affine, so the formula stays all-xor); witness variable sets are mapped
    through the free-coordinate positions, with the fixed coordinates joining
    the part that tolerates them (admissible set, or the first factor).
    """
    if result is None:
        return None
    signed = [v if bit else -v for v, bit in sorted(fixed.items())]
    units = [((), (l,)) if result.kind == "affine" else ((l,), ()) for l in signed]

    def lift_vars(variables):
        return frozenset(free[v - 1] for v in variables)

    def lift_part(part):
        return [free[l - 1] if l > 0 else -free[-l - 1] for l in part]

    lifted = [(lift_part(o), lift_part(x)) for o, x in _pairs(result.formula)]
    fixed_vars = frozenset(fixed)
    witness = result.witness
    if isinstance(witness, SeparabilityWitness):
        witness = SeparabilityWitness(lift_vars(witness.part1) | fixed_vars, lift_vars(witness.part2))
    elif isinstance(witness, RPHWitness):
        witness = RPHWitness(lift_vars(witness.renamed), lift_vars(witness.admissible) | fixed_vars)
    elif isinstance(witness, LpicWitness):
        witness = LpicWitness(
            lift_vars(witness.renamed),
            lift_vars(witness.v0) | fixed_vars,
            lift_vars(witness.v1),
            lift_vars(witness.v2),
        )
    formula = _from_pairs(d.n, units + lifted)
    if satisfying_mask(formula) != d.mask:
        raise VerificationError("permissive re-embedding changed the model set")
    return SynthesisResult(
        formula,
        result.kind,
        witness,
        fixed_coordinates=tuple(sorted(fixed.items())),
    )


def pic_for(d: Domain, policy: str = "strict", cap: int = DEFAULT_MODELS_CAP) -> SynthesisResult | None:
    """Possibility integrity constraint describing d, or None.

    Affine domains get the XOR rewrite; otherwise the prime CNF is returned
    when it is separable or renamable partially Horn.  Primality makes those
    two checks complete, so a reject here means no such constraint exists.

    Under the permissive policy a degenerate domain is synthesized on its
    free coordinates; the class and witness then describe that projection,
    with unit clauses re-imposing the fixed coordinates (model set is still
    machine-checked against the full input).
    """
    _require_members(d)
    _fixed, core, lift = _free_part(d, policy, cap)
    if core is None:  # nothing free: the unit clauses alone, renaming nothing
        return lift(SynthesisResult(Formula(d.n), "renamable-partially-horn", RPHWitness(frozenset(), frozenset())))
    return lift(_pic_from(core, _analyse(core, cap)))


def _pic_from(d: Domain, a: _DomainAnalysis) -> SynthesisResult | None:
    if a.affine:
        return SynthesisResult(_xor_rewrite(d, a.prime), "affine", None)
    if a.separable is not None:
        return SynthesisResult(a.prime, "separable", a.separable)
    if a.rph is not None:
        return SynthesisResult(a.prime, "renamable-partially-horn", a.rph)
    return None


def lpic_for(d: Domain, policy: str = "strict", cap: int = DEFAULT_MODELS_CAP) -> SynthesisResult | None:
    result, _reason = lpic_analysis(d, policy=policy, cap=cap)
    return result


def lpic_analysis(
    d: Domain, policy: str = "strict", cap: int = DEFAULT_MODELS_CAP
) -> tuple[SynthesisResult | None, str]:
    """Local possibility integrity constraint for d, plus a reject reason.

    The prime CNF is split along the maximal admissible set V0; the clause
    tails outside V0 fall apart into connected components, each of which must
    be bijunctive (tails of at most two literals) or affine (tail models
    closed under ternary xor; those clauses are rewritten with an xor tail
    behind the V0 guard).  The rewritten formula must reproduce the model
    set exactly: the guarded xor rewrite is not always model-preserving, and
    a mismatch is a genuine reject, not an error.
    """
    _require_members(d)
    _fixed, core, lift = _free_part(d, policy, cap)
    if core is None:  # nothing free: the unit clauses alone, all of them in V0
        empty = frozenset()
        return lift(SynthesisResult(Formula(d.n), "lpic", LpicWitness(empty, empty, empty, empty))), "accepted"
    result, reason = _lpic_from(core, _analyse(core, cap))
    return lift(result), reason


def _lpic_from(d: Domain, a: _DomainAnalysis) -> tuple[SynthesisResult | None, str]:
    prime, rph = a.prime, a.rph
    occurring = prime.occurring_variables()
    admissible = rph.admissible if rph is not None else frozenset()
    v0 = frozenset(admissible & occurring)
    renamed = frozenset(rph.renamed & v0) if rph is not None else frozenset()

    if occurring <= admissible:  # the prime CNF itself, certified by prime_cnf
        witness = LpicWitness(renamed, frozenset(occurring), frozenset(), frozenset())
        return _verified(prime, witness), "accepted"

    # the prime CNF's clauses are OR clauses: only their or parts matter;
    # tails[i] is clause i's literals outside V0, for the clauses with any
    clauses = [or_part for or_part, _xor_part in _pairs(prime)]
    tails = {}
    for i, c in enumerate(clauses):
        tail = [l for l in c if abs(l) not in v0]
        if tail:
            tails[i] = tail
    rest = sorted(occurring - v0)
    components = variable_components(([abs(l) for l in tail] for tail in tails.values()), rest)

    v1: set[int] = set()
    v2: set[int] = set()
    rewrite: set[int] = set()
    keyed = ((abs(tail[0]), i) for i, tail in tails.items())
    for comp, comp_clauses in zip(components, _group_by_component(components, keyed)):
        if all(len(tails[i]) <= 2 for i in comp_clauses):
            v1 |= comp
            continue
        if _tail_models_affine(comp, [tails[i] for i in comp_clauses]):
            v2 |= comp
            rewrite.update(comp_clauses)
        else:
            return None, "component neither bijunctive nor affine"

    # a rewritten clause keeps its V0 literals as the or part (the guard)
    # and takes its tail as the xor part, so it is an xor clause when
    # unguarded and a generalized clause otherwise
    candidate = _from_pairs(d.n, (
        ([l for l in c if abs(l) in v0], tails[i]) if i in rewrite else (c, ())
        for i, c in enumerate(clauses)
    ))
    witness = LpicWitness(renamed, v0, frozenset(v1), frozenset(v2))

    if satisfying_mask(candidate) != d.mask:
        # The xor rewrite is only sound when every guard-activated subset of
        # the tails stays equivalent; when it is not, no lpic exists on this
        # route and the exhaustive census backs the reject up.
        return None, "xor rewrite not model-preserving"
    return _verified(candidate, witness), "accepted"


def _tail_models_affine(comp, comp_tails) -> bool:
    order = sorted(comp)
    position = {v: i + 1 for i, v in enumerate(order)}
    sub = _from_pairs(len(order), (
        ([position[l] if l > 0 else -position[-l] for l in tail], ()) for tail in comp_tails
    ))
    tail_models = Domain.from_mask(len(order), satisfying_mask(sub))
    # an empty model set is the model set of a contradictory pair of xor
    # clauses, so it counts as affine; the rewrite is model-checked anyway
    return not tail_models.members or is_affine(tail_models)


def _verified(formula: Formula, witness: LpicWitness) -> SynthesisResult:
    """The lpic result for a formula whose model set has already been checked
    against the domain: re-verify the witness and the recognizer."""
    if not verify_lpic(formula, set(witness.renamed), set(witness.v0), set(witness.v1), set(witness.v2)):
        raise VerificationError("lpic witness failed re-verification")
    if check_lpic(formula) is None:
        raise VerificationError("lpic recognizer rejects the synthesized formula")
    return SynthesisResult(formula, "lpic", witness)
