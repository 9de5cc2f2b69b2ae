"""Aggregators (issue-wise tuples of unanimous Boolean functions), their
property predicates, combinators, and theorem-backed domain classification.

Classification builds every witness from a syntactic witness produced by the
synthesis pipeline, never by search; the brute-force search lives in the
oracle module and is used only for cross-validation.  Each witness goes
through the closure kernel once, where it is built, and every positive
verdict then checks its own property predicate on it.  The systematic
family (closure under and, or, maj, xor3) is read off the syntactic class of
the certified prime CNF and off affineness, with no closure check.  All
verdicts of a domain are read from one analysis (one prime CNF), and a
degenerate domain goes through the synthesis module's one degenerate-domain
path: classified on its free coordinates, then lifted back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .boolfn import (
    BoolFn,
    fn_name,
    is_1_immune,
    is_anonymous as fn_anonymous,
    is_monotone as fn_monotone,
    is_projection,
    is_unanimous,
    named_fn,
    pr,
)
from .domain import (
    DEFAULT_TUPLE_CAP,
    Domain,
    escaping_tuple,
    rename_domain,
)
from .errors import DegenerateDomainError, EmptyDomainError, ParseError, VerificationError, _content_lines, _decimals
from .formula import DEFAULT_MODELS_CAP
from .recognize import LpicWitness, RPHWitness, SeparabilityWitness, check_syntactic_class
from .synthesize import SynthesisResult, _analyse, _free_part, _lpic_from, _pic_from
from .synthesize import prime_cnf  # noqa: F401  bench/tests/test_bench.py traces it at this binding


@dataclass(frozen=True)
class Aggregator:
    components: tuple[BoolFn, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("an aggregator needs at least one component")
        arities = {f.arity for f in self.components}
        if len(arities) != 1:
            raise ValueError(f"components must share one arity, got {sorted(arities)}")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def k(self) -> int:
        return self.components[0].arity

    def describe(self) -> tuple[str, ...]:
        names = {f: fn_name(f) or "t " + "".join(map(str, f.table)) for f in set(self.components)}
        return tuple(names[f] for f in self.components)

    def __repr__(self):
        return "Aggregator(" + ", ".join(self.describe()) + ")"


def systematic(f: BoolFn, n: int) -> Aggregator:
    return Aggregator((f,) * n)


def apply(F: Aggregator, rows) -> tuple[int, ...]:
    """Componentwise column application of F to k member rows."""
    rows = [tuple(r) for r in rows]
    if len(rows) != F.k:
        raise ValueError(f"expected {F.k} rows, got {len(rows)}")
    if any(len(r) != F.n for r in rows):
        raise ValueError("row length does not match the aggregator")
    out = []
    for j, f in enumerate(F.components):
        idx = 0
        for row in rows:
            idx = (idx << 1) | row[j]
        out.append(f.table[idx])
    return tuple(out)


def aggregator_counterexample(F: Aggregator, d: Domain, tuple_cap: int = DEFAULT_TUPLE_CAP):
    """None when F maps every member tuple into d, else the offending rows."""
    if any(not is_unanimous(f) for f in F.components):
        raise ValueError("all components must be unanimous")
    if F.n != d.n:
        raise ValueError(f"aggregator has {F.n} components, domain arity is {d.n}")
    return escaping_tuple(d, [f.table for f in F.components], tuple_cap)


def is_aggregator(F: Aggregator, d: Domain, tuple_cap: int = DEFAULT_TUPLE_CAP) -> bool:
    return aggregator_counterexample(F, d, tuple_cap) is None


def generalized_dictatorship_counterexample(
    F: Aggregator, d: Domain, tuple_cap: int = DEFAULT_TUPLE_CAP
):
    """Member rows whose image is none of them, or None when F always
    returns one of its inputs (on the domain only)."""
    if F.n != d.n:
        raise ValueError(f"aggregator has {F.n} components, domain arity is {d.n}")
    return escaping_tuple(d, [f.table for f in F.components], tuple_cap, own_rows=True)


def is_generalized_dictatorship(F: Aggregator, d: Domain, tuple_cap: int = DEFAULT_TUPLE_CAP) -> bool:
    return generalized_dictatorship_counterexample(F, d, tuple_cap) is None


# ---------------------------------------------------------------------------
# aggregator-level predicates
# ---------------------------------------------------------------------------


def is_dictatorial(F: Aggregator) -> bool:
    return any(all(f == pr(d, F.k) for f in F.components) for d in range(1, F.k + 1))


def is_projection_aggregator(F: Aggregator) -> bool:
    return all(is_projection(f) for f in F.components)


def is_systematic(F: Aggregator) -> bool:
    return len(set(F.components)) == 1


def is_anonymous(F: Aggregator) -> bool:
    return all(fn_anonymous(f) for f in F.components)


def is_monotone(F: Aggregator) -> bool:
    return all(fn_monotone(f) for f in F.components)


def is_strongdem(F: Aggregator) -> bool:
    return all(is_1_immune(f) for f in F.components)


def is_locally_nondictatorial(F: Aggregator) -> bool:
    return all(not is_projection(f) for f in F.components)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def superpose(F: Aggregator, inner: list[Aggregator]) -> Aggregator:
    """h_j(x) = f_j(g^1_j(x), ..., g^k_j(x)); aggregators are closed under it."""
    if len(inner) != F.k:
        raise ValueError(f"need {F.k} inner aggregators, got {len(inner)}")
    if any(G.n != F.n for G in inner):
        raise ValueError("inner aggregators must have the same number of components")
    arities = {G.k for G in inner}
    if len(arities) != 1:
        raise ValueError("inner aggregators must share one arity")
    l = arities.pop()
    components = []
    for j in range(F.n):
        table = []
        for bits in product((0, 1), repeat=l):
            table.append(F.components[j](*(G.components[j](*bits) for G in inner)))
        components.append(BoolFn(l, tuple(table)))
    return Aggregator(tuple(components))


def diamond(F: Aggregator, G: Aggregator) -> Aggregator:
    """e_j(x,y,z) = f_j(g_j(x,y,z), g_j(y,z,x), g_j(z,x,y))."""
    _require_ternary(F, G)
    components = []
    for f, g in zip(F.components, G.components):
        table = [
            f(g(x, y, z), g(y, z, x), g(z, x, y))
            for x, y, z in product((0, 1), repeat=3)
        ]
        components.append(BoolFn(3, tuple(table)))
    return Aggregator(tuple(components))


def star(F: Aggregator, G: Aggregator) -> Aggregator:
    """h_j(x,y,z) = f_j(f_j(x,y,z), f_j(x,y,z), g_j(x,y,z))."""
    _require_ternary(F, G)
    components = []
    for f, g in zip(F.components, G.components):
        table = []
        for x, y, z in product((0, 1), repeat=3):
            fv = f(x, y, z)
            table.append(f(fv, fv, g(x, y, z)))
        components.append(BoolFn(3, tuple(table)))
    return Aggregator(tuple(components))


def _require_ternary(F: Aggregator, G: Aggregator):
    if F.k != 3 or G.k != 3:
        raise ValueError("both aggregators must be ternary")
    if F.n != G.n:
        raise ValueError("component counts differ")


# ---------------------------------------------------------------------------
# aggregator files: `a <n> <k>` then one component per line
# ---------------------------------------------------------------------------


def parse_aggregator(text: str) -> Aggregator:
    header = None
    components: list[BoolFn] = []
    for lineno, _line, parts in _content_lines(text):
        if header is None:
            if parts[0] != "a" or len(parts) != 3:
                raise ParseError("expected header 'a <n> <k>'", lineno, 1)
            try:
                header = tuple(_decimals(parts[1:]))
            except ValueError:
                raise ParseError("bad aggregator header", lineno, 1) from None
            if min(header) < 1:
                raise ParseError("aggregator header needs n >= 1 and k >= 1", lineno, 1)
            # the minterm masks of a check cost n 2^k whatever the domain;
            # a huge k fails the first test before any 2^k is built
            n, k = header
            if k >= DEFAULT_TUPLE_CAP.bit_length() or n << k > DEFAULT_TUPLE_CAP:
                raise ParseError(f"aggregator header needs n * 2^k <= {DEFAULT_TUPLE_CAP}", lineno, 1)
            continue
        n, k = header
        if parts[0] == "t":
            if len(parts) != 2 or len(parts[1]) != (1 << k) or set(parts[1]) - {"0", "1"}:
                raise ParseError(f"expected 't <{1 << k} bits>'", lineno, 1)
            components.append(BoolFn(k, tuple(int(ch) for ch in parts[1])))
        elif len(parts) == 1:
            try:
                components.append(named_fn(parts[0], k))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, 1) from None
        else:
            raise ParseError("expected a named function or 't <bits>'", lineno, 1)
    if header is None:
        raise ParseError("missing 'a <n> <k>' header")
    n, k = header
    if len(components) != n:
        raise ParseError(f"header declares {n} components, got {len(components)}")
    return Aggregator(tuple(components))


def render_aggregator(F: Aggregator) -> str:
    lines = [f"a {F.n} {F.k}"]
    lines.extend(F.describe())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# domain classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Aggregator | None = None
    method: str = ""


VERDICTS = (
    "possibility",
    "local_possibility",
    "anonymous",
    "monotone_nondictatorial",
    "strongdem",
    "non_generalized_dictatorship",
)


@dataclass(frozen=True)
class DomainClassification:
    size: int
    degenerate_coordinates: tuple[tuple[int, int], ...]
    possibility: Verdict
    local_possibility: Verdict
    anonymous: Verdict
    monotone_nondictatorial: Verdict
    strongdem: Verdict
    non_generalized_dictatorship: Verdict
    systematic_family: tuple[str, ...]
    pic: SynthesisResult | None
    lpic: SynthesisResult | None

    def verdicts(self) -> dict[str, bool]:
        return {name: getattr(self, name).holds for name in VERDICTS}


def _components_by_sets(n: int, assignment: dict[str, set[int]], default: str, arity: int) -> Aggregator:
    names = {}
    for name, variables in assignment.items():
        for v in variables:
            names[v] = name
    fns = {name: named_fn(name, arity) for name in {default, *assignment}}
    return Aggregator(tuple(fns[names.get(v, default)] for v in range(1, n + 1)))


def _binary_from_rph(n: int, witness: RPHWitness) -> Aggregator:
    # renamed coordinates swap and/or (model-level renaming argument)
    return _components_by_sets(
        n,
        {"or": set(witness.renamed), "and": set(witness.admissible - witness.renamed)},
        "pr1",
        2,
    )


def _binary_from_separable(n: int, witness: SeparabilityWitness) -> Aggregator:
    return _components_by_sets(n, {"pr2": set(witness.part2)}, "pr1", 2)


def _ternary_from_lpic(n: int, witness: LpicWitness) -> Aggregator:
    return _components_by_sets(
        n,
        {
            "or3": set(witness.renamed),
            "and3": set(witness.v0 - witness.renamed),
            "xor3": set(witness.v2),
        },
        "maj",
        3,
    )


def _witness_check(d: Domain, tuple_cap: int):
    """check(F, label) -> F, raising VerificationError unless F is an
    aggregator for d; each distinct witness goes through the kernel once."""
    checked: set[Aggregator] = set()

    def check(F: Aggregator, label: str) -> Aggregator:
        if F not in checked:
            if not is_aggregator(F, d, tuple_cap):
                raise VerificationError(f"{label} witness is not an aggregator: {F}")
            checked.add(F)
        return F

    return check


def _verdict(F: Aggregator, predicate, label: str, method: str) -> Verdict:
    """A positive verdict on a witness that the kernel already accepted."""
    if not predicate(F):
        raise VerificationError(f"{label} witness fails its property: {F}")
    return Verdict(True, F, method)


def classify_domain(
    d: Domain,
    policy: str = "strict",
    cap: int = DEFAULT_MODELS_CAP,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> DomainClassification:
    """Theorem-path classification with verified witnesses.

    Under the permissive policy a degenerate domain is classified through its
    projection onto the free coordinates; witnesses are extended back with
    `and`-type components on the fixed coordinates.  `tuple_cap` bounds only
    the kernel checks on the witnesses.
    """
    if not d.members:
        raise EmptyDomainError("cannot classify an empty domain")
    fixed, core, lift = _free_part(d, policy, cap)
    if core is None:
        raise DegenerateDomainError("every coordinate is fixed; nothing to classify")
    inner = _classify(core, cap, tuple_cap)
    return _lift_classification(inner, d, fixed, lift, tuple_cap) if fixed else inner


def _classify(d: Domain, cap: int, tuple_cap: int) -> DomainClassification:
    a = _analyse(d, cap)
    pic_result = _pic_from(d, a)
    lpic_result, lpic_reason = _lpic_from(d, a)
    n = d.n
    # every witness is checked where it is built, in the order the verdicts read them
    check = _witness_check(d, tuple_cap)
    minority = check(systematic(named_fn("xor3"), n), "affine minority") if a.affine else None
    # the binary witness of the separable split or, failing that, of the RPH witness
    if a.separable is not None:
        binary = check(_binary_from_separable(n, a.separable), "binary")
    elif a.rph is not None:
        binary = check(_binary_from_rph(n, a.rph), "binary")
    else:
        binary = None

    if pic_result is None:
        possibility = Verdict(False, None, "synthesis-reject")
    else:
        base = minority if a.affine else binary
        possibility = _verdict(base, lambda F: not is_dictatorial(F), "possibility", f"pic-{pic_result.kind}")

    # local possibility via the lpic construction
    if lpic_result is not None:
        lw = lpic_result.witness
        ternary = check(_ternary_from_lpic(n, lw), "lpic")
        local_possibility = _verdict(ternary, is_locally_nondictatorial, "local-possibility", "lpic")
        anonymous = _verdict(ternary, is_anonymous, "anonymous", "lpic")
        if not lw.v2:
            strongdem = _verdict(ternary, is_strongdem, "strongdem", "xor-free-lpic")
        else:
            strongdem = Verdict(False, None, "lpic-needs-xor-part")
    else:
        local_possibility = anonymous = strongdem = Verdict(False, None, f"lpic-reject: {lpic_reason}")

    # monotone non-dictatorial: separable or renamable partially Horn
    if binary is not None:
        monotone = _verdict(
            binary, lambda F: is_monotone(F) and not is_dictatorial(F), "monotone", "separable-or-rph"
        )
    else:
        monotone = Verdict(False, None, "no-separable-or-rph-constraint")

    # Closure under and, or and maj is Horn, dual Horn and bijunctive: every
    # prime implicate of such a function is of that form, so the certified
    # prime CNF shows it clause by clause, with no closure check.
    syntactic = check_syntactic_class(a.prime)
    closed = (syntactic.horn, syntactic.dual_horn, syntactic.bijunctive, a.affine)
    return DomainClassification(
        size=len(d.members),
        degenerate_coordinates=(),
        possibility=possibility,
        local_possibility=local_possibility,
        anonymous=anonymous,
        monotone_nondictatorial=monotone,
        strongdem=strongdem,
        non_generalized_dictatorship=_classify_non_generalized_dictatorship(
            d, a, binary, minority, possibility, check, tuple_cap
        ),
        systematic_family=tuple(name for name, c in zip(("and", "or", "maj", "xor3"), closed) if c),
        pic=pic_result,
        lpic=lpic_result,
    )


def _classify_non_generalized_dictatorship(d: Domain, a, binary, minority, possibility, check, tuple_cap) -> Verdict:
    if len(d.members) < 3:
        return Verdict(False, None, "two-element-domain")
    if not possibility.holds:
        return Verdict(False, None, "impossibility")
    n = d.n
    not_gendict = lambda F: not is_generalized_dictatorship(F, d, tuple_cap)
    label = "non-generalized-dictatorship"

    if a.affine:
        return _verdict(minority, not_gendict, label, "affine-minority")
    if a.separable is not None or len(a.rph.admissible) < n:
        # a separable split, or a projection component: never a generalized dictatorship
        return _verdict(binary, not_gendict, label, "non-symmetric-binary")
    if not is_generalized_dictatorship(binary, d, tuple_cap):
        return Verdict(True, binary, "symmetric-binary")
    # All-symmetric witness that is a generalized dictatorship: complement the
    # or-coordinates, where the witness becomes all-and and the members form a
    # chain under bitwise dominance; joining everything below the top member
    # with or, and the top-only coordinates with and, yields the second-best
    # member on mixed inputs, which is never one of them.  Back on d, and and
    # or swap on the renamed coordinates.
    renamed = a.rph.renamed
    star_domain = rename_domain(d, renamed)
    members = sorted(star_domain.members, key=lambda row: (sum(row), row))
    for low, high in zip(members, members[1:]):
        if any(a > b for a, b in zip(low, high)):
            raise VerificationError("dominance order is not total on the complemented domain")
    top, second = members[-1], members[-2]
    only_top = {j + 1 for j in range(n) if top[j] == 1 and second[j] == 0}
    F = _components_by_sets(n, {"and": only_top ^ renamed}, "or", 2)
    return _verdict(check(F, "total-order"), not_gendict, label, "total-order-construction")


def _lift_classification(inner: DomainClassification, d: Domain, fixed, lift, tuple_cap) -> DomainClassification:
    """Extend a classification of the free coordinates back to d: witnesses
    get `and`-type components on the fixed coordinates, constraints their
    unit clauses.  Verdicts that share an inner witness share its extension,
    which is checked once."""
    check = _witness_check(d, tuple_cap)

    def lift_verdict(verdict: Verdict) -> Verdict:
        if verdict.witness is None:
            return verdict
        fill = named_fn("and" if verdict.witness.k == 2 else "and3")
        components = iter(verdict.witness.components)
        F = Aggregator(tuple(fill if v in fixed else next(components) for v in range(1, d.n + 1)))
        return Verdict(verdict.holds, check(F, "permissive extension"), verdict.method + "+fixed-coordinates")

    return replace(
        inner,
        size=len(d.members),
        degenerate_coordinates=tuple(sorted(fixed.items())),
        pic=lift(inner.pic),
        lpic=lift(inner.lpic),
        **{name: lift_verdict(getattr(inner, name)) for name in VERDICTS},
    )
