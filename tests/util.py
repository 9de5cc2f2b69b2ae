"""Independent oracles used to freeze expected values.

These deliberately re-derive semantics from scratch (plain loops over
assignments and tuples) so the library's packed-int and bitmask paths are
checked against something that shares no code with them.
"""

import re
from itertools import combinations_with_replacement, islice, product

from aggdom.errors import ParseError, _content_lines
from aggdom.formula import Clause, ClauseKind, Formula


def clause_true(clause, assignment):
    or_true = False
    for lit in clause.or_part:
        value = assignment[abs(lit) - 1]
        if (value == 1) == (lit > 0):
            or_true = True
    odd = 0
    for lit in clause.xor_part:
        value = assignment[abs(lit) - 1]
        if (value == 1) == (lit > 0):
            odd ^= 1
    if clause.kind is ClauseKind.OR:
        return or_true
    if clause.kind is ClauseKind.XOR:
        return odd == 1
    return or_true or odd == 1


def brute_models(formula):
    found = []
    for assignment in product((0, 1), repeat=formula.n):
        if all(clause_true(clause, assignment) for clause in formula.clauses):
            found.append(assignment)
    return found


def brute_closed(members, fn):
    """Plain closure loop, independent of Domain/is_closed_under."""
    members = list(members)
    member_set = set(members)
    n = len(members[0])
    for rows in product(members, repeat=fn.arity):
        image = tuple(fn(*(row[j] for row in rows)) for j in range(n))
        if image not in member_set:
            return False
    return True


def _basis_candidates(n, nsets):
    """(digits, masks) for every candidate, digits in the order of
    ``product(range(nsets), repeat=n)``; masks[g] holds the coordinates whose
    component is function g (four masks, unused ones 0)."""
    full = (1 << n) - 1
    fields = [[(1 << (n - 1 - j)) << (g * n) for g in range(nsets)] for j in range(n)]
    for digits, packed in zip(product(range(nsets), repeat=n), map(sum, product(*fields))):
        yield digits, (packed & full, packed >> n & full, packed >> 2 * n & full, packed >> 3 * n)


def binary_basis(ints):
    """(x&y, x|y, x, y) for every ordered pair of distinct members: the images
    of and, or, pr1 and pr2."""
    return [(x & y, x | y, x, y) for x in ints for y in ints if x != y]


def ternary_basis(ints):
    """Distinct (and3, or3, maj, xor3) images over sorted member triples that
    are not all equal; the four functions are symmetric."""
    images = (
        (a & b & c, a | b | c, (a & b) | (b & c) | (a & c), a ^ b ^ c)
        for a, b, c in combinations_with_replacement(ints, 3)
        if not a == b == c
    )
    return list(dict.fromkeys(images))


def basis_closed(basis, masks, member_set):
    m0, m1, m2, m3 = masks
    return all((v0 & m0) | (v1 & m1) | (v2 & m2) | (v3 & m3) in member_set for v0, v1, v2, v3 in basis)


def basis_closed_candidates(d, k, nsets):
    """Digits of every closed candidate over the first nsets functions of the
    arity-k oracle set, in product order: every candidate is tested against
    the domain's basis list, nothing is pruned."""
    ints = d.members_as_ints
    basis = binary_basis(ints) if k == 2 else ternary_basis(ints)
    member_set = frozenset(ints)
    for digits, masks in _basis_candidates(d.n, nsets):
        if basis_closed(basis, masks, member_set):
            yield digits


def basis_searches(d):
    """What brute_binary, brute_ternary_commutative with and without xor3,
    and the non-generalized-dictatorship search returned when every
    candidate was tested against the domain's basis list."""
    from aggdom import Aggregator, is_aggregator, is_generalized_dictatorship, named_fn, systematic
    from aggdom.domain import is_affine
    from aggdom.oracle import BINARY_SET, TERNARY_SET

    def aggregator(digits, names, k):
        return None if digits is None else Aggregator(tuple(named_fn(names[g], k) for g in digits))

    ints = d.members_as_ints
    dictators = ((2,) * d.n, (3,) * d.n)
    binary = next((g for g in basis_closed_candidates(d, 2, 4) if g not in dictators), None)
    ternary = next(basis_closed_candidates(d, 3, 4), None)
    no_xor = next(basis_closed_candidates(d, 3, 3), None)
    not_gendict = None
    if len(ints) >= 3:
        basis = binary_basis(ints)
        member_set = frozenset(ints)
        for digits, masks in _basis_candidates(d.n, 4):
            m0, m1, m2, m3 = masks
            if basis_closed(basis, masks, member_set) and any(
                (v0 & m0) | (v1 & m1) | (v2 & m2) | (v3 & m3) not in (v2, v3)
                for v0, v1, v2, v3 in basis
            ):
                not_gendict = aggregator(digits, BINARY_SET, 2)
                break
        if not_gendict is None and is_affine(d):
            minority = systematic(named_fn("xor3"), d.n)
            if is_aggregator(minority, d) and not is_generalized_dictatorship(minority, d):
                not_gendict = minority
    return (
        aggregator(binary, BINARY_SET, 2),
        aggregator(ternary, TERNARY_SET, 3),
        aggregator(no_xor, TERNARY_SET, 3),
        not_gendict,
    )


def satisfies(row, literals):
    return any((row[abs(s) - 1] == 1) == (s > 0) for s in literals)


def is_prime_implicate(signed_literals, members):
    """All members satisfy the clause and no proper sub-clause is satisfied
    by all of them."""
    literals = list(signed_literals)
    if not all(satisfies(row, literals) for row in members):
        return False
    for drop in range(len(literals)):
        sub = literals[:drop] + literals[drop + 1 :]
        if sub and all(satisfies(row, sub) for row in members):
            return False
    return True


def reference_prime_cnf(members, n):
    """Prime CNF clauses, as signed-literal tuples, by maxterm shrinking.

    Every non-member, in ascending order with x1 as the most significant bit,
    gives the clause it alone falsifies; literals are dropped in ascending
    variable order while every member still satisfies the rest; repeated
    clauses are dropped; then, longest first (ties by the tuple), a clause is
    removed while every assignment it falsifies is falsified by another
    clause still present.
    """
    members = list(members)
    member_set = set(members)
    cube = list(product((0, 1), repeat=n))
    clauses = []
    for excluded in cube:
        if excluded in member_set:
            continue
        literals = [v if excluded[v - 1] == 0 else -v for v in range(1, n + 1)]
        clause = list(literals)
        for lit in literals:
            rest = [l for l in clause if l != lit]
            if all(satisfies(row, rest) for row in members):
                clause = rest
        if tuple(clause) not in clauses:
            clauses.append(tuple(clause))
    counts = {a: 0 for a in cube}
    for c in clauses:
        for a in cube:
            if not satisfies(a, c):
                counts[a] += 1
    removed = set()
    for c in sorted(clauses, key=lambda c: (-len(c), c)):
        falsified = [a for a in cube if not satisfies(a, c)]
        if all(counts[a] >= 2 for a in falsified):
            for a in falsified:
                counts[a] -= 1
            removed.add(c)
    return [c for c in clauses if c not in removed]


def reference_verify_lpic(f, renamed, v0, v1, v2):
    """The three local-possibility conditions, one plain test at a time."""
    from aggdom.formula import ClauseKind, rename
    from aggdom.recognize import verify_partially_horn

    occurring = f.occurring_variables()
    if v0 | v1 | v2 != occurring or len(v0) + len(v1) + len(v2) != len(occurring):
        raise ValueError("V0, V1, V2 must partition the occurring variables")
    if not renamed <= v0:
        raise ValueError("the renamed set must lie inside V0")
    if v0 and not verify_partially_horn(rename(f, renamed), v0):
        return False
    for clause in f.clauses:
        variables = clause.variables()
        if sum(v in v1 for v in variables) > 2:
            return False
        if any(v in v1 for v in variables) and any(v in v2 for v in variables):
            return False
        if any(v in v2 for v in variables):
            if clause.kind is ClauseKind.OR:
                return False
            if not all(abs(l) in v2 for l in clause.xor_part):
                return False
            if not all(abs(l) in v0 for l in clause.or_part):
                return False
    return True


def max_admissible(formula, renaming=True):
    """Largest admissible set by brute force over verify_partially_horn.

    Each variable is left out, kept or (with renaming) renamed, so this is
    3^n (or 2^n) checks; the renaming only matters on the set itself.
    """
    from aggdom.formula import rename
    from aggdom.recognize import verify_partially_horn

    best = frozenset()
    for choice in product(range(3 if renaming else 2), repeat=formula.n):
        admissible = {v for v, c in enumerate(choice, start=1) if c}
        renamed = {v for v, c in enumerate(choice, start=1) if c == 2}
        if len(admissible) > len(best) and verify_partially_horn(rename(formula, renamed), admissible):
            best = frozenset(admissible)
    return best


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name (undone with the monkeypatch) and return the list that
    collects the arguments of every call made through that binding."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


_REFERENCE_OPENERS = {"x": ClauseKind.XOR, "g": ClauseKind.GENERALIZED}
_REFERENCE_CLAUSE_NAMES = {
    ClauseKind.OR: "clause",
    ClauseKind.XOR: "xor clause",
    ClauseKind.GENERALIZED: "generalized clause",
}


def reference_parse_formula(text):
    """The .ecnf parser as one loop over a lazy stream of tokens, one `Clause`
    per clause and `Formula(n, clauses)` at the end; integers are ASCII
    decimal by a regular expression."""

    def tokens():
        for lineno, line, parts in _content_lines(text):
            for index, token in enumerate(parts):
                yield token, lineno, line, index

    def error(message, token):
        _, lineno, line, index = token
        end = 0
        for part in line.split()[: index + 1]:
            start = line.index(part, end)
            end = start + len(part)
        return ParseError(message, lineno, start + 1)

    def integer(token):
        if not re.fullmatch(r"[+-]?[0-9]+", token[0]):
            raise error(f"expected an integer, got {token[0]!r}", token)
        return int(token[0])

    stream = tokens()
    head = list(islice(stream, 4))
    if not head:
        raise ParseError("empty input, expected 'p ecnf <nvars> <nclauses>' header")
    if head[0][0] != "p":
        raise error(f"expected 'p' header, got {head[0][0]!r}", head[0])
    if len(head) < 4:
        raise error("truncated header", head[0])
    if head[1][0] != "ecnf":
        raise error(f"expected format 'ecnf', got {head[1][0]!r}", head[1])
    nvars, nclauses = integer(head[2]), integer(head[3])
    if nvars < 1:
        raise error("header must declare at least one variable", head[0])
    if nclauses < 0:
        raise error("negative clause count", head[0])

    clauses = []
    kind = None  # kind of the clause being read; None between clauses
    for token in stream:
        word = token[0]
        if kind is None:
            start, or_part, xor_part = token, [], []
            kind = _REFERENCE_OPENERS.get(word, ClauseKind.OR)
            part = xor_part if kind is ClauseKind.XOR else or_part  # where literals go
            need_x = kind is ClauseKind.GENERALIZED
            if kind is not ClauseKind.OR:
                continue
        elif need_x and word == "x":
            part, need_x = xor_part, False
            continue
        value = integer(token)
        if value:
            if abs(value) > nvars:
                raise error(f"variable x{abs(value)} out of range (n={nvars})", token)
            part.append(value)
            continue
        if need_x:
            raise error("generalized clause needs an 'x' separator", token)
        if word != "0":
            raise error(f"unexpected token {word!r} in {_REFERENCE_CLAUSE_NAMES[kind]}", token)
        try:
            clauses.append(Clause(kind, tuple(or_part), tuple(xor_part)))
        except ValueError as exc:
            raise error(str(exc), start) from None
        kind = None
    if kind is not None:
        raise error("clause not terminated by 0", token)

    if len(clauses) != nclauses:
        raise ParseError(f"header declares {nclauses} clauses but {len(clauses)} were given")
    return Formula(nvars, tuple(clauses))
