"""Independent oracles used to freeze expected values.

These deliberately re-derive semantics from scratch (plain loops over
assignments and tuples) so the library's bitmask and numpy paths are checked
against something that shares no code with them.
"""

from itertools import product

from aggdom.formula import ClauseKind


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


def is_prime_implicate(signed_literals, members):
    """All members satisfy the clause and no proper sub-clause is satisfied
    by all of them."""

    def satisfies(row, literals):
        return any((row[abs(s) - 1] == 1) == (s > 0) for s in literals)

    literals = list(signed_literals)
    if not all(satisfies(row, literals) for row in members):
        return False
    for drop in range(len(literals)):
        sub = literals[:drop] + literals[drop + 1 :]
        if sub and all(satisfies(row, sub) for row in members):
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
