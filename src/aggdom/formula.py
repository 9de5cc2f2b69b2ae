"""Propositional formulas with OR, XOR and generalized (mixed) clauses.

A clause is one of:

* an OR clause  ``(l1 v ... v ls)``,
* an XOR clause ``(l1 + ... + lt)``, satisfied when an odd number of its
  literals are true,
* a generalized clause ``(l1 v ... v ls v (l_{s+1} + ... + l_t))``, falsified
  exactly when every or-literal is false and an even number of xor-literals
  are true.

A literal is a signed DIMACS int: ``v`` is x_v and ``-v`` its negation, and
0 is never a literal.  A clause stores its or part and its xor part as two
tuples of such ints (`Clause.or_part`, `Clause.xor_part`); renaming a set of
variables flips the signs of their literals and nothing else.

All variables inside a single clause must be distinct.  Clause kind is part
of the syntax: a one-literal OR clause and a one-literal XOR clause evaluate
identically but are different objects, because the recognizers downstream
are syntactic.  Duplicate clauses are preserved as written.

The text format is an extended DIMACS dialect.  `parse_formula` reads it
as one lazy stream of whitespace-separated tokens, holding only the clause
being read, so the header and a clause may span lines; comment lines are
skipped by the rule the domain and aggregator parsers share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .errors import CapExceededError, ParseError, _content_lines

DEFAULT_MODELS_CAP = 24


class ClauseKind(enum.Enum):
    OR = "or"
    XOR = "xor"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class Clause:
    """One clause; each part is a tuple of signed DIMACS literals."""

    kind: ClauseKind
    or_part: tuple[int, ...] = ()
    xor_part: tuple[int, ...] = ()

    def __post_init__(self):
        literals = self.or_part + self.xor_part
        if 0 in literals:
            raise ValueError("0 is not a literal")
        if self.kind is ClauseKind.OR:
            if self.xor_part:
                raise ValueError("OR clause must not have an xor part")
            if not self.or_part:
                raise ValueError("OR clause needs at least one literal")
        elif self.kind is ClauseKind.XOR:
            if self.or_part:
                raise ValueError("XOR clause must not have an or part")
            if not self.xor_part:
                raise ValueError("XOR clause needs at least one literal")
        else:
            if not self.or_part or not self.xor_part:
                raise ValueError("generalized clause needs both parts non-empty")
        seen = set()
        for v in map(abs, literals):
            if v in seen:
                raise ValueError(f"variable x{v} repeated within a clause")
            seen.add(v)

    @classmethod
    def disjunction(cls, *signed: int) -> "Clause":
        return cls(ClauseKind.OR, or_part=signed)

    @classmethod
    def exclusive_or(cls, *signed: int) -> "Clause":
        return cls(ClauseKind.XOR, xor_part=signed)

    @classmethod
    def generalized(cls, or_part: Iterable[int], xor_part: Iterable[int]) -> "Clause":
        return cls(ClauseKind.GENERALIZED, tuple(or_part), tuple(xor_part))

    def variables(self) -> list[int]:
        """Variables in literal order (or part first)."""
        return list(map(abs, self.or_part + self.xor_part))

    def is_horn(self) -> bool:
        """At most one positive literal; only meaningful for OR clauses."""
        return self.kind is ClauseKind.OR and sum(lit > 0 for lit in self.or_part) <= 1

    def is_dual_horn(self) -> bool:
        return self.kind is ClauseKind.OR and sum(lit < 0 for lit in self.or_part) <= 1


@dataclass(frozen=True)
class Formula:
    """A conjunction of clauses over variables x1..xn.

    An empty clause list is allowed and denotes the full cube (needed as the
    synthesis output for the unconstrained domain).
    """

    n: int
    clauses: tuple[Clause, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a formula needs at least one variable")
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        for clause in self.clauses:
            for v in clause.variables():
                if v > self.n:
                    raise ValueError(f"variable x{v} out of range (n={self.n})")

    def occurring_variables(self) -> set[int]:
        return {v for clause in self.clauses for v in clause.variables()}


# ---------------------------------------------------------------------------
# extended-DIMACS parsing / rendering
#
# comment lines:      c ...   (a line whose first token is exactly c)
# header:             p ecnf <nvars> <nclauses>
# OR clause:          <lit> ... 0
# XOR clause:         x <lit> ... 0
# generalized clause: g <or-lits...> x <xor-lits...> 0
#
# Tokens are whitespace-separated and line breaks carry no meaning.  The
# terminator is exactly "0"; another zero ("-0", "00") is an unexpected token.
# ---------------------------------------------------------------------------


def _tokens(text: str):
    """Lazy stream of (token, line number, line, index in line)."""
    for lineno, line, parts in _content_lines(text):
        for index, token in enumerate(parts):
            yield token, lineno, line, index


def _error(message: str, token) -> ParseError:
    """A ParseError at `token`, its column computed from its line only here."""
    _, lineno, line, index = token
    end = 0
    for part in line.split()[: index + 1]:
        start = line.index(part, end)
        end = start + len(part)
    return ParseError(message, lineno, start + 1)


_OPENERS = {"x": ClauseKind.XOR, "g": ClauseKind.GENERALIZED}
_CLAUSE_NAMES = {
    ClauseKind.OR: "clause",
    ClauseKind.XOR: "xor clause",
    ClauseKind.GENERALIZED: "generalized clause",
}


def parse_formula(text: str) -> Formula:
    """Parse extended-DIMACS text into a Formula.

    Reads one token at a time, so the header and a clause may span lines.
    Rejects repeated variables inside a clause, out-of-range indices and a
    clause count that disagrees with the header.
    """
    tokens = _tokens(text)
    head = list(islice(tokens, 4))
    if not head:
        raise ParseError("empty input, expected 'p ecnf <nvars> <nclauses>' header")
    if head[0][0] != "p":
        raise _error(f"expected 'p' header, got {head[0][0]!r}", head[0])
    if len(head) < 4:
        raise _error("truncated header", head[0])
    if head[1][0] != "ecnf":
        raise _error(f"expected format 'ecnf', got {head[1][0]!r}", head[1])
    sizes = []
    for token in head[2:]:
        try:
            sizes.append(int(token[0]))
        except ValueError:
            raise _error(f"expected an integer, got {token[0]!r}", token) from None
    nvars, nclauses = sizes
    if nvars < 1:
        raise _error("header must declare at least one variable", head[0])
    if nclauses < 0:
        raise _error("negative clause count", head[0])

    clauses: list[Clause] = []
    kind = None  # kind of the clause being read; None between clauses
    for token in tokens:
        word = token[0]
        if kind is None:
            start, or_part, xor_part = token, [], []
            kind = _OPENERS.get(word, ClauseKind.OR)
            part = xor_part if kind is ClauseKind.XOR else or_part  # where literals go
            need_x = kind is ClauseKind.GENERALIZED
            if kind is not ClauseKind.OR:
                continue
        elif need_x and word == "x":
            part, need_x = xor_part, False
            continue
        try:
            value = int(word)
        except ValueError:
            raise _error(f"expected an integer, got {word!r}", token) from None
        if value:
            if abs(value) > nvars:
                raise _error(f"variable x{abs(value)} out of range (n={nvars})", token)
            part.append(value)
            continue
        if need_x:
            raise _error("generalized clause needs an 'x' separator", token)
        if word != "0":
            raise _error(f"unexpected token {word!r} in {_CLAUSE_NAMES[kind]}", token)
        try:
            clauses.append(Clause(kind, tuple(or_part), tuple(xor_part)))
        except ValueError as exc:
            raise _error(str(exc), start) from None
        kind = None
    if kind is not None:
        raise _error("clause not terminated by 0", token)

    if len(clauses) != nclauses:
        raise ParseError(f"header declares {nclauses} clauses but {len(clauses)} were given")
    return Formula(nvars, tuple(clauses))


def render_formula(f: Formula) -> str:
    """Inverse of parse_formula: parse(render(f)) is structurally equal to f."""
    lines = [f"p ecnf {f.n} {len(f.clauses)}"]
    for clause in f.clauses:
        parts = []
        if clause.kind is ClauseKind.GENERALIZED:
            parts.append("g")
        if clause.kind is ClauseKind.OR or clause.kind is ClauseKind.GENERALIZED:
            parts.extend(map(str, clause.or_part))
        if clause.kind is not ClauseKind.OR:
            parts.append("x")
            parts.extend(map(str, clause.xor_part))
        parts.append("0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation and model enumeration
# ---------------------------------------------------------------------------


def clause_satisfied(clause: Clause, a: tuple[int, ...]) -> bool:
    or_hit = any(a[abs(l) - 1] == (l > 0) for l in clause.or_part)
    if clause.kind is ClauseKind.OR:
        return or_hit
    parity = sum(a[abs(l) - 1] == (l > 0) for l in clause.xor_part) & 1
    if clause.kind is ClauseKind.XOR:
        return parity == 1
    return or_hit or parity == 1


def evaluate(f: Formula, a: Iterable[int]) -> bool:
    """True iff every clause of f is satisfied by the assignment."""
    a = tuple(a)
    if len(a) != f.n:
        raise ValueError(f"assignment has length {len(a)}, formula has n={f.n}")
    return all(clause_satisfied(clause, a) for clause in f.clauses)


def _repeat(block: int, period: int, size: int) -> int:
    """block, `period` bits wide, repeated to fill `size` bits (both powers of
    two) by shift-or doubling."""
    while period < size:
        block |= block << period
        period <<= 1
    return block


def _variable_masks(n: int) -> list[int]:
    """masks[v-1] has bit p set iff assignment #p gives variable v the value 1,
    in the layout of `Domain.mask`."""
    halves = (1 << (n - v) for v in range(1, n + 1))
    return [_repeat(((1 << half) - 1) << half, half << 1, 1 << n) for half in halves]


def satisfying_mask(f: Formula, masks: list[int] | None = None) -> int:
    """Bitmask over all 2^n assignments with the satisfying positions set,
    in the layout of `Domain.mask`."""
    if masks is None:
        masks = _variable_masks(f.n)
    full = (1 << (1 << f.n)) - 1
    result = full
    for clause in f.clauses:
        or_mask = 0
        for l in clause.or_part:
            m = masks[abs(l) - 1]
            or_mask |= m if l > 0 else (full & ~m)
        xor_mask = 0
        for l in clause.xor_part:
            m = masks[abs(l) - 1]
            xor_mask ^= m if l > 0 else (full & ~m)
        if clause.kind is ClauseKind.OR:
            clause_mask = or_mask
        elif clause.kind is ClauseKind.XOR:
            clause_mask = xor_mask
        else:
            clause_mask = or_mask | xor_mask
        result &= clause_mask
        if not result:
            break
    return result


def models(f: Formula, cap: int = DEFAULT_MODELS_CAP):
    """Enumerate the full model set of f as a Domain.  Refuses when n > cap."""
    from .domain import Domain

    if f.n > cap:
        raise CapExceededError(f"model enumeration needs n <= {cap}, got n={f.n}")
    return Domain.from_mask(f.n, satisfying_mask(f))


def rename(f: Formula, variables: Iterable[int]) -> Formula:
    """Flip the polarity of every literal whose variable is in `variables`.

    Renaming is an involution and clause kinds are unchanged.  Clauses with
    no flipped variable are kept as they are, and f itself is returned when
    no clause changes.
    """
    flip = set(variables)
    for v in flip:
        if not 1 <= v <= f.n:
            raise ValueError(f"variable x{v} out of range (n={f.n})")

    def flip_signs(part):
        return tuple(-l if abs(l) in flip else l for l in part)

    clauses = tuple(
        c if flip.isdisjoint(c.variables())
        else Clause(c.kind, flip_signs(c.or_part), flip_signs(c.xor_part))
        for c in f.clauses
    )
    if all(new is old for new, old in zip(clauses, f.clauses)):
        return f
    return Formula(f.n, clauses)


def flip_assignment(a: tuple[int, ...], variables: Iterable[int]) -> tuple[int, ...]:
    """Complement the coordinates in `variables` (1-based)."""
    flip = set(variables)
    for v in flip:
        if not 1 <= v <= len(a):
            raise ValueError(f"variable x{v} out of range (n={len(a)})")
    return tuple(1 - b if v in flip else b for v, b in enumerate(a, start=1))
