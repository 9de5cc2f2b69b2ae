"""Propositional formulas with OR, XOR and generalized (mixed) clauses.

A clause is one of:

* an OR clause  ``(l1 v ... v ls)``,
* an XOR clause ``(l1 + ... + lt)``, satisfied when an odd number of its
  literals are true,
* a generalized clause ``(l1 v ... v ls v (l_{s+1} + ... + l_t))``, falsified
  exactly when every or-literal is false and an even number of xor-literals
  are true.

A literal is a signed DIMACS int: ``v`` is x_v and ``-v`` its negation, and
0 is never a literal.  A clause is its or part and its xor part, two
sequences of such ints; renaming a set of variables flips the signs of their
literals and nothing else.

A `Formula` is stored as a clause arena (Een and Sorensson, "An Extensible
SAT-solver", SAT 2003): one flat ``array('i')`` of the literals of every
clause, back to back, and three per-clause offset arrays, so that clause i
has the or part ``lits[starts[i]:xstarts[i]]`` and the xor part
``lits[xstarts[i]:ends[i]]``.  A clause's kind follows from which part is
empty.  Inside the library a formula is only ever this arena: the parser
fills it, synthesis packs (or part, xor part) pairs into it and reads them
back as slices (`_from_pairs`, `_pairs`), and the recognizers and the model
mask read the arrays.  `Clause` is the public API's view: `Formula(n,
clauses)` packs `Clause` objects through the same path as synthesis, and
`Formula.clauses`, the tuple of `Clause` objects, is built on first access
and cached.

All variables inside a single clause must be distinct.  Clause kind is part
of the syntax: a one-literal OR clause and a one-literal XOR clause evaluate
identically but are different objects, because the recognizers downstream
are syntactic.  Duplicate clauses are preserved as written.

The text format is an extended DIMACS dialect.  `parse_formula` reads it
line by line into the arena: a line that holds exactly one well-formed
clause is converted in one batch, and every other line goes token by token,
so the header and a clause may span lines; comment lines are skipped by the
rule the domain and aggregator parsers share.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import CapExceededError, ParseError, _content_lines, _decimals

DEFAULT_MODELS_CAP = 24

# the largest variable index an array('i') item holds
_MAX_VARIABLES = 2**31 - 1


class ClauseKind(enum.Enum):
    OR = "or"
    XOR = "xor"
    GENERALIZED = "generalized"


def _clause_fault(kind: ClauseKind, or_part, xor_part) -> str | None:
    """Why the parts do not make a clause of this kind, or None when they do."""
    literals = [*or_part, *xor_part]
    if 0 in literals:
        return "0 is not a literal"
    if kind is ClauseKind.OR:
        if xor_part:
            return "OR clause must not have an xor part"
        if not or_part:
            return "OR clause needs at least one literal"
    elif kind is ClauseKind.XOR:
        if or_part:
            return "XOR clause must not have an or part"
        if not xor_part:
            return "XOR clause needs at least one literal"
    elif not or_part or not xor_part:
        return "generalized clause needs both parts non-empty"
    seen = set()
    for v in map(abs, literals):
        if v in seen:
            return f"variable x{v} repeated within a clause"
        seen.add(v)
    return None


@dataclass(frozen=True)
class Clause:
    """One clause; each part is a tuple of signed DIMACS literals."""

    kind: ClauseKind
    or_part: tuple[int, ...] = ()
    xor_part: tuple[int, ...] = ()

    def __post_init__(self):
        fault = _clause_fault(self.kind, self.or_part, self.xor_part)
        if fault is not None:
            raise ValueError(fault)

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


def _kind(or_part, xor_part) -> ClauseKind:
    """The kind of the clause with these parts (OR when both are empty)."""
    if not xor_part:
        return ClauseKind.OR
    return ClauseKind.GENERALIZED if or_part else ClauseKind.XOR


class Formula:
    """A conjunction of clauses over variables x1..xn, held in a clause arena
    (see the module docstring): `lits`, `starts`, `xstarts` and `ends`.

    `Formula(n, clauses)` packs the given `Clause` objects and keeps them as
    `clauses`; any other formula builds that tuple on first access.  An
    empty clause list is allowed and denotes the full cube (needed as the
    synthesis output for the unconstrained domain).  A formula is a value:
    equal and hashed by n and its clauses, and never modified in place.
    """

    __slots__ = ("n", "lits", "starts", "xstarts", "ends", "_clauses")

    def __init__(self, n: int, clauses: Iterable[Clause] = ()):
        clauses = tuple(clauses)
        f = _from_pairs(n, ((c.or_part, c.xor_part) for c in clauses))
        _pack(self, n, f.lits, f.xstarts, f.ends, clauses)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as `Clause` objects, built once and cached."""
        if self._clauses is None:
            self._clauses = tuple(Clause(_kind(o, x), tuple(o), tuple(x)) for o, x in _pairs(self))
        return self._clauses

    def occurring_variables(self) -> set[int]:
        return set(map(abs, self.lits))

    def __eq__(self, other):
        if other.__class__ is not Formula:
            return NotImplemented
        # starts follows from ends
        return (
            self.n == other.n
            and self.ends == other.ends
            and self.xstarts == other.xstarts
            and self.lits == other.lits
        )

    def __hash__(self):
        return hash((self.n, self.lits.tobytes(), self.xstarts.tobytes(), self.ends.tobytes()))

    def __repr__(self):
        return f"Formula(n={self.n}, clauses={self.clauses!r})"


def _pack(f: Formula, n: int, lits: array, xstarts: array, ends: array, clauses) -> None:
    """Set the fields of f; starts is ends shifted right by one clause, and
    clauses is the cached tuple or None."""
    f.n = n
    f.lits = lits
    f.starts = (array("i", [0]) + ends)[:-1]
    f.xstarts = xstarts
    f.ends = ends
    f._clauses = clauses


def _from_pairs(n: int, pairs: Iterable[tuple]) -> Formula:
    """The formula over x1..xn whose clauses are the (or part, xor part)
    pairs of signed ints, in order; each pair is checked as `Clause` checks
    its parts, with the kind that follows from which part is empty."""
    if n < 1:
        raise ValueError("a formula needs at least one variable")
    if n > _MAX_VARIABLES:
        raise ValueError(f"a formula holds at most {_MAX_VARIABLES} variables")
    lits, xstarts, ends = [], [], []
    for or_part, xor_part in pairs:
        fault = _clause_fault(_kind(or_part, xor_part), or_part, xor_part)
        if fault is not None:
            raise ValueError(fault)
        lits += or_part
        xstarts.append(len(lits))
        lits += xor_part
        ends.append(len(lits))
    if lits and max(max(lits), -min(lits)) > n:
        v = next(v for v in map(abs, lits) if v > n)
        raise ValueError(f"variable x{v} out of range (n={n})")
    f = Formula.__new__(Formula)
    _pack(f, n, array("i", lits), array("i", xstarts), array("i", ends), None)
    return f


def _pairs(f: Formula):
    """Each clause of f as its (or part, xor part) pair of `f.lits` slices."""
    lits = f.lits
    return ((lits[s:x], lits[x:e]) for s, x, e in zip(f.starts, f.xstarts, f.ends))


# ---------------------------------------------------------------------------
# extended-DIMACS parsing / rendering
#
# comment lines:      c ...   (a line whose first token is exactly c)
# header:             p ecnf <nvars> <nclauses>
# OR clause:          <lit> ... 0
# XOR clause:         x <lit> ... 0
# generalized clause: g <or-lits...> x <xor-lits...> 0
#
# Tokens are whitespace-separated and line breaks carry no meaning.  Every
# integer is ASCII decimal, [+-]?[0-9]+.  The terminator is exactly "0";
# another zero ("-0", "00") is an unexpected token.
# ---------------------------------------------------------------------------


def _error(message: str, where) -> ParseError:
    """A ParseError at `where`, (line number, line, index of the token in the
    line); the token's column is computed from its line only here."""
    lineno, line, index = where
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


def _whole_clause(parts: list[str], nvars: int):
    """(literals, length of the or part) of a line whose tokens are exactly
    one well-formed clause, converted in one batch; None sends the line down
    the token path, which also finds its first error."""
    opener = parts[0]
    if opener == "x":
        body, cut = parts[1:-1], 0
    elif opener == "g":
        try:
            cut = parts.index("x") - 1
        except ValueError:
            return None
        body = parts[1 : cut + 1] + parts[cut + 2 : -1]
        if not 0 < cut < len(body):  # an empty part
            return None
    else:
        body = parts[:-1]
        cut = len(body)
    try:
        literals = _decimals(body)
    except ValueError:
        return None
    variables = set(map(abs, literals))
    if not literals or len(variables) != len(literals) or 0 in variables or max(variables) > nvars:
        return None
    return literals, cut


def parse_formula(text: str) -> Formula:
    """Parse extended-DIMACS text into a Formula.

    The header and a clause may span lines.  Rejects repeated variables
    inside a clause, out-of-range indices and a clause count that disagrees
    with the header; each literal's range is checked once, here.
    """
    lines = _content_lines(text)
    head = []  # the header's tokens as (word, (line number, line, index))
    for lineno, line, parts in lines:
        head.extend((word, (lineno, line, index)) for index, word in enumerate(parts[: 4 - len(head)]))
        if len(head) == 4:
            break
    if not head:
        raise ParseError("empty input, expected 'p ecnf <nvars> <nclauses>' header")
    if head[0][0] != "p":
        raise _error(f"expected 'p' header, got {head[0][0]!r}", head[0][1])
    if len(head) < 4:
        raise _error("truncated header", head[0][1])
    if head[1][0] != "ecnf":
        raise _error(f"expected format 'ecnf', got {head[1][0]!r}", head[1][1])
    sizes = []
    for word, where in head[2:]:
        try:
            sizes.extend(_decimals((word,)))
        except ValueError:
            raise _error(f"expected an integer, got {word!r}", where) from None
    nvars, nclauses = sizes
    if nvars < 1:
        raise _error("header must declare at least one variable", head[0][1])
    if nclauses < 0:
        raise _error("negative clause count", head[0][1])
    if nvars > _MAX_VARIABLES:
        raise _error(f"header declares more than {_MAX_VARIABLES} variables", head[0][1])

    lits, xstarts, ends = array("i"), array("i"), array("i")
    first = head[3][1][2] + 1  # index of the first token after the header
    kind = None  # kind of the clause being read; None between clauses
    for lineno, line, parts in chain([(lineno, line, parts)], lines):
        if kind is None and not first and parts[-1] == "0":
            clause = _whole_clause(parts, nvars)
            if clause is not None:
                literals, cut = clause
                xstarts.append(len(lits) + cut)
                lits.extend(literals)
                ends.append(len(lits))
                continue
        for index in range(first, len(parts)):
            word = parts[index]
            if kind is None:
                start = (lineno, line, index)
                kind = _OPENERS.get(word, ClauseKind.OR)
                or_part, xor_part = [], []
                part = xor_part if kind is ClauseKind.XOR else or_part  # where literals go
                need_x = kind is ClauseKind.GENERALIZED
                if kind is not ClauseKind.OR:
                    continue
            elif need_x and word == "x":
                part, need_x = xor_part, False
                continue
            try:
                (value,) = _decimals((word,))
            except ValueError:
                raise _error(f"expected an integer, got {word!r}", (lineno, line, index)) from None
            if value:
                if abs(value) > nvars:
                    raise _error(f"variable x{abs(value)} out of range (n={nvars})", (lineno, line, index))
                part.append(value)
                continue
            if need_x:
                raise _error("generalized clause needs an 'x' separator", (lineno, line, index))
            if word != "0":
                raise _error(f"unexpected token {word!r} in {_CLAUSE_NAMES[kind]}", (lineno, line, index))
            fault = _clause_fault(kind, or_part, xor_part)
            if fault is not None:
                raise _error(fault, start)
            xstarts.append(len(lits) + len(or_part))
            lits.extend(or_part + xor_part)
            ends.append(len(lits))
            kind = None
        first = 0
    if kind is not None:
        raise _error("clause not terminated by 0", (lineno, line, len(parts) - 1))

    if len(ends) != nclauses:
        raise ParseError(f"header declares {nclauses} clauses but {len(ends)} were given")
    f = Formula.__new__(Formula)
    _pack(f, nvars, lits, xstarts, ends, None)
    return f


def render_formula(f: Formula) -> str:
    """Inverse of parse_formula: parse(render(f)) is structurally equal to f."""
    lits = f.lits
    lines = [f"p ecnf {f.n} {len(f.ends)}"]
    for s, x, e in zip(f.starts, f.xstarts, f.ends):
        or_text = " ".join(map(str, lits[s:x]))
        xor_text = " ".join(map(str, lits[x:e]))
        if x == e:
            lines.append(f"{or_text} 0")
        elif s == x:
            lines.append(f"x {xor_text} 0")
        else:
            lines.append(f"g {or_text} x {xor_text} 0")
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
    lits = f.lits.tolist()
    result = full
    for s, x, e in zip(f.starts, f.xstarts, f.ends):
        # the or part's mask, joined by the xor part's; one of the two parts
        # is empty unless the clause is generalized
        clause_mask = 0
        for l in lits[s:x]:
            m = masks[abs(l) - 1]
            clause_mask |= m if l > 0 else (full & ~m)
        if x != e:
            xor_mask = 0
            for l in lits[x:e]:
                m = masks[abs(l) - 1]
                xor_mask ^= m if l > 0 else (full & ~m)
            clause_mask |= xor_mask
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
