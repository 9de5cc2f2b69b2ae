"""Explicit Boolean domains: finite sets of n-bit judgment vectors.

Members are stored sorted with a hash index, since closure checks are
membership-heavy.  Domains are immutable; every operation returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .errors import CapExceededError, EmptyDomainError, ParseError, _content_lines, _decimals

if TYPE_CHECKING:  # pragma: no cover
    from .boolfn import BoolFn

DEFAULT_TUPLE_CAP = 10_000_000


@dataclass(frozen=True)
class DegeneracyReport:
    non_degenerate: bool
    fixed_coordinates: tuple[tuple[int, int], ...]  # (1-based index, forced bit)


def _row(value: int, n: int) -> tuple[int, ...]:
    """Assignment #value over n variables: value in binary, x1 as the most
    significant bit.  The one decoder of the packed layout."""
    return tuple((value >> (n - v)) & 1 for v in range(1, n + 1))


@dataclass(frozen=True)
class Domain:
    n: int
    members: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a domain needs arity >= 1")
        rows = sorted(set(tuple(m) for m in self.members))
        for row in rows:
            if len(row) != self.n:
                raise ValueError(f"member {row} does not have length n={self.n}")
            if any(b not in (0, 1) for b in row):
                raise ValueError(f"member {row} is not a bitvector")
        object.__setattr__(self, "members", tuple(rows))

    @cached_property
    def member_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.members)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Domain":
        """The domain with the given model-set mask (see `mask`), decoded in
        time linear in 2^n."""
        bits = format(mask, "b")[::-1]  # bits[p] is bit p
        found = []
        p = bits.find("1")
        while p >= 0:
            found.append(_row(p, n))
            p = bits.find("1", p + 1)
        return cls(n, found)

    @cached_property
    def members_as_ints(self) -> tuple[int, ...]:
        """Each member packed into an int, x1 as the most significant bit."""
        return tuple(self.pack(m) for m in self.members)

    @cached_property
    def mask(self) -> int:
        """The model-set mask: bit p is set iff assignment #p is a member,
        where assignment #p reads p in binary with x1 as the most significant
        bit (so #p packs to p).  Built in time linear in 2^n + |d|."""
        packed = bytearray(((1 << self.n) + 7) >> 3)
        for m in self.members_as_ints:
            packed[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(packed, "little")

    def pack(self, row: tuple[int, ...]) -> int:
        value = 0
        for b in row:
            value = (value << 1) | b
        return value

    def unpack(self, value: int) -> tuple[int, ...]:
        return _row(value, self.n)

    def __len__(self):
        return len(self.members)

    def __contains__(self, row) -> bool:
        return tuple(row) in self.member_set

    def __iter__(self):
        return iter(self.members)


def parse_domain(text: str) -> Domain:
    """Parse a domain file: header ``d <n>`` then one 0/1 row per line.

    Blank lines and comment lines (first token ``c``) are allowed anywhere.
    Ragged rows, non-binary characters, duplicate rows and empty domains are
    rejected.
    """
    n = None
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, _line, parts in _content_lines(text):
        if n is None:
            if parts[0] != "d" or len(parts) != 2:
                raise ParseError("expected header 'd <n>'", lineno, 1)
            try:
                (n,) = _decimals(parts[1:])
            except ValueError:
                raise ParseError(f"bad arity {parts[1]!r}", lineno, 1) from None
            if n < 1:
                raise ParseError("arity must be >= 1", lineno, 1)
            continue
        if len(parts) != 1:
            raise ParseError("expected one 0/1 row per line", lineno, 1)
        row_text = parts[0]
        if len(row_text) != n:
            raise ParseError(f"row has length {len(row_text)}, expected {n}", lineno, 1)
        if any(ch not in "01" for ch in row_text):
            raise ParseError(f"row {row_text!r} has non-binary characters", lineno, 1)
        row = tuple(int(ch) for ch in row_text)
        if row in seen:
            raise ParseError(f"duplicate row {row_text!r}", lineno, 1)
        seen.add(row)
        rows.append(row)
    if n is None:
        raise ParseError("missing 'd <n>' header")
    if not rows:
        raise ParseError("empty domain")
    return Domain(n, tuple(rows))


def render_domain(d: Domain) -> str:
    lines = [f"d {d.n}"]
    lines.extend("".join(str(b) for b in row) for row in d.members)
    return "\n".join(lines) + "\n"


def degeneracy(d: Domain) -> DegeneracyReport:
    """Coordinates on which all members agree, i.e. issues that are no choice."""
    if not d.members:
        raise EmptyDomainError("degeneracy of an empty domain is undefined")
    fixed = []
    for j in range(d.n):
        column = {row[j] for row in d.members}
        if len(column) == 1:
            fixed.append((j + 1, d.members[0][j]))
    return DegeneracyReport(not fixed, tuple(fixed))


def project(d: Domain, indices: Iterable[int]) -> Domain:
    """Restrict every member to the given coordinates, in ascending order."""
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("projection needs a non-empty index set")
    for j in idx:
        if not 1 <= j <= d.n:
            raise ValueError(f"index {j} out of range (n={d.n})")
    return Domain(len(idx), tuple(tuple(row[j - 1] for j in idx) for row in d.members))


def rename_domain(d: Domain, variables: Iterable[int]) -> Domain:
    """Complement every member on the given coordinates.  An involution."""
    flip = set(variables)
    for j in flip:
        if not 1 <= j <= d.n:
            raise ValueError(f"index {j} out of range (n={d.n})")
    return Domain(
        d.n,
        tuple(
            tuple(1 - b if v in flip else b for v, b in enumerate(row, start=1))
            for row in d.members
        ),
    )


def is_closed_under(d: Domain, f: "BoolFn", tuple_cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """True iff applying f componentwise to every k-tuple of members stays in d."""
    return closure_counterexample(d, f, tuple_cap) is None


def closure_counterexample(d: Domain, f: "BoolFn", tuple_cap: int = DEFAULT_TUPLE_CAP):
    """None if closed; otherwise a k-tuple of members whose image escapes d."""
    return escaping_tuple(d, (f.table,) * d.n, tuple_cap)


def escaping_tuple(d: Domain, tables, tuple_cap: int = DEFAULT_TUPLE_CAP, own_rows: bool = False):
    """The closure kernel: the first k-tuple of members, in the order
    itertools.product yields them over d.members, whose componentwise
    image under the per-coordinate tables (one 2^k-entry table per
    coordinate) leaves d, or with ``own_rows`` is none of the tuple's own
    rows; None if there is none.

    The tables become 2^k minterm masks over the packed members: mask t holds
    the coordinates whose table outputs 1 on input row t.  Fixing the first
    argument to a member a Shannon-expands the masks to half as many,
    ``M[s] ^ (a & (M[s] ^ M[half + s]))``, so the last argument is left with
    one mask pair and each tuple costs a few bit operations and one probe,
    whatever n is.  Nothing of size |d|^k is ever built.
    """
    k = len(tables[0]).bit_length() - 1
    if len(d.members) ** k > tuple_cap:
        raise CapExceededError(f"|d|^k = {len(d.members)}^{k} exceeds cap {tuple_cap}")
    masks = [0] * (1 << k)
    for table in tables:
        masks = [(m << 1) | b for m, b in zip(masks, table)]
    ints = d.members_as_ints
    member_set = frozenset(ints)

    def search(masks, chosen):
        half = len(masks) >> 1
        low = masks[:half]
        flips = [m ^ h for m, h in zip(low, masks[half:])]
        if half == 1:
            base, flip = low[0], flips[0]
            if own_rows:
                for c in ints:
                    image = base ^ (flip & c)
                    if image != c and image not in chosen:
                        return chosen + (c,)
            else:
                for c in ints:
                    if base ^ (flip & c) not in member_set:
                        return chosen + (c,)
            return None
        for a in ints:
            found = search([m ^ (a & f) for m, f in zip(low, flips)], chosen + (a,))
            if found is not None:
                return found
        return None

    found = search(masks, ())
    return None if found is None else tuple(d.unpack(v) for v in found)


def is_affine(d: Domain) -> bool:
    """Closure under the ternary sum mod 2.

    That holds iff the translate of d by any fixed member is a linear
    subspace of GF(2)^n, i.e. iff |d| = 2^rank of the translated members.
    Each translated member is reduced by the xor basis in the order it was
    built, which keeps the leading bits distinct, and joins the basis if
    anything is left: O(|d| n) bit operations.
    """
    if not d.members:
        raise EmptyDomainError("affineness of an empty domain is undefined")
    ints = d.members_as_ints
    base = ints[0]
    basis: list[int] = []
    for v in ints:
        x = v ^ base
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(ints) == 1 << len(basis)
