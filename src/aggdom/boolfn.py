"""k-ary Boolean functions as explicit truth tables.

The table has 2^k entries; the row index is the input read as a binary
number with the first argument as the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product


@dataclass(frozen=True)
class BoolFn:
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if len(self.table) != 1 << self.arity:
            raise ValueError(f"table needs {1 << self.arity} entries, got {len(self.table)}")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("table entries must be bits")

    def __call__(self, *bits: int) -> int:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.table[idx]

    def __repr__(self):
        name = fn_name(self)
        if name is not None:
            return f"BoolFn<{name}>"
        return f"BoolFn(arity={self.arity}, table={''.join(map(str, self.table))})"


def from_rule(k: int, rule) -> BoolFn:
    return BoolFn(k, tuple(int(bool(rule(*bits))) for bits in product((0, 1), repeat=k)))


@cache
def pr(d: int, k: int) -> BoolFn:
    """The k-ary projection onto the d-th argument (1-based).  Cached: BoolFn
    is frozen, so every caller may share one instance."""
    if not 1 <= d <= k:
        raise ValueError(f"projection index {d} out of range for arity {k}")
    return from_rule(k, lambda *bits: bits[d - 1])


@cache
def named_fn(name: str, k: int | None = None) -> BoolFn:
    """Constructor for the named functions used throughout.

    and/or are binary, and3/or3/maj/xor3 ternary, id unary, and prN is the
    projection onto argument N of the requested arity.  Cached like `pr`;
    tables are built on first use, never at import.
    """
    fixed = {
        "id": from_rule(1, lambda a: a),
        "and": from_rule(2, lambda a, b: a & b),
        "or": from_rule(2, lambda a, b: a | b),
        "and3": from_rule(3, lambda a, b, c: a & b & c),
        "or3": from_rule(3, lambda a, b, c: a | b | c),
        "maj": from_rule(3, lambda a, b, c: (a + b + c) >= 2),
        "xor3": from_rule(3, lambda a, b, c: (a + b + c) & 1),
    }
    if name in fixed:
        fn = fixed[name]
        if k is not None and k != fn.arity:
            raise ValueError(f"{name} has arity {fn.arity}, not {k}")
        return fn
    if name.startswith("pr") and name[2:].isdigit():
        if k is None:
            raise ValueError(f"projection {name} needs an explicit arity")
        return pr(int(name[2:]), k)
    raise ValueError(f"unknown function name {name!r}")


@cache
def _fixed_names() -> dict[BoolFn, str]:
    """Each fixed-arity named function mapped back to its name, built once."""
    return {named_fn(name): name for name in ("id", "and", "or", "and3", "or3", "maj", "xor3")}


def fn_name(f: BoolFn) -> str | None:
    """The conventional name of f, or None if it has no short name."""
    name = _fixed_names().get(f)
    if name is not None:
        return name
    for d in range(1, f.arity + 1):
        if pr(d, f.arity) == f:
            return f"pr{d}"
    return None


def is_unanimous(f: BoolFn) -> bool:
    """f(b,...,b) = b for both bits."""
    return f.table[0] == 0 and f.table[-1] == 1


def is_projection(f: BoolFn) -> bool:
    return any(pr(d, f.arity) == f for d in range(1, f.arity + 1))


def is_anonymous(f: BoolFn) -> bool:
    """Invariance under every permutation of the arguments.

    Equivalent to the output depending only on how many inputs are 1.
    """
    by_weight: dict[int, int] = {}
    for idx, value in enumerate(f.table):
        weight = idx.bit_count()
        if by_weight.setdefault(weight, value) != value:
            return False
    return True


def is_monotone(f: BoolFn) -> bool:
    """Flipping any single input 0 -> 1 never drops the output."""
    for idx, value in enumerate(f.table):
        if value == 0:
            continue
        for i in range(f.arity):
            bit = 1 << (f.arity - 1 - i)
            if not idx & bit and f.table[idx | bit] == 0:
                return False
    return True


def is_1_immune(f: BoolFn) -> bool:
    """For every position there is a way to fix the other inputs so that the
    remaining input cannot change the output."""
    k = f.arity
    for i in range(k):
        bit = 1 << (k - 1 - i)
        neutralized = False
        for idx in range(1 << k):
            if idx & bit:
                continue
            if f.table[idx] == f.table[idx | bit]:
                neutralized = True
                break
        if not neutralized:
            return False
    return True


def is_commutative_ternary(f: BoolFn) -> bool:
    """g(x,x,y) = g(x,y,x) = g(y,x,x) for all bits; exactly and3/or3/maj/xor3
    among the unanimous ternary functions."""
    if f.arity != 3:
        return False
    return all(
        f(x, x, y) == f(x, y, x) == f(y, x, x) for x in (0, 1) for y in (0, 1)
    )


def linear_fn(k: int, support: set[int], constant: int = 0) -> BoolFn:
    """c0 + sum of the arguments in `support` (1-based), mod 2."""
    return from_rule(
        k, lambda *bits: (constant + sum(bits[i - 1] for i in support)) & 1
    )


def is_essentially_unary(f: BoolFn) -> bool:
    """f depends on at most one argument position (constants included)."""
    k = f.arity
    for i in range(1, k + 1):
        ok = True
        for idx in range(1 << k):
            bit = (idx >> (k - i)) & 1
            expected = f.table[(1 << (k - i)) if bit else 0]
            if f.table[idx] != expected:
                ok = False
                break
        if ok:
            return True
    return False

