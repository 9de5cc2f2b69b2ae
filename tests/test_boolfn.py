"""Boolean-function predicates, including the fully tabulated ternary and
4-ary examples used to pin down anonymous/monotone/1-immune behaviour."""

from itertools import product

import pytest

from aggdom.boolfn import (
    BoolFn,
    fn_name,
    from_rule,
    is_1_immune,
    is_anonymous,
    is_commutative_ternary,
    is_essentially_unary,
    is_monotone,
    is_projection,
    is_unanimous,
    linear_fn,
    named_fn,
    pr,
)


def _unanimous(k: int):
    """Every unanimous k-ary function: table 0 ... 1 with all middles."""
    return (BoolFn(k, (0, *middle, 1)) for middle in product((0, 1), repeat=(1 << k) - 2))


def test_named_values():
    assert named_fn("maj")(1, 1, 0) == 1
    assert named_fn("maj")(1, 0, 0) == 0
    assert named_fn("xor3")(1, 1, 1) == 1  # exactly one or all
    assert named_fn("xor3")(1, 1, 0) == 0
    assert pr(2, 3)(0, 1, 0) == 1
    assert named_fn("id")(0) == 0


def test_named_unknown():
    with pytest.raises(ValueError):
        named_fn("nand")


def test_unanimity():
    assert is_unanimous(named_fn("and"))
    assert is_unanimous(named_fn("xor3"))
    assert not is_unanimous(BoolFn(2, (0, 0, 0, 0)))


def test_projection_detection():
    assert is_projection(pr(1, 2))
    assert not is_projection(named_fn("and"))


def test_commutative_ternary_set():
    names = {"and3", "or3", "maj", "xor3"}
    commutative = {
        tuple(f.table)
        for f in _unanimous(3)
        if is_commutative_ternary(f)
    }
    assert commutative == {tuple(named_fn(name).table) for name in names}


# the three fully tabulated example operations: f is 1-immune but neither
# anonymous nor monotone; g is monotone and 1-immune but not anonymous;
# h (4-ary, two-or-all-of-four) is anonymous and 1-immune but not monotone

F_TABLE = from_rule(3, lambda x, y, z: (x, y, z) in {(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)})
G_TABLE = from_rule(3, lambda x, y, z: (x, y, z) in {(0, 1, 1), (1, 0, 1), (1, 1, 1)})
H_TABLE = from_rule(4, lambda *bits: sum(bits) in (2, 4))


def test_example_f():
    assert not is_anonymous(F_TABLE)
    assert not is_monotone(F_TABLE)
    assert is_1_immune(F_TABLE)
    for x in (0, 1):
        assert F_TABLE(x, 0, 1) == F_TABLE(0, x, 1) == F_TABLE(0, 0, x) == 0


def test_example_g():
    assert not is_anonymous(G_TABLE)
    assert is_monotone(G_TABLE)
    assert is_1_immune(G_TABLE)


def test_example_h():
    assert is_anonymous(H_TABLE)
    assert is_1_immune(H_TABLE)
    assert not is_monotone(H_TABLE)
    assert H_TABLE(0, 0, 1, 1) == 1 and H_TABLE(0, 1, 1, 1) == 0


def test_linear_unanimity_characterization():
    # a linear function is unanimous iff the constant is 0 and the support is odd
    for k in (3, 5):
        for constant in (0, 1):
            for pattern in range(1 << k):
                support = {i + 1 for i in range(k) if pattern >> i & 1}
                f = linear_fn(k, support, constant)
                assert is_unanimous(f) == (constant == 0 and len(support) % 2 == 1)


def test_linear_non_unary_neither_monotone_nor_immune():
    for k in (3, 5):
        for pattern in range(1 << k):
            support = {i + 1 for i in range(k) if pattern >> i & 1}
            if len(support) % 2 == 0:
                continue
            f = linear_fn(k, support)
            if is_essentially_unary(f):
                assert len(support) == 1
                continue
            assert not is_monotone(f)
            assert not is_1_immune(f)


def test_fn_name_reverses_named_fn_and_pr():
    expected = {}
    for name in ("id", "and", "or", "and3", "or3", "maj", "xor3"):
        assert fn_name(named_fn(name)) == name
        expected[named_fn(name)] = name
    assert fn_name(pr(1, 1)) == "id"  # the unary projection is the identity
    for k in (2, 3, 4):
        for d in range(1, k + 1):
            assert fn_name(pr(d, k)) == f"pr{d}"
            expected[pr(d, k)] = f"pr{d}"
    for k in (1, 2, 3):
        for f in _unanimous(k):
            assert fn_name(f) == expected.get(f), f
