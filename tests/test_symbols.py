import random

import pytest

from conftest import rand_elem
from charp import towers as tw
from charp.oracle import expr_invariants, is_split
from charp.symbols import (BrauerExpr, Symbol, merge_same_a, norm_witness,
                           normalize_symbol, reduce_expr)
from charp.textform import format_expr, format_symbol, parse_expr, parse_symbol


def test_merge_examples(f2t):
    e1 = parse_expr("[1, t)_2 * [1, t+1)_2", f2t)
    assert format_expr(merge_same_a(e1)) == "[1, t^2+t)_2"
    # exponent p: two equal symbols vanish
    e2 = parse_expr("[1, t)_2 * [1, t)_2", f2t)
    assert merge_same_a(e2).is_empty()
    # distinct a slots stay put
    e3 = parse_expr("[1, t)_2 * [t, t)_2", f2t)
    assert merge_same_a(e3).entries == e3.entries


def test_merge_preserves_invariants(f2t):
    rng = random.Random(21)
    for _ in range(30):
        a = rand_elem(rng, f2t, 2)
        b1 = rand_elem(rng, f2t, 2, nonzero=True)
        b2 = rand_elem(rng, f2t, 2, nonzero=True)
        e = BrauerExpr(f2t, 0, [Symbol(a, b1), Symbol(a, b2)])
        assert expr_invariants(merge_same_a(e)) == expr_invariants(e)


def test_normalize_examples(f2t):
    s, _ = parse_symbol("[t^2, t)_2", f2t)
    out = normalize_symbol(s)
    assert format_symbol(out.symbol) == "[t, t)_2"
    # a reduction witness is reported and is consistent
    assert out.as_shift is not None
    s2, _ = parse_symbol("[t, 1)_2", f2t)
    assert normalize_symbol(s2).symbol is None
    s3 = Symbol(tw.int_elem(f2t, 0, 0), tw.var_elem(f2t, "t"))
    assert normalize_symbol(s3).symbol is None


def test_normalize_preserves_split_status(f2t):
    rng = random.Random(22)
    for _ in range(20):
        a = rand_elem(rng, f2t, 2)
        b = rand_elem(rng, f2t, 2, nonzero=True)
        s = Symbol(a, b)
        before = is_split(s, "invariants")
        out = normalize_symbol(s)
        if out.symbol is None:
            assert before.status == "split"
        else:
            after = is_split(out.symbol, "invariants")
            assert after.status == before.status


def test_opposite_expansion(f2t, f3t):
    e = parse_expr("[1, t)_2^op", f2t)
    assert e.length() == 1  # p - 1 copies for p = 2
    e3 = parse_expr("[1, t)_3^op", f3t)
    assert e3.length() == 2
    # the opposite cancels the original
    total = e3.tensor(parse_expr("[1, t)_3", f3t))
    assert reduce_expr(total).is_empty()


def test_is_split_examples(f2t):
    split, _ = parse_symbol("[1/t, t)_2", f2t)
    res = is_split(split, "both", 2)
    assert res.status == "split" and res.witness is not None
    assert tw.norm(res.witness, 0) == tw.rebind(split.b, res.witness_tower)
    nonsplit, _ = parse_symbol("[1, t)_2", f2t)
    res2 = is_split(nonsplit, "both", 2)
    assert res2.status == "nonsplit" and "(t)" in res2.reason
    trivial, _ = parse_symbol("[t, 1)_2", f2t)
    assert is_split(trivial, "norm_search").status == "split"


def test_is_split_unknown_without_backend():
    from charp.ffield import FiniteField
    T = tw.FieldTower(FiniteField(2), ["t1", "t2"])
    s, _ = parse_symbol("[1/t1, t2)_2", T)
    res = is_split(s, "norm_search", 1)
    assert res.status == "unknown"
    with pytest.raises(Exception):
        is_split(s, "invariants")


def test_norm_witness_bounded(f2t):
    s, _ = parse_symbol("[1, t)_2", f2t)
    assert norm_witness(s, 2) is None
    s2, _ = parse_symbol("[1/t, t)_2", f2t)
    z = norm_witness(s2, 2)
    assert z is not None


def test_reduce_expr_reports_certified_upper_bound(f2t):
    e = parse_expr("[t^2, t)_2 * [t, t)_2 * [1, t)_2", f2t)
    red = reduce_expr(e, norm_bound=2)
    # [t^2,t) shifts onto [t,t), merges away; [1,t) stays (nonsplit)
    assert red.length() == 1
    assert expr_invariants(red) == expr_invariants(e)


def test_reduce_expr_invariance_random(f2t):
    rng = random.Random(23)
    for _ in range(15):
        entries = []
        for _ in range(rng.randrange(1, 4)):
            a = rand_elem(rng, f2t, 2)
            b = rand_elem(rng, f2t, 2, nonzero=True)
            entries.append(Symbol(a, b))
        e = BrauerExpr(f2t, 0, entries)
        red = reduce_expr(e, norm_bound=1)
        assert red.length() <= e.length()
        assert expr_invariants(red) == expr_invariants(e)


def test_level_mismatch_rejected(f2t, f3t):
    from charp.symbols import LevelMismatch
    T = tw.make_step(f2t, "insep_root", "s", tw.var_elem(f2t, "t"))
    a0 = tw.int_elem(T, 0, 1)
    b1 = tw.gen_elem(T, 1)
    with pytest.raises(LevelMismatch, match="^slots live at different levels$"):
        Symbol(a0, b1)
    with pytest.raises(LevelMismatch, match="^slots live in different towers$"):
        Symbol(tw.var_elem(f2t, "t"), tw.var_elem(f3t, "t"))
    with pytest.raises(ValueError, match="^the radical slot of a symbol must be nonzero$"):
        Symbol(b1, tw.int_elem(T, 1, 0))  # zero radical slot


def test_symbols_are_immutable_values(f2t):
    # symbols are dict keys and set members throughout the package
    s1 = Symbol(tw.int_elem(f2t, 0, 1), tw.var_elem(f2t, "t"))
    s2 = Symbol(tw.int_elem(f2t, 0, 1), tw.var_elem(f2t, "t"))
    assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2)
    assert len({s1: 0, s2: 1}) == 1
    assert s1 != Symbol(tw.var_elem(f2t, "t"), tw.var_elem(f2t, "t"))
    assert s1 != (s1.a, s1.b)
    with pytest.raises(AttributeError):
        s1.a = tw.var_elem(f2t, "t")
    assert s1.a == tw.int_elem(f2t, 0, 1)


def test_merge_preserves_invariants_p3(f3t):
    rng = random.Random(33)
    for _ in range(50):
        a = rand_elem(rng, f3t, 2)
        b1 = rand_elem(rng, f3t, 2, nonzero=True)
        b2 = rand_elem(rng, f3t, 2, nonzero=True)
        e = BrauerExpr(f3t, 0, [Symbol(a, b1), Symbol(a, b2)])
        assert expr_invariants(merge_same_a(e)) == expr_invariants(e)


def test_oracle_routes_never_disagree(f2t):
    # "both" raises if a witness is found for a class with nonzero invariant
    rng = random.Random(34)
    for _ in range(50):
        a = rand_elem(rng, f2t, 2)
        b = rand_elem(rng, f2t, 2, nonzero=True)
        is_split(Symbol(a, b), "both", 2)


def test_nonzero_invariant_blocks_witnesses(f2t):
    rng = random.Random(35)
    checked = 0
    while checked < 30:
        a = rand_elem(rng, f2t, 2)
        b = rand_elem(rng, f2t, 2, nonzero=True)
        s = Symbol(a, b)
        if is_split(s, "invariants").status != "nonsplit":
            continue
        assert norm_witness(s, 1) is None
        checked += 1
