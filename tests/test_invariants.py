import random

import pytest

from conftest import rand_ratfunc
from charp.ffield import FiniteField
from charp.invariants import (INF, InvariantVector, Place, RealizeError,
                              index_exponent, local_invariant, realize_pairs,
                              support_places, symbol_vector, traced_residue, valuation)
from charp.poly import PolyRing, RatFunc
from charp.textform import format_invariant_vector


def ring(p=2, d=1):
    return PolyRing(FiniteField(p, d), ["t"])


def test_local_invariant_pinned_examples():
    R = ring()
    t = R.var("t")
    one = RatFunc.one(R)
    tf = RatFunc.from_poly(t)
    place_t = Place(t)
    assert local_invariant(one, tf, place_t) == 1
    assert local_invariant(one, tf, INF) == 1
    assert local_invariant(one, tf, Place(t + R.one())) == 0
    # a = 1/t kills the invariant at (t)
    assert local_invariant(RatFunc(R.one(), t), tf, place_t) == 0
    # a = 0 vanishes everywhere
    assert symbol_vector(RatFunc.zero(R), tf, 2).is_zero()


def test_places_are_immutable_values():
    R = ring()
    t = R.var("t")
    first, second = Place(t + R.one()), Place(t + R.one())
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first: 0, second: 1}) == 1
    assert first != Place(t) and first != INF and Place(None) == INF
    assert first != (first.pi,)
    with pytest.raises(AttributeError):
        first.pi = t
    assert first.pi == t + R.one()


def test_vector_formatting():
    R = ring()
    v = symbol_vector(RatFunc.one(R), RatFunc.from_poly(R.var("t")), 2)
    assert format_invariant_vector(v) == "{(t): 1/2, inf: 1/2}"


def test_index_exponent():
    R = ring()
    t = R.var("t")
    zero = InvariantVector(2)
    assert index_exponent(zero) == (1, 1)
    v = symbol_vector(RatFunc.one(R), RatFunc.from_poly(t), 2)
    assert index_exponent(v) == (2, 2)
    R3 = ring(3)
    t3 = R3.var("t")
    v3 = InvariantVector(3, {Place(t3): 1, Place(t3 + R3.one()): 1, INF: 1})
    assert index_exponent(v3) == (3, 3)


def test_residue_at_higher_degree_place():
    # res of dpi/pi at (pi) is 1 (dlog residue), and Tr_{GF(9)/GF(3)}(1) = 2
    R = ring(3)
    t = R.var("t")
    pi = t * t + R.one()
    place = Place(pi)
    assert traced_residue(RatFunc(pi.derivative(0), pi), place) == 2
    assert traced_residue(RatFunc(t, pi), place) == 1
    assert traced_residue(RatFunc(R.one(), pi), place) == 0


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 2)])
def test_degree_one_places_match_the_reduced_form(p, d):
    """``symbol_vector`` takes a place t + c by the shift t = -c + s; at
    multiplicities 1, p, p + 1 and 2p + 1 in D = a.den * b.num * b.den,
    split over the three factors so that N also vanishes at the root in
    the unreduced form, each entry is ``local_invariant`` there."""
    R = ring(p, d)
    t, elems = R.var("t"), list(R.field.elements())
    u = t * t + R.constant(R.field.gen)
    nonzero = 0
    for c, c2 in zip(elems[:3], elems[1:4]):
        pi, other = t + R.constant(c), t + R.constant(c2)
        for m in (1, p, p + 1, 2 * p + 1):
            for i, j in ((m, 0), (0, m), (1, m - 1), (m // 2, m - m // 2)):
                for a, b in ((RatFunc(u, pi ** i), RatFunc(pi ** j * other, R.one())),
                             (RatFunc(u, pi ** i), RatFunc(other, pi ** j))):
                    assert support_places(a, b)[Place(pi)] == m
                    v = symbol_vector(a, b, p)
                    for place in support_places(a, b):
                        assert v.entries.get(place, 0) == local_invariant(a, b, place)
                    nonzero += bool(v.entries.get(Place(pi)))
    assert nonzero


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_reciprocity_random(p, d):
    rng = random.Random(10 * p + d)
    R = ring(p, d)
    checked = 0
    while checked < 40:
        a = rand_ratfunc(rng, R, 3)
        b = rand_ratfunc(rng, R, 3, nonzero=True)
        v = symbol_vector(a, b, p)
        assert v.total() == 0
        checked += 1


def test_shift_invariance_smoke():
    rng = random.Random(77)
    R = ring()
    for _ in range(25):
        a = rand_ratfunc(rng, R, 2)
        b = rand_ratfunc(rng, R, 2, nonzero=True)
        c = rand_ratfunc(rng, R, 2)
        w = rand_ratfunc(rng, R, 2, nonzero=True)
        base = symbol_vector(a, b, 2)
        assert symbol_vector(a + (c * c - c), b, 2) == base
        assert symbol_vector(a, b * w * w, 2) == base


def test_realize_pinned_examples():
    R = ring()
    t = R.var("t")
    tf = RatFunc.from_poly(t)
    v = InvariantVector(2, {Place(t): 1, INF: 1})
    pairs = realize_pairs(v, R, [tf])
    assert len(pairs) == 1
    a, b, idx = pairs[0]
    assert b == tf and idx == 0
    assert symbol_vector(a, b, 2) == v
    # empty vector: no symbols at all
    assert realize_pairs(InvariantVector(2), R, None) == []
    # two places with the product slot: the constant one works
    v2 = InvariantVector(2, {Place(t): 1, Place(t + R.one()): 1})
    pairs2 = realize_pairs(v2, R, [RatFunc.from_poly(t * t + t)])
    total = InvariantVector(2)
    for a2, b2, _ in pairs2:
        total = total + symbol_vector(a2, b2, 2)
    assert total == v2


def test_realize_free_choice_round_trip():
    rng = random.Random(5)
    R = ring()
    for _ in range(10):
        a = rand_ratfunc(rng, R, 2)
        b = rand_ratfunc(rng, R, 2, nonzero=True)
        v = symbol_vector(a, b, 2)
        pairs = realize_pairs(v, R, None)
        got = InvariantVector(2)
        for aa, bb, _ in pairs:
            got = got + symbol_vector(aa, bb, 2)
        assert got == v


def test_realize_infeasible_reports_place():
    R = ring()
    t = R.var("t")
    # target at (t+1) but the slot only covers (t)
    v = InvariantVector(2, {Place(t + R.one()): 1, INF: 1})
    with pytest.raises(RealizeError) as err:
        realize_pairs(v, R, [RatFunc.from_poly(t)])
    assert err.value.place is not None
    with pytest.raises(RealizeError):
        realize_pairs(InvariantVector(2, {Place(t): 1}), R, None)  # nonzero sum


def test_valuation():
    R = ring()
    t = R.var("t")
    x = RatFunc(t * t, t + R.one())
    assert valuation(x, Place(t)) == 2
    assert valuation(x, Place(t + R.one())) == -1
    assert valuation(x, INF) == -1


def test_expression_level_examples():
    from charp.oracle import expr_invariants
    from charp.symbols import BrauerExpr, Symbol
    from charp.textform import parse_expr, parse_tower
    from charp import towers as tw
    T = parse_tower("GF(2)(t)")
    # the empty expression has the zero vector
    assert expr_invariants(BrauerExpr(T, 0, [])).is_zero()
    # doubling any symbol kills the vector (entries live in Z/2)
    e = parse_expr("[1, t)_2 * [1, t)_2", T)
    assert expr_invariants(e).is_zero()
    # entrywise additivity
    e1 = parse_expr("[1, t)_2", T)
    e2 = parse_expr("[t, t+1)_2", T)
    assert expr_invariants(e1.tensor(e2)) == expr_invariants(e1) + expr_invariants(e2)
