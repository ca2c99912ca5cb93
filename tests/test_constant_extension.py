"""Independent cross-check of the residue machinery: behaviour of invariant
vectors under the quadratic constant-field extension.

A place of odd degree stays irreducible over the bigger constant field and
its local degree doubles, so an exponent-2 invariant there must die; a
place of even degree splits into two places of halved degree with local
degree one, so each carries the original value.  This exercises residue
fields of degree above one, residues read off principal parts, and the
constant-field rationalization, against plain factorization arithmetic.
"""

import random

from conftest import rand_elem
from charp import towers as tw
from charp.ffield import FiniteField
from charp.invariants import INF, InvariantVector, Place
from charp.oracle import expr_invariants
from charp.poly import Poly, factor_univariate
from charp.symbols import BrauerExpr, Symbol
from charp.textform import parse_symbol, parse_tower


def lift_vector_to_f4(v0, big_ring):
    """The expected vector over GF(4)(t): factor each place and scale by the
    local degree."""
    expected = InvariantVector(2)
    for place, value in v0.entries.items():
        if place.is_infinite:
            continue  # degree one is odd: the entry dies
        pi4 = Poly(big_ring, {m: c + (0,) for m, c in place.pi.terms.items()})
        _, factors = factor_univariate(pi4)
        e = place.degree
        for w in factors:
            local_degree = 2 if e % 2 else 1
            expected.add_in(Place(w), value * local_degree)
    return expected


def test_pinned_degree_two_place_splits():
    T0 = parse_tower("GF(2)(t)")
    s, _ = parse_symbol("[t, t^2+t+1)_2", T0)
    v0 = expr_invariants(BrauerExpr(T0, 0, [s]))
    pi = T0.ring.var("t") ** 2 + T0.ring.var("t") + T0.ring.one()
    assert v0.entries == {Place(pi): 1, INF: 1}
    L = parse_tower("GF(2)(t) ; AS c: c^2+c = 1")
    sL, _ = parse_symbol("[t, t^2+t+1)_2", L)
    vL = expr_invariants(BrauerExpr(L, 1, [sL.lift_to(1)]))
    assert all(pl.degree == 1 for pl in vL.support())
    assert sorted(vL.entries.values()) == [1, 1]
    big_ring = tw.FieldTower(FiniteField(2, 2), ["t"]).ring
    assert {frozenset(p.pi.terms) for p in vL.support()} == \
        {frozenset(p.pi.terms) for p in lift_vector_to_f4(v0, big_ring).support()}


def test_random_symbols_respect_constant_extension_functoriality():
    T0 = parse_tower("GF(2)(t)")
    L = parse_tower("GF(2)(t) ; AS c: c^2+c = 1")
    big_ring = tw.FieldTower(FiniteField(2, 2), ["t"]).ring
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        a = rand_elem(rng, T0, 3)
        b = rand_elem(rng, T0, 3, nonzero=True)
        v0 = expr_invariants(BrauerExpr(T0, 0, [Symbol(a, b)]))
        sL = Symbol(tw.rebind(a, L), tw.rebind(b, L)).lift_to(1)
        vL = expr_invariants(BrauerExpr(L, 1, [sL]))
        expected = lift_vector_to_f4(v0, big_ring)
        got = {frozenset(p.pi.terms): val for p, val in vL.entries.items()
               if not p.is_infinite}
        want = {frozenset(p.pi.terms): val for p, val in expected.entries.items()}
        assert got == want
        assert INF not in vL.entries  # the infinite place has odd degree
        checked += 1
