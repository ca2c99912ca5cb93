"""Differential test of the local-invariant oracle.

``local_invariant(a, b, v)`` is compared with an independent reading of
Tr res_v(a db/b) over GF(p)(t).  At a finite place pi of degree e a root
alpha of pi is found by search in GF(p^e), a db/b is Taylor-shifted to
t = alpha + s, the coefficient of s^-1 is read off modulo s^m and traced to
GF(p).  At infinity the shift is t = 1/s, with dt = -ds/s^2.  The slot a has
a pole order divisible by p at a place of degree 1 to 3, and often a
polynomial part of degree divisible by p.
"""

import random

import pytest

from conftest import rand_poly
from substitution import substitute
from charp.ffield import FiniteField
from charp.invariants import Place, local_invariant, support_places
from charp.poly import (PolyRing, RatFunc, factor_univariate, poly_divmod_1var,
                        poly_exact_div, poly_inv_mod)


def _irreducible(rng, ring, e):
    t = ring.var("t")
    while True:
        pi = t ** e + rand_poly(rng, ring, e - 1)
        if factor_univariate(pi)[1] == {pi: 1}:
            return pi


def _root(pi):
    """GF(p^e) and a root of the place pi in it, found by search."""
    F = FiniteField(pi.ring.field.p, pi.degree_in(0))
    embed = lambda c: F.from_int(c[0])
    for alpha in F.elements():
        if F.is_zero(substitute(pi, {"t": alpha}, F.zero, F.one, F.add, F.mul, embed)):
            return F, alpha
    raise AssertionError("an irreducible polynomial has a root in its residue field")


def _shift(f, value):
    """f(value) for a rational function ``value`` in s over a larger field."""
    S = value.ring
    embed = lambda c: RatFunc.from_poly(S.constant(S.field.from_int(c[0])))
    to_s = lambda g: substitute(g, {"t": value}, RatFunc.zero(S), RatFunc.one(S),
                                  lambda x, y: x + y, lambda x, y: x * y, embed)
    return to_s(f.num) / to_s(f.den)


def _residue_at_zero(g):
    """The coefficient of s^-1 in the expansion of g at s = 0."""
    S = g.ring
    m = min(mon[0] for mon in g.den.terms)
    if m == 0:
        return S.field.zero
    s_m = S.var("s") ** m
    h = poly_exact_div(g.den, s_m)
    r = poly_divmod_1var(g.num * poly_inv_mod(h, s_m), s_m)[1]
    return r.terms.get((m - 1,), S.field.zero)


def _oracle(a, b, place):
    omega = a * b.derivative("t") / b
    if place.is_infinite:
        F = a.ring.field
        s = RatFunc.from_poly(PolyRing(F, ["s"]).var("s"))
        g = -_shift(omega, s.inv()) / (s * s)
    else:
        F, alpha = _root(place.pi)
        S = PolyRing(F, ["s"])
        g = _shift(omega, RatFunc.from_poly(S.var("s") + S.constant(alpha)))
    return F.trace_to_prime(_residue_at_zero(g))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_invariant_matches_taylor_shift(p):
    rng = random.Random(4000 + p)
    R = PolyRing(FiniteField(p), ["t"])
    t = R.var("t")
    for _ in range(10):
        pi = _irreducible(rng, R, rng.randint(1, 3))
        a = RatFunc(rand_poly(rng, R, 3), pi ** p * rand_poly(rng, R, 1, nonzero=True))
        if rng.random() < 0.6:
            a = a + RatFunc.from_poly(t ** p + rand_poly(rng, R, p - 1))
        b = RatFunc(rand_poly(rng, R, 2, nonzero=True) * pi ** rng.randint(0, 2),
                    rand_poly(rng, R, 2, nonzero=True))
        places = [pl for pl in support_places(a, b) if pl.degree <= 3]
        if Place(pi) not in places:
            places.append(Place(pi))
        for place in places:
            assert local_invariant(a, b, place) == _oracle(a, b, place), (a, b, place)
