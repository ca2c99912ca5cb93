"""Differential tests of element assembly and polynomial evaluation.

``poly._upoly_eval`` (Horner's rule) is compared with
``substitution.substitute``, which evaluates term by term with a fresh
power per term, over GF(2), GF(3) and GF(4) and over a tower level through
its ``LevelOps``.
``towers._from_coordinates`` is checked as the inverse of
``towers._coordinates(x, 0)`` at every level of every tower of the
rationalization tests, and of a multivariate root chain.
"""

import random

import pytest

from conftest import rand_poly
from substitution import substitute
from test_rationalize import CASES, _rand_at
from charp import towers as tw
from charp.ffield import FiniteField
from charp.poly import Poly, PolyRing, RatFunc, _upoly_eval
from charp.textform import parse_tower

FIELDS = [(2, 1), (3, 1), (2, 2)]


def _dense(f):
    """The coefficient tuples of a univariate polynomial, low degree first,
    read from its terms."""
    return [f.terms.get((e,), f.ring.field.zero) for e in range(f.degree_in(0) + 1)]


@pytest.mark.parametrize("p, d", FIELDS)
def test_horner_matches_substitution_over_gf(p, d):
    F = FiniteField(p, d)
    ring = PolyRing(F, ["t"])
    rng = random.Random(100 * p + d)
    for _ in range(60):
        f = rand_poly(rng, ring, rng.randrange(8))
        for x in F.elements():
            expected = substitute(f, {"t": x}, F.zero, F.one, F.add, F.mul, lambda c: c)
            assert _upoly_eval(F, _dense(f), x) == expected, (f, x)


def test_horner_matches_substitution_at_a_tower_level():
    T = parse_tower("GF(4)(t) ; ROOT s: s^2 = t^3+g")
    ops = tw._ops(T, 1)
    rng = random.Random(7)

    def embed(c):
        return tw.const_elem(T, c, 1).rep

    for _ in range(20):
        f = rand_poly(rng, T.ring, rng.randrange(5))
        x = _rand_at(rng, T, 1).rep
        expected = substitute(f, {"t": x}, ops.zero, ops.one, ops.add, ops.mul, embed)
        assert _upoly_eval(ops, [embed(c) for c in _dense(f)], x) == expected, (f, x)
    # level elements as coefficients too
    for _ in range(10):
        coeffs = [_rand_at(rng, T, 1).rep for _ in range(rng.randrange(1, 5))]
        x = _rand_at(rng, T, 1).rep
        expected, power = ops.zero, ops.one
        for c in coeffs:
            expected = ops.add(expected, ops.mul(c, power))
            power = ops.mul(power, x)
        assert _upoly_eval(ops, coeffs, x) == expected


@pytest.mark.parametrize("text", CASES)
def test_from_coordinates_inverts_coordinates(text):
    T = parse_tower(text)
    rng = random.Random(hash(text) & 0xFFFF)
    for level in range(T.depth + 1):
        for _ in range(4):
            x = _rand_at(rng, T, level)
            assert tw._from_coordinates(T, level, tw._coordinates(x, 0)) == x


def _rand_multivariate(rng, tower):
    ring = tower.ring
    mons = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]

    def poly(nonzero):
        while True:
            f = Poly(ring, {m: (1,) for m in mons if rng.random() < 0.5})
            if not (nonzero and f.is_zero()):
                return f

    return tw.Elem(tower, 0, RatFunc(poly(False), poly(True)))


def test_from_coordinates_inverts_coordinates_multivariate():
    T = tw.FieldTower(FiniteField(2), ["t1", "t2"])
    T = tw.make_step(T, "insep_root", "r", tw.var_elem(T, "t1"))
    T = tw.make_step(T, "insep_root", "u", tw.var_elem(T, "t2", 1))
    base = tw.truncate(T, 0)
    rng = random.Random(11)
    for level in range(T.depth + 1):
        for _ in range(6):
            x = tw.lift(tw.rebind(_rand_multivariate(rng, base), T), level)
            for lvl in range(1, level + 1):
                coeff = tw.lift(tw.rebind(_rand_multivariate(rng, base), T), level)
                x = tw.add(x, tw.mul(tw.lift(tw.gen_elem(T, lvl), level), coeff))
            if level == 2:
                x = tw.add(x, tw.mul(x, tw.gen_elem(T, 2)))
            assert tw._from_coordinates(T, level, tw._coordinates(x, 0)) == x
