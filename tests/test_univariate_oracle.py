"""Differential tests of the univariate arithmetic.

Over the prime fields GF(2), GF(3) and GF(5) every result is compared with
sympy's ``Poly(..., modulus=p)``; sympy is a test-only dependency.  Over
GF(4) and GF(9), which sympy's modular polynomials do not cover, the
defining identities are checked instead.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sympy.polys.subresultants_qq_zz import sylvester

from charp.ffield import FiniteField
from charp.poly import (Poly, PolyRing, factor_univariate, poly_divmod_1var, poly_gcd,
                        poly_inv_mod, _upoly_gcdex, _upoly_resultant)

X = sympy.Symbol("x")
PRIMES = (2, 3, 5)


def _ring(p):
    return PolyRing(FiniteField(p), ["t"])


def _poly(ring, coeffs):
    """Poly from little-endian coefficient tuples."""
    return Poly(ring, {(e,): c for e, c in enumerate(coeffs)})


def _prime_poly(ring, ints):
    return _poly(ring, [(c % ring.field.p,) for c in ints])


def _sym(ints, p):
    return sympy.Poly(list(reversed(ints)) or [0], X, modulus=p)


def _from_sym(ring, s):
    p = ring.field.p
    return _prime_poly(ring, [int(c) % p for c in reversed(s.all_coeffs())])


def _dense(f):
    return [f.terms.get((e,), f.ring.field.zero) for e in range(f.degree_in(0) + 1)]


# -- GF(p) against sympy -------------------------------------------------------

def _ints(max_len=9):
    return st.lists(st.integers(0, 4), max_size=max_len)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), _ints(), _ints())
def test_divmod_matches_sympy(p, fi, gi):
    R = _ring(p)
    f, g = _prime_poly(R, fi), _prime_poly(R, gi)
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod_1var(f, g)
        return
    q, r = poly_divmod_1var(f, g)
    sq, sr = _sym(fi, p).div(_sym(gi, p))
    assert q == _from_sym(R, sq)
    assert r == _from_sym(R, sr)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), _ints(), _ints())
def test_gcd_matches_sympy(p, ai, bi):
    R = _ring(p)
    a, b = _prime_poly(R, ai), _prime_poly(R, bi)
    expected = _from_sym(R, _sym(ai, p).gcd(_sym(bi, p)))
    assert poly_gcd(a, b) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), _ints(), _ints())
def test_inv_mod_matches_sympy(p, ai, mi):
    R = _ring(p)
    a, m = _prime_poly(R, ai), _prime_poly(R, mi)
    if m.degree_in(0) < 1:
        return
    try:
        expected = _from_sym(R, _sym(ai, p).invert(_sym(mi, p)))
    except sympy.polys.polyerrors.NotInvertible:
        with pytest.raises(ArithmeticError):
            poly_inv_mod(a, m)
        return
    assert poly_inv_mod(a, m) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), _ints(), _ints())
def test_resultant_matches_sympy(p, ai, bi):
    F = FiniteField(p)
    R = _ring(p)
    a, b = _prime_poly(R, ai), _prime_poly(R, bi)
    if a.is_zero() or b.is_zero():
        return
    # The Sylvester determinant, not Poly.resultant: sympy 1.14 gives
    # Res(x+1, x^3) = 1 where the determinant is -1.
    sylv = sylvester(_sym(ai, p).as_expr(), _sym(bi, p).as_expr(), X)
    expected = int(sylv.det()) % p
    assert _upoly_resultant(F, _dense(a), _dense(b)) == (expected,)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), _ints(8))
def test_factor_matches_sympy(p, fi):
    R = _ring(p)
    f = _prime_poly(R, fi)
    if f.is_zero():
        return
    lc, factors = factor_univariate(f)
    slc, sfactors = _sym(fi, p).factor_list()
    assert lc == (int(slc) % p,)
    expected = {}
    for s, k in sfactors:
        monic = s.monic()
        expected[_from_sym(R, monic)] = k
    assert factors == expected


# -- GF(4), GF(9): identities --------------------------------------------------

def _elems(field, max_len=7):
    return st.lists(st.sampled_from(list(field.elements())), max_size=max_len)


EXT_FIELDS = (FiniteField(2, 2), FiniteField(3, 2))


@pytest.mark.parametrize("F", EXT_FIELDS, ids=lambda F: "GF(%d)" % F.order)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_divmod_identity(F, data):
    R = PolyRing(F, ["t"])
    f = _poly(R, data.draw(_elems(F)))
    g = _poly(R, data.draw(_elems(F)))
    if g.is_zero():
        return
    q, r = poly_divmod_1var(f, g)
    assert q * g + r == f
    assert r.degree_in(0) < g.degree_in(0)


@pytest.mark.parametrize("F", EXT_FIELDS, ids=lambda F: "GF(%d)" % F.order)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gcd_divides_and_is_a_combination(F, data):
    R = PolyRing(F, ["t"])
    ac, bc = data.draw(_elems(F)), data.draw(_elems(F))
    a, b = _poly(R, ac), _poly(R, bc)
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.leading_coeff() == F.one
    for x in (a, b):
        assert poly_divmod_1var(x, g)[1].is_zero()
    gd, u = _upoly_gcdex(F, _dense(a), _dense(b))
    assert _poly(R, gd) == g
    # u*a + v*b = g for some v: b divides g - u*a (and g - u*a = 0 when b = 0)
    rest = g - _poly(R, u) * a
    assert rest.is_zero() if b.is_zero() else poly_divmod_1var(rest, b)[1].is_zero()


@pytest.mark.parametrize("F", EXT_FIELDS, ids=lambda F: "GF(%d)" % F.order)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_inv_mod_identity(F, data):
    R = PolyRing(F, ["t"])
    a = _poly(R, data.draw(_elems(F)))
    m = _poly(R, data.draw(_elems(F)))
    if m.degree_in(0) < 1:
        return
    if not poly_gcd(a, m).is_constant() or a.is_zero():
        with pytest.raises(ArithmeticError):
            poly_inv_mod(a, m)
        return
    inv = poly_inv_mod(a, m)
    assert inv.degree_in(0) < m.degree_in(0)
    assert poly_divmod_1var(inv * a, m)[1] == R.one()
