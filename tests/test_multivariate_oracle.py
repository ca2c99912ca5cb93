"""Differential test of the multivariate gcd against sympy.

Inputs are built as a*c and b*c over GF(2), GF(3) and GF(5) in two
variables, so the gcd is nontrivial whenever c is; sympy's
``Poly(..., modulus=p).gcd`` is the reference for the total degree, and the
result must divide both inputs exactly.  sympy is a test-only dependency.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from charp.ffield import FiniteField
from charp.poly import Poly, PolyRing, poly_exact_div, poly_gcd

X, Y = sympy.symbols("x y")


def _terms(max_terms=4, max_exp=2):
    return st.dictionaries(st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
                           st.integers(1, 4), max_size=max_terms)


def _poly(ring, terms):
    p = ring.field.p
    return Poly(ring, {mon: (c % p,) for mon, c in terms.items() if c % p})


def _sym(f):
    return sympy.Poly.from_dict({mon: c[0] for mon, c in f.terms.items()} or {(0, 0): 0},
                                X, Y, modulus=f.ring.field.p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)), _terms(), _terms(), _terms())
def test_gcd_matches_sympy(p, ai, bi, ci):
    R = PolyRing(FiniteField(p), ["t1", "t2"])
    a, b, c = _poly(R, ai), _poly(R, bi), _poly(R, ci)
    f, g = a * c, b * c
    assume(not f.is_zero() and not g.is_zero())
    h = poly_gcd(f, g)
    assert h.total_degree() == _sym(f).gcd(_sym(g)).total_degree()
    assert poly_exact_div(f, h) * h == f
    assert poly_exact_div(g, h) * h == g
