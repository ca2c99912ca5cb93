"""Differential test of the multivariate gcd against sympy.

Inputs are built as a*c and b*c over GF(2), GF(3) and GF(5), so the gcd is
nontrivial whenever c is; sympy's ``Poly(..., modulus=p).gcd`` is the
reference for the total degree, and the result must divide both inputs
exactly.  Besides general pairs in two variables, the inputs take the
shapes ``poly_gcd`` answers without the primitive remainder sequence:
constant and monomial operands (also in one variable), operands with one
variable in common and disjoint supports; and pairs in three variables.
Every operand is nonzero by construction (at least one term, coefficients
in 1..p-1), so no draw is filtered out.  sympy is a test-only dependency.

Exact division by a single term (a constant, a variable or a term such as
g*t1*t2^2) shifts exponents instead of running the long division; it is
checked over GF(2)(t1,t2) and GF(4)(t1,t2) against the product it undoes,
against a dividend with a term the divisor does not divide, and through
``poly_valuation`` at t1 against the least t1-exponent.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from charp.ffield import FiniteField
from charp.poly import Poly, PolyRing, poly_exact_div, poly_gcd, poly_valuation

SYMBOLS = sympy.symbols("x y z")


def _terms(max_terms=4, max_exp=2, nvars=2):
    # at least one term, so every operand built from the draw is nonzero
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * nvars),
                           st.integers(1, 4), min_size=1, max_size=max_terms)


def _coeff(p, c):
    """A drawn code mapped into 1..p-1: never zero mod p."""
    return (c % (p - 1) + 1,)


def _poly(ring, terms):
    return Poly(ring, {mon: _coeff(ring.field.p, c) for mon, c in terms.items()})


def _sym(f):
    n = f.ring.nvars
    return sympy.Poly.from_dict({mon: c[0] for mon, c in f.terms.items()} or {(0,) * n: 0},
                                *SYMBOLS[:n], modulus=f.ring.field.p)


def _check_gcd(f, g):
    h = poly_gcd(f, g)
    assert h.total_degree() == _sym(f).gcd(_sym(g)).total_degree()
    assert h.leading_coeff() == f.ring.field.one
    assert poly_exact_div(f, h) * h == f
    assert poly_exact_div(g, h) * h == g


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)), _terms(), _terms(), _terms())
def test_gcd_matches_sympy(p, ai, bi, ci):
    R = PolyRing(FiniteField(p), ["t1", "t2"])
    a, b, c = _poly(R, ai), _poly(R, bi), _poly(R, ci)
    f, g = a * c, b * c
    _check_gcd(f, g)


# shape: (number of variables, variables that a, b and c may involve, and
# whether a and c are single terms)
SHAPES = {
    "constant operand": (2, (), (0, 1), (), True),
    "monomial operand": (2, (0, 1), (0, 1), (0, 1), True),
    "monomial operand in one variable": (1, (0,), (0,), (0,), True),
    "both in one variable": (2, (1,), (1,), (1,), False),
    "one operand in one variable": (2, (0,), (0, 1), (0,), False),
    "disjoint supports": (2, (0,), (1,), (), False),
    "three variables": (3, (0, 1, 2), (0, 1, 2), (0, 1, 2), False),
}


def _restricted(ring, terms, allowed, single):
    """The drawn terms with the exponents of other variables dropped.  Of
    terms that then share a monomial the first is kept, so no coefficients
    cancel and the result is nonzero."""
    out = {}
    for mon, c in list(terms.items())[:1 if single else None]:
        mon = tuple(e if i in allowed else 0 for i, e in enumerate(mon))
        out.setdefault(mon, _coeff(ring.field.p, c))
    return Poly(ring, out)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.sampled_from((2, 3, 5)),
       _terms(nvars=3), _terms(nvars=3), _terms(nvars=3))
def test_gcd_shortcut_shapes_match_sympy(shape, p, ai, bi, ci):
    nvars, a_vars, b_vars, c_vars, single = SHAPES[shape]
    R = PolyRing(FiniteField(p), ["t1", "t2", "t3"][:nvars])
    a = _restricted(R, {m[:nvars]: k for m, k in ai.items()}, a_vars, single)
    b = _restricted(R, {m[:nvars]: k for m, k in bi.items()}, b_vars, False)
    c = _restricted(R, {m[:nvars]: k for m, k in ci.items()}, c_vars, single)
    f, g = a * c, b * c
    _check_gcd(f, g)
    _check_gcd(g, f)


def _nonzero(field, k):
    return [c for c in field.elements() if not field.is_zero(c)][k % (field.order - 1)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from(("constant", "variable", "term")),
       _terms(), st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 2))
def test_single_term_division(d, shape, fi, mon, k):
    field = FiniteField(2, d)
    R = PolyRing(field, ["t1", "t2"])
    f = Poly(R, {m: _nonzero(field, c) for m, c in fi.items()})
    c = _nonzero(field, k)
    g = {"constant": Poly(R, {(0, 0): c}),
         "variable": R.var("t1" if sum(mon) % 2 else "t2"),
         "term": Poly(R, {(mon[0] + 1, mon[1]): c})}[shape]
    assert poly_exact_div(f * g, g) == f
    if not g.is_constant():
        with pytest.raises(ArithmeticError):
            poly_exact_div(f * g + R.one(), g)
    v = min(m[0] for m in f.terms)
    assert poly_valuation(f, R.var("t1")) == \
        (v, Poly(R, {(m[0] - v, m[1]): a for m, a in f.terms.items()}))
