"""Differential test of rational-function arithmetic.

Every ``RatFunc`` is kept in one normal form (numerator and denominator
coprime, denominator's grlex-leading coefficient one), so each field
operation must give, field by field, the same ``num`` and ``den`` as
reducing the schoolbook fraction from scratch with ``RatFunc(num, den)``.
Fields GF(2), GF(3) and GF(4) in one and two variables; operands include
zero, constants, monomials, equal operands and denominators sharing a
factor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from charp.ffield import FiniteField
from charp.poly import Poly, PolyRing, RatFunc

FIELDS = ((2, 1), (3, 1), (2, 2))


def _ring(p, d, nvars):
    return PolyRing(FiniteField(p, d), ("t1", "t2")[:nvars])


@st.composite
def _polys(draw, ring, nonzero=False):
    """A zero, constant, monomial or general polynomial of degree <= 2 per variable."""
    units = [c for c in ring.field.elements() if not ring.field.is_zero(c)]
    mons = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    kinds = ("constant", "monomial", "general") if nonzero else (
        "zero", "constant", "monomial", "general")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return ring.zero()
    if kind == "constant":
        return ring.constant(draw(st.sampled_from(units)))
    if kind == "monomial":
        return Poly(ring, {draw(mons): draw(st.sampled_from(units))})
    terms = draw(st.dictionaries(mons, st.sampled_from(units), min_size=1, max_size=4))
    return Poly(ring, terms)


@st.composite
def _operands(draw):
    """(x, y): two reduced fractions whose denominators share a drawn factor,
    one fraction twice, or x and z - x for a drawn z, whose sum cancels
    factors of both denominators."""
    p, d = draw(st.sampled_from(FIELDS))
    ring = _ring(p, d, draw(st.sampled_from((1, 2))))
    shared = draw(_polys(ring, nonzero=True))
    x = RatFunc(draw(_polys(ring)), shared * draw(_polys(ring, nonzero=True)))
    kind = draw(st.sampled_from(("distinct", "identical", "equal", "cancelling")))
    if kind == "identical":
        return x, x
    if kind == "equal":
        return x, RatFunc(x.num, x.den)
    if kind == "cancelling":
        z = RatFunc(draw(_polys(ring)), draw(_polys(ring, nonzero=True)))
        return x, RatFunc(z.num * x.den - x.num * z.den, z.den * x.den)
    return x, RatFunc(draw(_polys(ring)), shared * draw(_polys(ring, nonzero=True)))


def _same(got, expected):
    assert (got.num, got.den) == (expected.num, expected.den)


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_field_operations_match_full_reduction(xy):
    x, y = xy
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    _same(x + y, RatFunc(n1 * d2 + n2 * d1, d1 * d2))
    _same(x - y, RatFunc(n1 * d2 - n2 * d1, d1 * d2))
    _same(x * y, RatFunc(n1 * n2, d1 * d2))
    _same(x * x, RatFunc(n1 * n1, d1 * d1))
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _same(x / y, RatFunc(n1 * d2, d1 * n2))
