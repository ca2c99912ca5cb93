"""Differential test of ``symbol_vector`` against the per-place reference.

``symbol_vector`` reads every principal part off the unreduced form of
a db/b, with the multiplicities of the factorizations of a.den, b.num and
b.den.  It must equal ``local_invariant``, which reduces a db/b and finds
each valuation by trial division, at every place of ``support_places``.

Hypothesis draws the four slot polynomials over GF(2), GF(3), GF(4), GF(5)
and GF(9) as a leading coefficient times powers of a few shared small
irreducibles times a free polynomial, so the slots share primes, carry
multiplicities of p and above, and b.num need not be monic; a is zero in
some draws and b a p-th power (b' = 0) in others.
"""

from hypothesis import given, settings, strategies as st

from charp.ffield import FiniteField
from charp.invariants import InvariantVector, local_invariant, support_places, symbol_vector
from charp.poly import Poly, PolyRing, RatFunc, factor_univariate

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))


def _irreducibles(ring, count=4):
    """The first ``count`` monic irreducibles t + c and t^2 + c1 t + c0, in
    element order."""
    field, t = ring.field, ring.var("t")
    elems = list(field.elements())
    candidates = [t + ring.constant(c) for c in elems] + [
        Poly(ring, {(2,): field.one, (1,): c1, (0,): c0}) for c1 in elems for c0 in elems]
    return [pi for pi in candidates if factor_univariate(pi)[1] == {pi: 1}][:count]


@st.composite
def _poly(draw, ring, pool, p, nonzero=True):
    field = ring.field
    elems = list(field.elements())
    lc = draw(st.sampled_from(elems[1:]))
    f = ring.constant(lc)
    for pi in pool:
        f = f * pi ** draw(st.integers(0, p + 1))
    free = Poly(ring, {(e,): draw(st.sampled_from(elems)) for e in range(draw(st.integers(0, 3)))})
    if not free.is_zero() or not nonzero:
        f = f * free
    return f


@st.composite
def _symbol(draw):
    p, d = draw(st.sampled_from(FIELDS))
    ring = PolyRing(FiniteField(p, d), ["t"])
    pool = _irreducibles(ring)
    a = RatFunc(draw(_poly(ring, pool, p, nonzero=False)), draw(_poly(ring, pool, p)))
    b = RatFunc(draw(_poly(ring, pool, p)), draw(_poly(ring, pool, p)))
    if draw(st.integers(0, 5)) == 0:
        a = RatFunc.zero(ring)
    if draw(st.integers(0, 5)) == 0:
        b = b ** p
    return a, b, p


@settings(max_examples=300, deadline=None)
@given(_symbol())
def test_symbol_vector_matches_local_invariant(case):
    a, b, p = case
    expected = InvariantVector(p, {place: local_invariant(a, b, place)
                                   for place in support_places(a, b)})
    assert symbol_vector(a, b, p) == expected, (a, b)
    assert expected.total() == 0
