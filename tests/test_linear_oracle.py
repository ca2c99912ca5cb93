"""Differential tests of the linear solver.

Over GF(2), GF(3) and GF(5) every system is compared with sympy's
``DomainMatrix(..., GF(p)).rref()``: the solver must agree on consistency
and return sympy's solution with the free unknowns set to zero.  Over GF(4),
GF(9) and the base level of a tower (rational functions) the identity
A*x = b is checked, and systems built as b = A*y must be solved.  sympy is a
test-only dependency.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix

from charp.ffield import FiniteField
from charp.poly import Poly, RatFunc, _solve_linear
from charp.towers import FieldTower, _ops

PRIMES = (2, 3, 5)


def _apply(F, matrix, x):
    out = []
    for row in matrix:
        acc = F.zero
        for a, v in zip(row, x):
            acc = F.add(acc, F.mul(a, v))
        out.append(acc)
    return out


@st.composite
def _shapes(draw):
    return draw(st.integers(1, 5)), draw(st.integers(1, 5))


@st.composite
def _int_system(draw):
    """(p, A, b) over GF(p) with small integer entries; b = A*y half the time."""
    p = draw(st.sampled_from(PRIMES))
    m, n = draw(_shapes())
    entry = st.integers(0, p - 1)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        y = [draw(entry) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, y)) % p for row in A]
    else:
        b = [draw(entry) for _ in range(m)]
    return p, A, b


@settings(max_examples=150, deadline=None)
@given(_int_system())
def test_prime_field_matches_sympy(system):
    p, A, b = system
    m, n = len(A), len(A[0])
    K = sympy.GF(p)
    aug = DomainMatrix([[K(v) for v in row] + [K(c)] for row, c in zip(A, b)],
                       (m, n + 1), K)
    rref, pivots = aug.rref()
    F = FiniteField(p)
    x = _solve_linear(F, [[(v,) for v in row] for row in A], [(c,) for c in b])
    if n in pivots:
        assert x is None
        return
    assert x is not None
    expected = [(0,)] * n
    for i, c in enumerate(pivots):
        expected[c] = (int(rref.to_list()[i][n]) % p,)
    assert x == expected
    assert _apply(F, [[(v,) for v in row] for row in A], x) == [(c,) for c in b]


@st.composite
def _ff_system(draw):
    """(F, A, b, consistent) over GF(4) or GF(9)."""
    p, d = draw(st.sampled_from([(2, 2), (3, 2)]))
    F = FiniteField(p, d)
    elems = list(F.elements())
    m, n = draw(_shapes())
    entry = st.sampled_from(elems)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        y = [draw(entry) for _ in range(n)]
        return F, A, _apply(F, A, y), True
    return F, A, [draw(entry) for _ in range(m)], False


@settings(max_examples=100, deadline=None)
@given(_ff_system())
def test_extension_field_solutions(system):
    F, A, b, consistent = system
    x = _solve_linear(F, A, b)
    if consistent:
        assert x is not None
    if x is not None:
        assert _apply(F, A, x) == b


@st.composite
def _ratfunc_system(draw):
    """(F, A, b, consistent) over GF(p)(t), with F the tower's level-0 ops."""
    p = draw(st.sampled_from([2, 3]))
    tower = FieldTower(FiniteField(p), ["t"])
    ring = tower.ring

    def poly(nonzero):
        coeffs = draw(st.lists(st.integers(0, p - 1), max_size=3))
        f = Poly(ring, {(e,): (c,) for e, c in enumerate(coeffs) if c})
        return ring.one() if nonzero and f.is_zero() else f

    def ratfunc():
        return RatFunc(poly(False), poly(True))

    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    F = _ops(tower, 0)
    A = [[ratfunc() for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        y = [ratfunc() for _ in range(n)]
        return F, A, _apply(F, A, y), True
    return F, A, [ratfunc() for _ in range(m)], False


@settings(max_examples=60, deadline=None)
@given(_ratfunc_system())
def test_ratfunc_solutions(system):
    F, A, b, consistent = system
    x = _solve_linear(F, A, b)
    if consistent:
        assert x is not None
    if x is not None:
        assert _apply(F, A, x) == b
