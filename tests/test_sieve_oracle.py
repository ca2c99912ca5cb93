"""Differential test of the height-pool sieve against trial division.

``towers._factor_sets`` maps every monic polynomial of total degree <= h
to its factorization {pi: multiplicity} into monic irreducibles.  The
reference here is brute force: a member of positive degree is irreducible
when no monic member of lower positive degree divides it
(``poly_exact_div`` raises ``ArithmeticError`` for each), a member's
factorization holds exactly the irreducibles that divide it, and each
multiplicity is the number of times trial division by pi succeeds.  The univariate counts per degree are checked
against Gauss's formula (1/n) sum_{d | n} mu(d) q^(n/d).
"""

import pytest

from charp import towers as tw
from charp.poly import poly_exact_div
from charp.textform import parse_tower


def _divides(g, f) -> bool:
    try:
        poly_exact_div(f, g)
    except ArithmeticError:
        return False
    return True


def _sieve(base, h):
    ring = parse_tower(base).ring
    monics = tw._polys_up_to(ring, h, monic=True)
    return monics, tw._factor_sets(monics)


def _valuation(g, f) -> int:
    v = 0
    while _divides(g, f):
        f = poly_exact_div(f, g)
        v += 1
    return v


def _irreducibles(factors) -> set:
    return {f for f, fs in factors.items() if fs == {f: 1}}


@pytest.mark.parametrize("base, h", [("GF(2)(t1,t2)", 2), ("GF(3)(t)", 3), ("GF(2)(t)", 4)])
def test_sieve_matches_trial_division(base, h):
    monics, factors = _sieve(base, h)
    assert set(factors) == set(monics)
    irreducible = {f for f in monics if f.total_degree() > 0
                   and not any(_divides(g, f) for g in monics
                               if 0 < g.total_degree() < f.total_degree())}
    assert _irreducibles(factors) == irreducible
    for f in monics:
        assert set(factors[f]) == {g for g in irreducible if _divides(g, f)}
        assert factors[f] == {g: _valuation(g, f) for g in factors[f]}


def _moebius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def _gauss(q: int, n: int) -> int:
    return sum(_moebius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("base, q, counts", [("GF(2)(t)", 2, [2, 1, 2, 3]),
                                             ("GF(3)(t)", 3, [3, 3, 8])])
def test_univariate_irreducible_counts_match_gauss(base, q, counts):
    h = len(counts)
    _, factors = _sieve(base, h)
    found = [0] * h
    for f in _irreducibles(factors):
        found[f.total_degree() - 1] += 1
    assert found == counts == [_gauss(q, n) for n in range(1, h + 1)]
