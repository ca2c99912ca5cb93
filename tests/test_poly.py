import random

import pytest

from conftest import rand_poly, rand_ratfunc
from charp.ffield import FiniteField
from charp.poly import (Poly, PolyRing, RatFunc, _coeff_map, factor_univariate,
                        poly_exact_div, poly_gcd, poly_valuation)
from charp.textform import format_ratfunc, parse_element
from charp.towers import FieldTower


def ring2():
    return PolyRing(FiniteField(2), ["t"])


def test_normalize_examples():
    R = ring2()
    t, one = R.var("t"), R.one()
    # common factor t
    assert format_ratfunc(RatFunc(t * t + t, t)) == "t+1"
    # identity case
    assert format_ratfunc(RatFunc(t, t)) == "1"
    # t^2+1 = (t+1)^2 over GF(2)
    assert format_ratfunc(RatFunc(t * t + one, t + one)) == "t+1"


def test_normalize_zero_denominator():
    R = ring2()
    with pytest.raises(ZeroDivisionError):
        RatFunc(R.one(), R.zero())


def test_normalize_idempotent_and_multiplicative():
    rng = random.Random(11)
    R = ring2()
    for _ in range(60):
        x = rand_ratfunc(rng, R, 4)
        y = rand_ratfunc(rng, R, 4)
        again = RatFunc(x.num, x.den)
        assert again == x
        assert x * y == RatFunc(x.num * y.num, x.den * y.den)


def test_factor_examples():
    R = ring2()
    t, one = R.var("t"), R.one()
    _, f1 = factor_univariate(t * t + t)
    assert f1 == {t: 1, t + one: 1}
    _, f2 = factor_univariate(t * t + t + one)
    assert f2 == {t * t + t + one: 1}
    _, f3 = factor_univariate(t ** 4 + t)
    assert f3 == {t: 1, t + one: 1, t * t + t + one: 1}


def test_factor_zero_rejected():
    R = ring2()
    with pytest.raises(ValueError):
        factor_univariate(R.zero())


@pytest.mark.parametrize("p,d,count", [(2, 1, 334), (3, 1, 333), (2, 2, 333)])
def test_factor_remultiplies(p, d, count):
    rng = random.Random(100 * p + d)
    R = PolyRing(FiniteField(p, d), ["t"])
    done = 0
    while done < count:
        f = rand_poly(rng, R, 8, nonzero=True)
        if f.is_constant():
            continue
        lc, factors = factor_univariate(f)
        prod = R.constant(lc)
        for pi, mult in factors.items():
            assert pi.leading_coeff() == R.field.one
            prod = prod * pi ** mult
        assert prod == f
        done += 1


def test_factor_deterministic_under_seed():
    R = PolyRing(FiniteField(2, 2), ["t"])
    rng = random.Random(5)
    f = rand_poly(rng, R, 8, nonzero=True)
    assert factor_univariate(f) == factor_univariate(f)


def test_factor_seeds_its_stream_on_the_first_draw(monkeypatch):
    # only the equal-degree split draws, so a factorization with nothing to
    # split builds no random.Random; one that splits builds one, seeded 0
    made = []
    real = random.Random
    monkeypatch.setattr(random, "Random", lambda seed: made.append(seed) or real(seed))
    R = ring2()
    t, one = R.var("t"), R.one()
    assert factor_univariate(t * t + t + one)[1] == {t * t + t + one: 1}
    assert factor_univariate((t * t + t + one) ** 3 * t ** 2)[1] == {t: 2, t * t + t + one: 3}
    assert made == []
    assert list(factor_univariate(t * t + t)[1].items()) == [(t + one, 1), (t, 1)]
    assert made == [0]


def test_pth_root_examples():
    R = ring2()
    t = R.var("t")
    x = RatFunc.from_poly(t * t)
    assert format_ratfunc(x.pth_root()) == "t"
    assert RatFunc.from_poly(t).pth_root() is None
    # multivariate: (t1^2 t2^4 + t1^4)/t2^2 has square root (t1 t2^2 + t1^2)/t2
    R2 = PolyRing(FiniteField(2), ["t1", "t2"])
    tower = FieldTower(FiniteField(2), ["t1", "t2"])
    x2 = parse_element("(t1^2*t2^4+t1^4)/t2^2", tower).rep
    root = x2.pth_root()
    assert root is not None
    assert root * root == x2
    assert root == parse_element("(t1*t2^2+t1^2)/t2", tower).rep


def test_pth_root_brute_force_cross_check():
    # the exponent test agrees with exhaustive search over small heights
    R = ring2()
    rng = random.Random(3)
    smalls = []
    for n_code in range(8):
        for d_code in range(1, 8):
            num = sum((Poly(R, {(e,): R.field.one}) for e in range(3) if n_code >> e & 1),
                      R.zero())
            den = sum((Poly(R, {(e,): R.field.one}) for e in range(3) if d_code >> e & 1),
                      R.zero())
            if not den.is_zero():
                smalls.append(RatFunc(num, den))
    pool = set(smalls)
    for x in smalls:
        root = x.pth_root()
        brute = [y for y in pool if y * y == x]
        if root is not None:
            assert root in brute
        else:
            assert not brute


def test_derivative_examples_and_leibniz():
    R = ring2()
    t, one = R.var("t"), R.one()
    assert RatFunc.from_poly(t * t).derivative("t").is_zero()
    assert format_ratfunc(RatFunc.from_poly(t ** 3).derivative("t")) == "t^2"
    d = RatFunc(one, t + one).derivative("t")
    assert d == RatFunc(one, (t + one) * (t + one))
    rng = random.Random(7)
    for _ in range(80):
        x = rand_ratfunc(rng, R, 3)
        y = rand_ratfunc(rng, R, 3)
        lhs = (x * y).derivative("t")
        rhs = x.derivative("t") * y + x * y.derivative("t")
        assert lhs == rhs
        assert (x * x).derivative("t").is_zero()  # d(x^p) = 0


def test_multivariate_gcd_reduction():
    R = PolyRing(FiniteField(2), ["x", "y"])
    x, y = R.var("x"), R.var("y")
    f = (x + y) * (x * y + R.one())
    g = (x + y) * x
    gcd = poly_gcd(f, g)
    assert gcd == x + y
    frac = RatFunc(f, g)
    assert frac.num == x * y + R.one()
    assert frac.den == x


def test_multivariate_exact_division():
    R = PolyRing(FiniteField(3), ["x", "y"])
    x, y = R.var("x"), R.var("y")
    g = x * y + y * y + R.from_int(2)
    q = x * x + R.from_int(2) * x * y + y + R.one()
    assert poly_exact_div(q * g, g) == q
    assert poly_exact_div(R.zero(), g).is_zero()
    for f in (q * g + R.one(), q * g + x, x * x):
        with pytest.raises(ArithmeticError):
            poly_exact_div(f, g)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(q, R.zero())


def test_pth_root_inverts_pth_power():
    rng = random.Random(17)
    R = ring2()
    for _ in range(40):
        x = rand_ratfunc(rng, R, 3)
        assert (x * x).pth_root() == x


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_monomial_powers_equal_repeated_products(p, d):
    R = PolyRing(FiniteField(p, d), ["t"])
    for c in list(R.field.elements())[1:]:
        for k in range(3):
            f = Poly(R, {(k,): c})
            prod = R.one()
            for e in range(6):
                assert f ** e == prod
                prod = prod * f
    assert R.zero() ** 0 == R.one() and R.zero() ** 3 == R.zero()


from hypothesis import given, settings, strategies as st


def _frac_from_codes(ring, ncode, dcode):
    num = Poly(ring, {(e,): ring.field.one for e in range(4) if ncode >> e & 1})
    den = Poly(ring, {(e,): ring.field.one for e in range(4) if dcode >> e & 1})
    return RatFunc(num, den)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 15), st.integers(1, 15),
       st.integers(0, 15), st.integers(1, 15),
       st.integers(0, 15), st.integers(1, 15))
def test_fraction_field_laws(an, ad, bn, bd, cn, cd):
    R = ring2()
    x = _frac_from_codes(R, an, ad)
    y = _frac_from_codes(R, bn, bd)
    z = _frac_from_codes(R, cn, cd)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if not y.is_zero():
        assert (x / y) * y == x


FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2)}


def _coded_poly(ring, codes):
    """Coefficients picked from the field's elements by code, zero among
    them, so the public constructor has zeros to filter."""
    elems = list(ring.field.elements())
    return Poly(ring, {mon[:ring.nvars]: elems[k % len(elems)] for mon, k in codes.items()})


def _assert_clean(f):
    assert not any(f.ring.field.is_zero(c) for c in f.terms.values())
    assert f == Poly(f.ring, dict(f.terms))


_codes = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         st.integers(0, 8), max_size=5)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from((1, 2)), _codes, _codes,
       st.integers(0, 8))
def test_trusted_results_hold_no_zero_coefficient(field, nvars, xc, yc, k):
    R = PolyRing(FiniteField(*FIELDS[field]), ["t1", "t2"][:nvars])
    x, y = _coded_poly(R, xc), _coded_poly(R, yc)
    elems = list(R.field.elements())
    c = elems[k % len(elems)]
    p = R.field.p
    root = (x ** p).pth_power_root()
    assert root == x
    results = [x + (-x), x + y, x - y, -x, x * R.zero(), x * y, x.scale(c), root,
               x.pth_power_root()]
    results += [x.derivative(i) for i in range(nvars)]
    results += [g for i in range(nvars) for g in _coeff_map(x, i).values()]
    results.append(poly_gcd(x, R.var("t1") ** 2))
    if not y.is_zero():
        quotient = poly_exact_div(x * y, y)
        assert quotient == x
        results.append(quotient)
    assert (x + (-x)).is_zero() and (x * R.zero()).is_zero()
    for f in results:
        if f is not None:
            _assert_clean(f)
    for mon in [(0,) * nvars, (1,) * nvars]:
        assert Poly(R, {mon: R.field.zero}).is_zero()


def test_poly_valuation_in_two_variables_and_capped():
    R = PolyRing(FiniteField(2), ["t1", "t2"])
    t1, t2, one = R.var("t1"), R.var("t2"), R.one()
    pi = t1 + t2
    f = pi ** 3 * (t1 + one)
    assert poly_valuation(f, pi) == (3, t1 + one)
    assert poly_valuation(f, pi, 2) == (2, pi * (t1 + one))
    assert poly_valuation(f, t2) == (0, f)
    # a cap bounds the loop on zero, which every pi divides
    assert poly_valuation(R.zero(), pi, 4) == (4, R.zero())
    with pytest.raises(ValueError):
        poly_valuation(R.zero(), pi)
