"""Differential oracle of the int-coded kernel.

Inside the package, scalars of GF(p^d) are int codes (``FiniteField.ints``)
and a univariate ``Poly`` keeps a list of them.  Everything here is checked
against a reference written in this file on coefficient tuples and on
polynomials as dicts exponent -> tuple: schoolbook products reduced by the
field's modulus, long division, Euclid and a Sylvester determinant.  Only
the modulus is read from the field.  GF(2^13) lies above ``TABLE_LIMIT``, so
its codes are multiplied without tables.
"""

import random

import pytest

from charp.ffield import TABLE_LIMIT, FiniteField
from charp.poly import (Poly, PolyRing, _upoly_resultant, poly_divmod_1var, poly_gcd,
                        poly_inv_mod, poly_valuation)

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 13)]
IDS = ["GF(%d)" % p ** d for p, d in FIELDS]


# -- scalar reference on tuples -------------------------------------------------

class Ref:
    """GF(p^d) on digit tuples, low first, with the field's modulus only."""

    def __init__(self, F):
        self.p, self.d, self.q, self.modulus = F.p, F.d, F.order, F.modulus
        self.zero = (0,) * self.d
        self.one = (1,) + (0,) * (self.d - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, m = self.p, self.modulus
        prod = [0] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - len(m), -1, -1):
            c = prod[k + len(m) - 1]
            for j, mj in enumerate(m):
                prod[k + j] = (prod[k + j] - c * mj) % p
        return tuple(prod[:self.d])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError
        return self.pow(a, self.q - 2)


def _code(a, p):
    return sum(c * p ** k for k, c in enumerate(a))


def _sample(F, rng, n):
    if F.order <= 27:
        return list(F.elements())
    return [tuple(rng.randrange(F.p) for _ in range(F.d)) for _ in range(n)]


@pytest.mark.parametrize("p, d", FIELDS, ids=IDS)
def test_codes_count_the_elements(p, d):
    F = FiniteField(p, d)
    ints = F.ints
    elems = list(F.elements())
    assert len(elems) == p ** d and len(set(elems)) == p ** d
    for code, a in enumerate(elems):
        assert _code(a, p) == code
        assert ints.encode(a) == code and ints.decode(code) == a
    assert ints.decode(ints.zero) == F.zero and ints.decode(ints.one) == F.one


@pytest.mark.parametrize("p, d", FIELDS, ids=IDS)
def test_coded_scalar_arithmetic_matches_reference(p, d):
    F = FiniteField(p, d)
    ints, ref = F.ints, Ref(F)
    enc, dec = ints.encode, ints.decode
    rng = random.Random(p ** d)
    elems = _sample(F, rng, 40)
    for a in elems:
        assert dec(ints.neg(enc(a))) == ref.neg(a)
        assert ints.is_zero(enc(a)) == (a == ref.zero)
        for e in (0, 1, 2, p, 7, F.order - 1, F.order + 3):
            assert dec(ints.pow(enc(a), e)) == ref.pow(a, e)
        if a == ref.zero:
            with pytest.raises(ZeroDivisionError):
                ints.inv(enc(a))
        else:
            assert dec(ints.inv(enc(a))) == ref.inv(a)
        for b in elems:
            assert dec(ints.add(enc(a), enc(b))) == ref.add(a, b)
            assert dec(ints.sub(enc(a), enc(b))) == ref.sub(a, b)
            assert dec(ints.mul(enc(a), enc(b))) == ref.mul(a, b)


# -- polynomial reference on dicts of tuples --------------------------------------

def _trim(ref, f):
    return {e: c for e, c in f.items() if c != ref.zero}


def _deg(f):
    return max(f, default=-1)


def _padd(ref, f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = ref.add(out.get(e, ref.zero), c)
    return _trim(ref, out)


def _pscale(ref, f, c, shift=0):
    return _trim(ref, {e + shift: ref.mul(c, x) for e, x in f.items()})


def _pmul(ref, f, g):
    out = {}
    for i, x in f.items():
        out = _padd(ref, out, _pscale(ref, g, x, i))
    return out


def _pdivmod(ref, f, g):
    q, r = {}, dict(f)
    inv = ref.inv(g[_deg(g)])
    while _deg(r) >= _deg(g):
        k = _deg(r) - _deg(g)
        c = ref.mul(r[_deg(r)], inv)
        q[k] = c
        r = _padd(ref, r, _pscale(ref, g, ref.neg(c), k))
    return q, r


def _pgcdex(ref, a, b):
    """(g, u) with u*a = g modulo b, g the monic gcd."""
    r0, r1, u0, u1 = a, b, {0: ref.one}, {}
    while r1:
        q, r = _pdivmod(ref, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _padd(ref, u0, _pscale(ref, _pmul(ref, q, u1), ref.neg(ref.one)))
    inv = ref.inv(r0[_deg(r0)])
    return _pscale(ref, r0, inv), _pscale(ref, u0, inv)


def _det(ref, rows):
    rows = [list(r) for r in rows]
    det = ref.one
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != ref.zero), None)
        if pivot is None:
            return ref.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = ref.neg(det)
        det = ref.mul(det, rows[c][c])
        inv = ref.inv(rows[c][c])
        for i in range(c + 1, len(rows)):
            f = ref.mul(rows[i][c], inv)
            rows[i] = [ref.sub(x, ref.mul(f, y)) for x, y in zip(rows[i], rows[c])]
    return det


def _resultant(ref, f, g):
    """The Sylvester determinant of f and g."""
    m, n = _deg(f), _deg(g)
    size = m + n
    rows = []
    for k in range(n):
        rows.append([f.get(m - (j - k), ref.zero) if 0 <= j - k <= m else ref.zero
                     for j in range(size)])
    for k in range(m):
        rows.append([g.get(n - (j - k), ref.zero) if 0 <= j - k <= n else ref.zero
                     for j in range(size)])
    return _det(ref, rows)


def _rand(F, rng, max_deg):
    return {e: c for e in range(rng.randrange(max_deg + 1) + 1)
            if (c := tuple(rng.randrange(F.p) for _ in range(F.d))) != F.zero}


def _as_dict(f):
    return {e: c for (e,), c in f.terms.items()}


@pytest.mark.parametrize("p, d", FIELDS, ids=IDS)
def test_univariate_poly_matches_dict_reference(p, d):
    F = FiniteField(p, d)
    R, ref = PolyRing(F, ["t"]), Ref(F)
    rng = random.Random(1000 + p ** d)
    rounds = 6 if F.order > TABLE_LIMIT else 25
    for _ in range(rounds):
        a, b = _rand(F, rng, 5), _rand(F, rng, 4)
        f, g = (Poly(R, {(e,): c for e, c in x.items()}) for x in (a, b))
        assert _as_dict(f * g) == _pmul(ref, a, b)
        assert _as_dict(f + g) == _padd(ref, a, b)
        assert _as_dict(f - g) == _padd(ref, a, {e: ref.neg(c) for e, c in b.items()})
        if not b:
            continue
        q, r = poly_divmod_1var(f, g)
        assert (_as_dict(q), _as_dict(r)) == _pdivmod(ref, a, b)
        if a:
            gcd, u = _pgcdex(ref, a, b)
            assert _as_dict(poly_gcd(f, g)) == gcd
            if _deg(b) > 0 and gcd == {0: ref.one}:
                assert _as_dict(poly_inv_mod(f, g)) == _pdivmod(ref, u, b)[1]
            elif _deg(b) > 0:
                with pytest.raises(ZeroDivisionError):
                    poly_inv_mod(f, g)
            ints = F.ints
            assert ints.decode(_upoly_resultant(ints, f.coeffs, g.coeffs)) == \
                _resultant(ref, a, b)
        if _deg(b) > 0 and a:
            power = rng.randrange(3)
            prod = _pmul(ref, a, _pmul(ref, b, b) if power == 2 else b if power else {0: ref.one})
            v, unit = poly_valuation(Poly(R, {(e,): c for e, c in prod.items()}), g)
            ref_v, ref_u = 0, prod
            while True:
                quo, rem = _pdivmod(ref, ref_u, b)
                if rem:
                    break
                ref_v, ref_u = ref_v + 1, quo
            assert (v, _as_dict(unit)) == (ref_v, ref_u)


@pytest.mark.parametrize("p, d", FIELDS, ids=IDS)
def test_dict_built_and_kernel_built_polys_are_equal_and_hash_equal(p, d):
    F = FiniteField(p, d)
    R, ref = PolyRing(F, ["t"]), Ref(F)
    rng = random.Random(2000 + p ** d)
    for _ in range(10):
        a, b = _rand(F, rng, 4), _rand(F, rng, 4)
        f, g = (Poly(R, {(e,): c for e, c in x.items()}) for x in (a, b))
        product = f * g
        terms = {(e,): c for e, c in _pmul(ref, a, b).items()}
        terms[(9,)] = F.zero        # a zero the constructor has to drop
        built = Poly(R, terms)
        assert built == product and hash(built) == hash(product)
        assert {built: 1}[product] == 1
