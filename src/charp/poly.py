"""Polynomials, reduced rational functions and the dense univariate kernel.

A polynomial over several variables is a finitely supported map monomial
(a tuple of exponents matching the ring's variable list) -> nonzero
coefficient tuple of :mod:`charp.ffield`.  A polynomial over one variable
keeps its coefficients as a trimmed list of int codes, low degree first
(see ``ffield``), and hands it to the kernel with no conversion; its
``terms`` is a read view in the tuple form, decoded on first use, and
``leading_coeff`` and ``constant_value`` return tuples too.  Printing,
leading terms and tie-breaks use graded lexicographic order.

Rational functions are kept in reduced normal form: numerator and
denominator coprime, denominator's leading coefficient equal to one.  The
form is unique, and the field operations keep it with Henrici's
arithmetic: since both operands are reduced, a product needs only the two
cross gcds, a square none, and a sum the gcd of the denominators plus, when
that is not constant, the gcd of the new numerator with it.

The gcd with a monomial operand (a nonzero constant among them) is the
monomial of least exponents, read off without arithmetic.  Operands with
no variable in common have gcd 1.  Operands with exactly one variable in
common, every other univariate pair among them, have a gcd in that
variable alone: the gcd of all their coefficients in the other variables,
encoded and taken on the dense kernel.  Everything else goes by content /
primitive-part recursion over primitive pseudo-remainder sequences, which
is all the reduction this package ever needs (no general multivariate
factorization).  Exact division by a single term (a constant, a variable,
a monomial) shifts exponents and scales by the inverse coefficient.

The dense kernel, the ``_upoly_*`` functions, is the only univariate
arithmetic: every univariate sum, product, division, gcd, inverse, power,
valuation, resultant and evaluation (``_upoly_eval``, the one Horner rule)
runs on it.  It works on coefficient lists, low degree first, over any
field object with ``zero``, ``one``, ``is_zero``, ``add``, ``sub``,
``neg``, ``mul``, ``inv`` and ``pow``.  The int field objects of
``ffield`` drive it for GF(q)[t] (the ``Poly`` functions below and the
residue code of the invariant oracle) and, over GF(p), for each field's
modulus search, tables and products above the table limit.  A tower
``LevelOps`` drives it for polynomials over the level below (products,
inverses, norms) and for evaluations at elements of its own level.
``_solve_linear``, the only Gaussian elimination, runs over the same field
objects.  ``_generic_pow`` is the one binary-power loop: the kernel's
powers modulo a polynomial, field powers above the table limit, ``Poly``
powers other than c t^k, and tower powers all go through it.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, Iterable, Optional, Tuple

from .ffield import FFElem, FiniteField, _code

Monomial = Tuple[int, ...]


def _memo(owner, key, compute):
    """``compute()``, run once per key on this owner (an interned tower or
    a ring) and kept in its ``memo`` (exceptions are not kept)."""
    try:
        return owner.memo[key]
    except KeyError:
        out = owner.memo[key] = compute()
        return out


class PolyRing:
    """A polynomial ring: a coefficient field plus an ordered variable list.

    ``memo`` is the cache ``_memo`` keeps on the ring (factorizations).  The
    package builds rings only for interned base towers, so it lives as long
    as the base tower does."""

    def __init__(self, field: FiniteField, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.variables)
        self._zero_mon = (0,) * self.nvars
        self.memo: dict = {}

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, PolyRing) and self.field == other.field
                                 and self.variables == other.variables)

    def __hash__(self) -> int:
        return hash((self.field, self.variables))

    def __repr__(self) -> str:
        return "PolyRing(GF(%d^%d), %s)" % (self.field.p, self.field.d, list(self.variables))

    def zero(self) -> "Poly":
        return _upoly(self, []) if self.nvars == 1 else Poly._trusted(self, {})

    def one(self) -> "Poly":
        return _upoly(self, [1]) if self.nvars == 1 else self.constant(self.field.one)

    def constant(self, c: FFElem) -> "Poly":
        return Poly(self, {self._zero_mon: c})

    def from_int(self, n: int) -> "Poly":
        return self.constant(self.field.from_int(n))

    def var(self, name: str) -> "Poly":
        i = self.variables.index(name)
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mon: self.field.one})


def _grlex_key(mon: Monomial):
    return (sum(mon), mon)


class Poly:
    """Immutable polynomial; mutate neither ``terms`` nor ``coeffs``.

    Over several variables ``terms`` is the map monomial -> nonzero
    coefficient tuple and ``coeffs`` is None.  Over one variable ``coeffs``
    is the trimmed list of coefficient codes, low degree first, that the
    kernel works on, and ``terms`` is a read view decoded from it on first
    use."""

    __slots__ = ("ring", "terms", "coeffs", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Monomial, FFElem]):
        self.ring = ring
        self._hash = None
        if ring.nvars == 1:
            encode = ring.field.ints.encode
            coeffs = [0] * (max((e for (e,) in terms), default=-1) + 1)
            for (e,), c in terms.items():
                coeffs[e] = encode(c)
            self.coeffs = _upoly_trim(ring.field.ints, coeffs)
        else:
            self.coeffs = None
            self.terms = {m: c for m, c in terms.items() if not ring.field.is_zero(c)}

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: Dict[Monomial, FFElem]) -> "Poly":
        """Wrap ``terms`` without the zero filter: for callers whose dict
        cannot hold a zero coefficient, and which hand it over unshared.
        Over one variable it encodes, as the constructor does."""
        if ring.nvars == 1:
            return cls(ring, terms)
        f = cls.__new__(cls)
        f.ring = ring
        f.terms = terms
        f.coeffs = None
        f._hash = None
        return f

    def __getattr__(self, name):
        # only an unset slot gets here: the terms of a univariate polynomial
        if name != "terms" or self.coeffs is None:
            raise AttributeError(name)
        decode = self.ring.field.ints.decode
        self.terms = {(e,): decode(c) for e, c in enumerate(self.coeffs) if c}
        return self.terms

    # -- queries --

    def is_zero(self) -> bool:
        c = self.coeffs
        return not (self.terms if c is None else c)

    def is_constant(self) -> bool:
        c = self.coeffs
        if c is None:
            return all(sum(m) == 0 for m in self.terms)
        return len(c) <= 1

    def constant_value(self) -> FFElem:
        if self.is_zero():
            return self.ring.field.zero
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[self.ring._zero_mon]

    def total_degree(self) -> int:
        if self.coeffs is not None:
            return len(self.coeffs) - 1
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, var_index: int) -> int:
        if self.coeffs is not None:
            return len(self.coeffs) - 1
        return max((m[var_index] for m in self.terms), default=-1)

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self) -> FFElem:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    # -- ring operations --

    def __add__(self, other: "Poly") -> "Poly":
        if self.coeffs is not None:
            return _upoly(self.ring, _upoly_add(self.ring.field.ints, self.coeffs, other.coeffs))
        field = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(out.get(m, field.zero), c)
            if field.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Poly._trusted(self.ring, out)

    def __neg__(self) -> "Poly":
        if self.coeffs is not None:
            neg = self.ring.field.ints.neg
            return _upoly(self.ring, [neg(c) for c in self.coeffs])
        field = self.ring.field
        return Poly._trusted(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if self.coeffs is not None:
            return _upoly(self.ring, _upoly_sub(self.ring.field.ints, self.coeffs, other.coeffs))
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.coeffs is not None:
            return _upoly(self.ring, _upoly_mul(self.ring.field.ints, self.coeffs, other.coeffs))
        field = self.ring.field
        out: Dict[Monomial, FFElem] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = field.mul(c1, c2)
                s = field.add(out.get(m, field.zero), prod)
                if field.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly._trusted(self.ring, out)

    def scale(self, c: FFElem) -> "Poly":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Poly._trusted(self.ring, {m: field.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        c = self.coeffs
        if c and not any(c[:-1]):  # (c t^k)^e = c^e t^(k e), with no product
            return _upoly(self.ring, [0] * (len(c) - 1) * e + [self.ring.field.ints.pow(c[-1], e)])
        return _generic_pow(self, e, self.ring.one(), operator.mul)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return False
        c = self.coeffs
        if c is None:
            return self.ring == other.ring and self.terms == other.terms
        return c == other.coeffs and self.ring == other.ring

    def __hash__(self) -> int:
        if self._hash is None:
            c = self.coeffs
            self._hash = (hash((self.ring, frozenset(self.terms.items()))) if c is None
                          else hash(tuple(c)))
        return self._hash

    def __repr__(self) -> str:
        from .textform import format_poly
        return format_poly(self)

    # -- calculus --

    def derivative(self, var_index: int) -> "Poly":
        field = self.ring.field
        if self.coeffs is not None:
            ops, p = field.ints, field.p
            return _upoly(self.ring, _upoly_trim(ops, [ops.mul(e % p, c) for e, c in
                                                        enumerate(self.coeffs[1:], 1)]))
        out: Dict[Monomial, FFElem] = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e % field.p == 0:
                continue
            nm = tuple(x - 1 if i == var_index else x for i, x in enumerate(m))
            nc = field.smul(e, c)
            s = field.add(out.get(nm, field.zero), nc)
            if field.is_zero(s):
                out.pop(nm, None)
            else:
                out[nm] = s
        return Poly._trusted(self.ring, out)

    # -- characteristic-p structure --

    def pth_power(self) -> "Poly":
        """self^p by the Frobenius: every exponent times p, every coefficient
        to its p-th power, with no product."""
        p, frob = self.ring.field.p, self.ring.field.frob
        return Poly._trusted(self.ring, {tuple(p * e for e in m): frob(c)
                                         for m, c in self.terms.items()})

    def pth_power_root(self) -> "Poly | None":
        """The polynomial g with g^p = self, or None.

        In characteristic p a polynomial is a p-th power iff every exponent is
        divisible by p; coefficients always have roots since GF(p^d) is perfect.
        """
        p = self.ring.field.p
        out: Dict[Monomial, FFElem] = {}
        for m, c in self.terms.items():
            if any(e % p for e in m):
                return None
            out[tuple(e // p for e in m)] = self.ring.field.pth_root(c)
        return Poly._trusted(self.ring, out)


def _upoly(ring: PolyRing, coeffs: list) -> Poly:
    """The univariate polynomial with this trimmed code list, taken over
    unshared."""
    f = Poly.__new__(Poly)
    f.ring = ring
    f.coeffs = coeffs
    f._hash = None
    return f


def _upoly_scale(f: Poly, c: int) -> Poly:
    """c * f for a univariate f and a code c."""
    if not c:
        return f.ring.zero()
    mul = f.ring.field.ints.mul
    return _upoly(f.ring, [mul(c, x) for x in f.coeffs])


def _generic_pow(x, e, one, mul):
    """x^e by binary powering, with no product by ``one`` and no squaring
    past the top bit of e."""
    if not e:
        return one
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# the dense univariate kernel
# ---------------------------------------------------------------------------
#
# Results are trimmed (no zero leading coefficient; the zero polynomial is
# []).  Inputs may be untrimmed and are never modified.

def _upoly_trim(ops, a: list) -> list:
    """Drop zero leading coefficients of a, in place; returns a."""
    is_zero = ops.is_zero
    while a and is_zero(a[-1]):
        a.pop()
    return a


def _upoly_mul(ops, a: list, b: list) -> list:
    if not a or not b:
        return []
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    out = [ops.zero] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in b_terms:
            out[i + j] = add(out[i + j], mul(x, y))
    return _upoly_trim(ops, out)


def _upoly_add(ops, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    add = ops.add
    out = list(a)
    for i, y in enumerate(b):
        out[i] = add(out[i], y)
    return _upoly_trim(ops, out)


def _upoly_sub(ops, a: list, b: list) -> list:
    neg = ops.neg
    return _upoly_add(ops, a, [neg(y) for y in b])


def _upoly_divmod(ops, a: list, b: list, quotient: bool = True) -> Tuple[Optional[list], list]:
    """(q, r) with a = q*b + r and deg r < deg b; q is None unless ``quotient``."""
    is_zero = ops.is_zero
    if not b or is_zero(b[-1]):
        b = _upoly_trim(ops, list(b))
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    if r and is_zero(r[-1]):
        _upoly_trim(ops, r)
    db = len(b) - 1
    if len(r) <= db:
        return ([] if quotient else None), r
    mul, sub = ops.mul, ops.sub
    inv_lead = None if b[-1] == ops.one else ops.inv(b[-1])
    tail = [(j, c) for j, c in enumerate(b[:db]) if not is_zero(c)]
    q = [ops.zero] * (len(r) - db) if quotient else None
    for k in range(len(r) - db - 1, -1, -1):
        c = r[k + db]
        if is_zero(c):
            continue
        if inv_lead is not None:
            c = mul(c, inv_lead)
        if quotient:
            q[k] = c
        for j, bj in tail:
            r[k + j] = sub(r[k + j], mul(c, bj))
    del r[db:]
    return q, _upoly_trim(ops, r)


def _upoly_rem(ops, a: list, b: list) -> list:
    """a mod b, with no quotient built."""
    return _upoly_divmod(ops, a, b, False)[1]


def _upoly_gcd(ops, a: list, b: list) -> list:
    """Monic gcd ([] when both are zero)."""
    a, b = _upoly_trim(ops, list(a)), _upoly_trim(ops, list(b))
    while b:
        a, b = b, _upoly_rem(ops, a, b)
    if not a or a[-1] == ops.one:
        return a
    c = ops.inv(a[-1])
    return [ops.mul(c, x) for x in a]


def _upoly_gcdex(ops, a: list, b: list) -> Tuple[list, list]:
    """Extended gcd: (g, u) with u*a = g modulo b, g monic or empty.  The
    cofactor of b, (g - u*a) / b, is never needed, so it is not tracked."""
    r0, r1 = _upoly_trim(ops, list(a)), _upoly_trim(ops, list(b))
    u0, u1 = [ops.one], []
    while r1:
        q, r = _upoly_divmod(ops, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _upoly_sub(ops, u0, _upoly_mul(ops, q, u1))
    if r0:
        scale = [ops.inv(r0[-1])]
        r0 = _upoly_mul(ops, r0, scale)
        u0 = _upoly_mul(ops, u0, scale)
    return r0, u0


def _upoly_inv_mod(ops, a: list, m: list) -> list:
    """u with u*a = 1 modulo m and deg u < deg m; ZeroDivisionError when a
    is not a unit modulo m."""
    g, u = _upoly_gcdex(ops, _upoly_rem(ops, a, m), m)
    if len(g) != 1:
        raise ZeroDivisionError("not invertible modulo the polynomial")
    return _upoly_rem(ops, u, m)


def _upoly_powmod(ops, a: list, e: int, m: list) -> list:
    """a^e modulo m, for e >= 0."""
    return _generic_pow(_upoly_rem(ops, a, m), e, [ops.one],
                        lambda x, y: _upoly_rem(ops, _upoly_mul(ops, x, y), m))


def _upoly_eval(ops, a: list, x):
    """a(x) by Horner's rule, with deg a products."""
    if not a:
        return ops.zero
    acc = a[-1]
    for c in a[-2::-1]:
        acc = ops.add(ops.mul(acc, x), c)
    return acc


def _upoly_resultant(ops, f: list, g: list):
    """Resultant of two polynomials over a field, by Euclidean reduction."""
    f = _upoly_trim(ops, list(f))
    g = _upoly_trim(ops, list(g))
    if not f or not g:
        return ops.zero
    res = ops.one
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return ops.mul(res, ops.pow(g[0], df))
        r = _upoly_rem(ops, f, g)
        if not r:
            return ops.zero
        dr = len(r) - 1
        res = ops.mul(res, ops.pow(g[-1], df - dr))
        if df % 2 and dg % 2:
            res = ops.neg(res)
        f, g = g, r


def _solve_linear(ops, matrix: list, rhs: list):
    """One x with matrix * x = rhs, the free unknowns set to zero, or None
    when the system is inconsistent.  Gauss-Jordan elimination over any
    field object with ``zero``, ``is_zero``, ``mul``, ``sub`` and ``inv``;
    the pivot columns are the leftmost independent ones, so x is the same
    whichever rows are listed first."""
    is_zero, mul, sub = ops.is_zero, ops.mul, ops.sub
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ops.inv(rows[r][c])
        top = rows[r] = [mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not is_zero(f):
                rows[i] = [sub(v, mul(f, w)) for v, w in zip(row, top)]
        pivots.append(c)
    if any(not is_zero(row[-1]) for row in rows[len(pivots):]):
        return None
    x = [ops.zero] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return x


# ---------------------------------------------------------------------------
# univariate Poly operations on the kernel
# ---------------------------------------------------------------------------

def poly_divmod_1var(f: Poly, g: Poly) -> Tuple[Poly, Poly]:
    """Euclidean division in one variable (ring must be univariate)."""
    ring = f.ring
    if ring.nvars != 1:
        raise ValueError("univariate division on a multivariate ring")
    q, r = _upoly_divmod(ring.field.ints, f.coeffs, g.coeffs)
    return _upoly(ring, q), _upoly(ring, r)


def _poly_rem(f: Poly, g: Poly) -> Poly:
    """f mod g in one variable, with no quotient built."""
    return _upoly(f.ring, _upoly_rem(f.ring.field.ints, f.coeffs, g.coeffs))


def poly_exact_div(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises ArithmeticError if g does not divide f."""
    ring = f.ring
    if f.coeffs is not None:
        q, r = _upoly_divmod(ring.field.ints, f.coeffs, g.coeffs)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return _upoly(ring, q)
    field = ring.field
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    is_zero, mul, sub, zero = field.is_zero, field.mul, field.sub, field.zero
    glm = g.leading_monomial()
    glc_inv = field.inv(g.terms[glm])
    if len(g.terms) == 1:  # a term: shift the exponents
        q = {tuple(a - b for a, b in zip(m, glm)): mul(c, glc_inv) for m, c in f.terms.items()}
        if any(e < 0 for m in q for e in m):
            raise ArithmeticError("inexact polynomial division")
        return Poly._trusted(ring, q)
    q: Dict[Monomial, FFElem] = {}
    r = dict(f.terms)
    g_terms = list(g.terms.items())
    while r:
        rlm = max(r, key=_grlex_key)
        mon = tuple(a - b for a, b in zip(rlm, glm))
        if any(e < 0 for e in mon):
            raise ArithmeticError("inexact polynomial division")
        c = mul(r[rlm], glc_inv)
        q[mon] = c
        for gm, gc in g_terms:
            m = tuple(a + b for a, b in zip(mon, gm))
            s = sub(r.get(m, zero), mul(c, gc))
            if is_zero(s):
                r.pop(m, None)
            else:
                r[m] = s
    return Poly._trusted(ring, q)


def poly_inv_mod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m, of degree below m's; ZeroDivisionError
    (an ArithmeticError) when a is not a unit modulo m.  Univariate."""
    return _upoly(a.ring, _upoly_inv_mod(a.ring.field.ints, a.coeffs, m.coeffs))


def poly_valuation(f: Poly, pi: Poly, cap: Optional[int] = None) -> Tuple[int, Poly]:
    """(v, u) with f = pi^v * u and pi not dividing u, by trial division;
    v stops at ``cap`` when that is smaller.  f nonzero unless capped."""
    if cap is None and f.is_zero():
        raise ValueError("the zero polynomial has no finite valuation")
    v = 0
    while v != cap:
        try:
            f = poly_exact_div(f, pi)
        except ArithmeticError:
            break
        v += 1
    return v, f


def _coeff_map(f: Poly, var_index: int) -> Dict[int, Poly]:
    """View f as a univariate polynomial in one variable with polynomial
    coefficients in the remaining ones (same ring, exponent zeroed)."""
    out: Dict[int, Dict[Monomial, FFElem]] = {}
    for m, c in f.terms.items():
        e = m[var_index]
        rest = tuple(0 if i == var_index else x for i, x in enumerate(m))
        out.setdefault(e, {})[rest] = c
    return {e: Poly._trusted(f.ring, terms) for e, terms in out.items()}


def _content(f: Poly, var_index: int) -> Poly:
    cmap = _coeff_map(f, var_index)
    acc = f.ring.zero()
    for coeff in cmap.values():
        acc = poly_gcd(acc, coeff)
    return acc


def _pseudo_rem(f: Poly, g: Poly, var_index: int) -> Poly:
    """Pseudo remainder of f by g in the chosen variable."""
    dg = g.degree_in(var_index)
    lead_g = _coeff_map(g, var_index)[dg]
    r = f
    ring = f.ring
    while not r.is_zero() and r.degree_in(var_index) >= dg:
        dr = r.degree_in(var_index)
        lead_r = _coeff_map(r, var_index)[dr]
        shift_mon = tuple(dr - dg if i == var_index else 0 for i in range(ring.nvars))
        r = r * lead_g - g * (lead_r * Poly(ring, {shift_mon: ring.field.one}))
        if not r.is_zero() and r.degree_in(var_index) == dr:
            raise AssertionError("pseudo remainder failed to drop the degree")
    return r


def _support(f: Poly) -> set:
    """Indices of the variables that occur in f."""
    return {i for m in f.terms for i, e in enumerate(m) if e}


def _gcd_in_var(a: Poly, b: Poly, var_index: int) -> Poly:
    """gcd of a and b when it can involve only the one variable: the gcd of
    all their coefficients in the other variables, each a univariate
    polynomial in that variable, on the dense kernel."""
    ring, ops = a.ring, a.ring.field.ints
    encode = ops.encode
    g = None
    for f in (a, b):
        coeffs: Dict[Monomial, Dict[int, int]] = {}
        for m, c in f.terms.items():
            coeffs.setdefault(m[:var_index] + m[var_index + 1:], {})[m[var_index]] = encode(c)
        for coeff in coeffs.values():
            dense = [0] * (max(coeff) + 1)
            for e, c in coeff.items():
                dense[e] = c
            g = dense if g is None else _upoly_gcd(ops, g, dense)
            if len(g) == 1:
                return ring.one()
    unit, decode = ring._zero_mon, ops.decode
    return Poly._trusted(ring, {unit[:var_index] + (e,) + unit[var_index + 1:]: decode(c)
                                for e, c in enumerate(g) if c})


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic-normalized gcd; the short cuts listed in the module docstring
    come before the dense kernel and primitive remainder sequences."""
    ring = a.ring
    if a.coeffs is not None:
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            return ring.one()
        return _upoly(ring, _upoly_gcd(ring.field.ints, a.coeffs, b.coeffs))
    if a.is_zero():
        return _normalize_lead(b)
    if b.is_zero():
        return _normalize_lead(a)
    if len(a.terms) == 1 or len(b.terms) == 1:
        mon = tuple(min(es) for es in zip(*a.terms, *b.terms))
        return Poly._trusted(ring, {mon: ring.field.one})
    support_a, support_b = _support(a), _support(b)
    common = support_a & support_b
    if len(common) < 2:
        return _gcd_in_var(a, b, common.pop()) if common else ring.one()
    var_index = min(support_a | support_b)      # the first variable occurring in either
    ca, cb = _content(a, var_index), _content(b, var_index)
    pa, pb = poly_exact_div(a, ca), poly_exact_div(b, cb)
    if pa.degree_in(var_index) < pb.degree_in(var_index):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, var_index)
        if r.is_zero():
            pa, pb = pb, r
            break
        r = poly_exact_div(r, _content(r, var_index))
        pa, pb = pb, r
    if pb.is_zero() and pa.degree_in(var_index) >= 0:
        pa = poly_exact_div(pa, _content(pa, var_index))
    return _normalize_lead(poly_gcd(ca, cb) * pa)


def _normalize_lead(f: Poly) -> Poly:
    return _monic_den(f.ring.zero(), f)[1]


# ---------------------------------------------------------------------------
# reduced rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """A reduced fraction of polynomials with normalized denominator.

    The field operations rely on both operands being reduced (Henrici
    arithmetic, see the module docstring); ``reduce=False`` is only for
    pairs already in that form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.ring != den.ring:
            raise ValueError("numerator and denominator in different rings")
        if reduce:
            if num.is_zero():
                den = num.ring.one()
            else:
                g = poly_gcd(num, den)
                num, den = _monic_den(_cancel(num, g), _cancel(den, g))
        self.num = num
        self.den = den
        self._hash = None

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    # -- constructors --

    @staticmethod
    def from_poly(f: Poly) -> "RatFunc":
        return RatFunc(f, f.ring.one(), reduce=False)

    @staticmethod
    def zero(ring: PolyRing) -> "RatFunc":
        return RatFunc(ring.zero(), ring.one(), reduce=False)

    @staticmethod
    def one(ring: PolyRing) -> "RatFunc":
        return RatFunc(ring.one(), ring.one(), reduce=False)

    # -- predicates --

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> FFElem:
        field = self.ring.field
        return field.div(self.num.constant_value(), self.den.constant_value())

    # -- field operations --

    def __add__(self, other: "RatFunc") -> "RatFunc":
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.is_constant():
            return _coprime(a * d + c * b, b * d)
        dg = poly_exact_div(d, g)
        t = a * dg + c * poly_exact_div(b, g)
        h = poly_gcd(t, g)
        return _coprime(_cancel(t, h), _cancel(b, h) * dg)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        a, b, c, d = self.num, self.den, other.num, other.den
        if other is self:
            return RatFunc(a * a, b * b, reduce=False)
        if a.is_zero() or c.is_zero():
            return RatFunc.zero(self.ring)
        g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
        return _coprime(_cancel(a, g1) * _cancel(c, g2), _cancel(b, g2) * _cancel(d, g1))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _coprime(self.den, self.num)

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return self.inv() ** (-e)
        return _generic_pow(self, e, RatFunc.one(self.ring), operator.mul)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        from .textform import format_ratfunc
        return format_ratfunc(self)

    # -- calculus / characteristic-p structure --

    def derivative(self, var_name: str) -> "RatFunc":
        i = self.ring.variables.index(var_name)
        n, d = self.num, self.den
        return RatFunc(n.derivative(i) * d - n * d.derivative(i), d * d)

    def pth_root(self) -> "RatFunc | None":
        """y with y^p = self, or None; reads exponents of the reduced form."""
        rn = self.num.pth_power_root()
        if rn is None:
            return None
        rd = self.den.pth_power_root()
        if rd is None:
            return None
        return RatFunc(rn, rd, reduce=False)


def _cancel(f: Poly, g: Poly) -> Poly:
    """f / g for a monic divisor g of f."""
    return f if g.is_constant() else poly_exact_div(f, g)


def _monic_den(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num / den scaled so that den's leading coefficient is one (a zero
    den is left as it is)."""
    if den.coeffs is not None:
        lc = den.coeffs[-1] if den.coeffs else 1
        if lc == 1:
            return num, den
        inv = num.ring.field.ints.inv(lc)
        return _upoly_scale(num, inv), _upoly_scale(den, inv)
    if den.is_zero():
        return num, den
    field = num.ring.field
    lc = den.leading_coeff()
    if lc == field.one:
        return num, den
    inv = field.inv(lc)
    return num.scale(inv), den.scale(inv)


def _coprime(num: Poly, den: Poly) -> RatFunc:
    """The RatFunc num / den of a coprime pair."""
    if num.is_zero():
        return RatFunc.zero(num.ring)
    return RatFunc(*_monic_den(num, den), reduce=False)


# ---------------------------------------------------------------------------
# univariate factorization (distinct-degree, then equal-degree splitting)
# ---------------------------------------------------------------------------

def _powmod_poly(base: Poly, e: int, mod: Poly) -> Poly:
    ring = base.ring
    return _upoly(ring, _upoly_powmod(ring.field.ints, base.coeffs, e, mod.coeffs))


def _random_poly(ring: PolyRing, max_deg: int, rng: list) -> Poly:
    """Degree at most max_deg, the digits of each coefficient drawn low
    first, constant term first, from ``rng[0]``: a ``random.Random(0)``
    made on the first draw of an empty ``rng``."""
    if not rng:
        rng.append(random.Random(0))
    p, d, rng = ring.field.p, ring.field.d, rng[0]
    coeffs = [_code([rng.randrange(p) for _ in range(d)], p) for _ in range(max_deg + 1)]
    return _upoly(ring, _upoly_trim(ring.field.ints, coeffs))


def _equal_degree_split(f: Poly, r: int, rng: list) -> list[Poly]:
    """Split a squarefree product of irreducibles of equal degree r."""
    ring = f.ring
    field = ring.field
    q = field.order
    n = f.degree_in(0)
    if n == r:
        return [f]
    one = ring.one()
    while True:
        u = _random_poly(ring, n - 1, rng)
        if u.is_zero() or u.is_constant():
            continue
        if field.p == 2:
            # absolute trace map to GF(2), evaluated modulo f
            t = _poly_rem(u, f)
            acc = t
            bits = field.d * r
            for _ in range(bits - 1):
                t = _poly_rem(t * t, f)
                acc = acc + t
            g = poly_gcd(f, acc)
        else:
            w = _powmod_poly(u, (q ** r - 1) // 2, f)
            g = poly_gcd(f, w - one)
        if not g.is_constant() and g.degree_in(0) < n:
            h = poly_exact_div(f, g)
            h = _normalize_lead(h)
            return _equal_degree_split(g, r, rng) + _equal_degree_split(h, r, rng)


def _split_squarefree(f: Poly, rng: list) -> list[Poly]:
    """Distinct-degree then equal-degree factorization of a squarefree monic f."""
    ring = f.ring
    q = ring.field.order
    x = ring.var(ring.variables[0])
    out: list[Poly] = []
    r = 1
    rest = f
    while rest.degree_in(0) >= 2 * r:
        h = _powmod_poly(x, q ** r, rest) - x
        g = poly_gcd(rest, h)
        if not g.is_constant():
            out.extend(_equal_degree_split(g, r, rng))
            rest = _normalize_lead(poly_exact_div(rest, g))
        r += 1
    if rest.degree_in(0) > 0:
        out.append(rest)
    return out


def factor_univariate(f: Poly) -> Tuple[FFElem, Dict[Poly, int]]:
    """Factor a nonzero univariate polynomial.

    Returns (leading coefficient, {monic irreducible: multiplicity}); the
    product of the factors times the leading coefficient equals f.  The
    random choices of equal-degree splitting come from a fixed seed, so the
    output is reproducible; it is memoized on the ring per polynomial, and
    every call returns a fresh dict.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.ring.nvars != 1:
        raise ValueError("factor_univariate needs a univariate polynomial")
    lc, factors = _memo(f.ring, ("factor", f), lambda: _factor_frozen(f))
    return lc, dict(factors)


def _factor_frozen(f: Poly) -> Tuple[FFElem, Tuple[Tuple[Poly, int], ...]]:
    rng: list = []  # the seeded stream, made on its first draw
    lc = f.leading_coeff()
    f = _normalize_lead(f)
    factors: Dict[Poly, int] = {}
    mult = 1
    while f.degree_in(0) > 0:
        deriv = f.derivative(0)
        if deriv.is_zero():
            f = f.pth_power_root()
            mult *= f.ring.field.p
            continue
        sqf = _normalize_lead(poly_exact_div(f, poly_gcd(f, deriv)))
        for irr in _split_squarefree(sqf, rng):
            k, f = poly_valuation(f, irr)
            factors[irr] = factors.get(irr, 0) + k * mult
    return lc, tuple(factors.items())
