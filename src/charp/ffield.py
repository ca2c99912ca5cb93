"""Exact arithmetic in finite fields GF(p^d).

At the API an element is a tuple of d integers in {0, ..., p-1}: the
coefficients, low degree first, of a polynomial in the canonical generator
``g`` modulo a fixed irreducible modulus, chosen deterministically (see
:func:`canonical_modulus`) so that values are portable.  The methods of
:class:`FiniteField` take and return these tuples, and texts, certificates
and every other output see nothing else.

Inside the package the kernel of :mod:`charp.poly`, and with it every
univariate ``Poly``, works on int codes: the base-p code sum(c_k p^k) of
the tuple, the order in which ``elements()`` counts, so zero is 0 and one
is 1.  ``FiniteField.ints`` is the field object on codes, one per (p, d)
and built on first use, with ``encode`` and ``decode`` to and from tuples:

* d = 1: ``_PrimeField``, GF(p) on residues (XOR and AND for p = 2);
* d > 1 and p^d <= TABLE_LIMIT = 2^12: products, inverses and powers by
  exp/log tables indexed by code, built on first use from the least
  primitive element in base-p counting order (``g`` itself need not be
  primitive: in GF(9) and GF(49) it has order 4).  Sums are XOR for p = 2
  and Zech logarithms for odd p (171 ns per sum in GF(9), against 393 ns
  for a loop over the digits; Python 3.11, x86_64);
* larger fields, such as GF(2^16) reached by absorbing a constant
  Artin-Schreier step over GF(2^8) into the constant field, build no
  tables, which would cost 0.4-0.6 s and 13-17 MB at q = 2^16 or 3^10.
  Products are reduced modulo the modulus and inverses take one extended
  Euclid.

All polynomial arithmetic over GF(p) here (the modulus search by Rabin's
test, the table build and the fields above TABLE_LIMIT) is that kernel
driven by ``_PrimeField``.  The kernel is imported inside the functions
that use it, since ``poly`` imports this module.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from typing import Iterator, Tuple

FFElem = Tuple[int, ...]


MAX_FIELD_SIZE = 1 << 32  # the largest GF(q) a text may name: 2^16 trial divisions


def _least_factor(n: int) -> int:
    """The least factor >= 2 of n >= 2, by trial division up to the square
    root of n: n itself when n is prime."""
    return next((k for k in range(2, math.isqrt(n) + 1) if n % k == 0), n)


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


def _digits(code: int, p: int, d: int) -> list[int]:
    """The d base-p digits of code, low first."""
    out = []
    for _ in range(d):
        out.append(code % p)
        code //= p
    return out


def _code(digits, p: int) -> int:
    """The base-p code of a digit sequence, low first."""
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


# -- the field objects on int codes that drive the dense kernel of poly.py --

class _PrimeField:
    """GF(p) with plain ints in [0, p) as elements: the kernel's field object
    for GF(p)[t] and GF(p)[x], and the F_p of the linear solves of towers
    and rationalize.  For p = 2 sums are XOR and products AND."""

    zero, one = 0, 1
    is_zero = staticmethod(operator.not_)
    encode = staticmethod(operator.itemgetter(0))

    def __init__(self, p: int):
        self.p = p
        if p == 2:
            self.add = self.sub = operator.xor
            self.mul = operator.and_
            self.neg = operator.pos

    @staticmethod
    def decode(a: int) -> FFElem:
        return (a,)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)


class _ExtField:
    """GF(p^d), d > 1, on base-p codes (see the module docstring): the
    kernel's field object for GF(p^d)[t]."""

    zero, one = 0, 1
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int, d: int):
        self.p, self.d = p, d
        n = p ** d - 1
        tabled = n < TABLE_LIMIT
        if tabled:
            exp, log = _exp_log_tables(p, d)
            elems = [tuple(_digits(code, p, d)) for code in range(n + 1)]
            self.decode = elems.__getitem__
            self.encode = {t: code for code, t in enumerate(elems)}.__getitem__
            # log[0] = 2n sends every sum of logs with a zero operand into
            # the zero tail of exp, so products need no test for zero
            self.mul = lambda a, b: exp[log[a] + log[b]]
            self._inv = lambda a: exp[n - log[a]]
            self.pow = lambda a, e: exp[log[a] * e % n] if a else (0 if e else 1)
        else:
            from .poly import _generic_pow, _upoly_inv_mod, _upoly_mul, _upoly_rem
            fp, modulus = _PrimeField(p), canonical_modulus(p, d)
            self.decode = lambda a: tuple(_digits(a, p, d))
            self.encode = lambda t: _code(t, p)
            self.mul = lambda a, b: _code(_upoly_rem(fp, _upoly_mul(
                fp, _digits(a, p, d), _digits(b, p, d)), modulus), p)
            self._inv = lambda a: _code(_upoly_inv_mod(fp, _digits(a, p, d), modulus), p)
            self.pow = lambda a, e: _generic_pow(a, e, 1, self.mul)
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        elif tabled:
            # Zech logarithms: 1 + h^k = h^zech[k], and zech[k] = 2n where
            # 1 + h^k = 0; a negative difference of logs indexes from the
            # end.  -1 = h^(n/2).
            zech = [log[c - c % p + (c + 1) % p] for c in exp[:n]]
            self.add = lambda a, b: exp[log[a] + zech[log[b] - log[a]]] if a and b else a or b
            self.neg = lambda a: exp[log[a] + n // 2]
            self.sub = lambda a, b: self.add(a, self.neg(b))
        else:
            enc, dec = self.encode, self.decode
            self.add = lambda a, b: enc([(x + y) % p for x, y in zip(dec(a), dec(b))])
            self.sub = lambda a, b: enc([(x - y) % p for x, y in zip(dec(a), dec(b))])
            self.neg = lambda a: enc([-x % p for x in dec(a)])

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in GF(%d^%d)" % (self.p, self.d))
        return self._inv(a)


@lru_cache(maxsize=None)
def _int_field(p: int, d: int):
    """The field object on codes of GF(p^d), shared by every field object of
    the same (p, d)."""
    return _PrimeField(p) if d == 1 else _ExtField(p, d)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: x^(p^d) = x mod f, and gcd(x^(p^(d/l)) - x, f) = 1 for
    every prime l | d."""
    from .poly import _upoly_gcd, _upoly_powmod, _upoly_sub
    fp, x, d = _PrimeField(p), [0, 1], len(f) - 1

    def frob_minus_x(k):  # x^(p^k) - x mod f
        return _upoly_sub(fp, _upoly_powmod(fp, x, p ** k, f), x)

    return not frob_minus_x(d) and all(
        len(_upoly_gcd(fp, f, frob_minus_x(d // ell))) == 1
        for ell in range(2, d + 1) if d % ell == 0 and _is_prime(ell))


@lru_cache(maxsize=None)
def canonical_modulus(p: int, d: int) -> Tuple[int, ...]:
    """First monic irreducible of degree d over GF(p) in base-p counting order.

    Candidates x^d + c_{d-1}x^{d-1} + ... + c_0 are enumerated by the integer
    value sum(c_i * p^i), smallest first.
    """
    if d == 1:
        return (0, 1)
    for code in range(p ** d):
        f = _digits(code, p, d) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible of degree %d over GF(%d)" % (d, p))


# Fields of at most this order multiply through exp/log tables.  Building
# the tables of GF(2^12) takes about 18 ms and 0.6 MB, the cost of some 800
# products by modulus reduction; GF(3^8) already takes 58 ms and 1.3 MB, and
# GF(2^16) 0.4 s and 17 MB (Python 3.11, x86_64).
TABLE_LIMIT = 1 << 12


@lru_cache(maxsize=None)
def _exp_log_tables(p: int, d: int):
    """(exp, log) of GF(p^d) on codes, for the least primitive element h in
    base-p counting order, n = p^d - 1: exp[i] = h^i for 0 <= i < 2n, so a
    sum of two logs needs no reduction, followed by 2n + 1 zeros; log maps
    each nonzero code to its exponent and zero to 2n, so that every sum of
    logs with a zero operand lands in the zeros."""
    from .poly import _upoly_mul, _upoly_powmod, _upoly_rem, _upoly_trim
    fp = _PrimeField(p)
    n = p ** d - 1
    modulus = canonical_modulus(p, d)
    primes = [ell for ell in range(2, n + 1) if n % ell == 0 and _is_prime(ell)]
    for code in range(2, n + 1):
        h = _upoly_trim(fp, _digits(code, p, d))
        if all(_upoly_powmod(fp, h, n // ell, modulus) != [1] for ell in primes):
            break
    exp = []
    cur = [1]
    for _ in range(n):
        exp.append(_code(cur, p))
        cur = _upoly_rem(fp, _upoly_mul(fp, cur, h), modulus)
    log = [2 * n] * (n + 1)
    for i, a in enumerate(exp):
        log[a] = i
    return exp + exp + [0] * (2 * n + 1), log


class FiniteField:
    """The field GF(p^d) with its canonical modulus.

    All element-level operations take and return plain coefficient tuples.
    Over GF(p) they compute on the one residue; over GF(p^d) they encode to
    ``ints``, the field object on int codes that the kernel runs on, and
    decode its result.
    """

    def __init__(self, p: int, d: int = 1):
        if not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.d = d
        self.order = p ** d
        self.modulus = canonical_modulus(p, d)
        self.zero: FFElem = (0,) * d
        self.one: FFElem = (1,) + (0,) * (d - 1)
        self.gen: FFElem = ((0, 1) + (0,) * (d - 2)) if d >= 2 else (1,)

    @cached_property
    def ints(self):
        return _int_field(self.p, self.d)

    def __repr__(self) -> str:
        return "FiniteField(%d, %d)" % (self.p, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.d))

    # -- construction --

    def from_int(self, n: int) -> FFElem:
        return ((n % self.p),) + (0,) * (self.d - 1)

    def elements(self) -> Iterator[FFElem]:
        """All field elements in base-p counting order."""
        for code in range(self.order):
            yield tuple(_digits(code, self.p, self.d))

    # -- arithmetic: GF(p) on the residue, GF(p^d) through the codes --

    def add(self, a: FFElem, b: FFElem) -> FFElem:
        if self.d == 1:
            return ((a[0] + b[0]) % self.p,)
        f = self.ints
        return f.decode(f.add(f.encode(a), f.encode(b)))

    def sub(self, a: FFElem, b: FFElem) -> FFElem:
        if self.d == 1:
            return ((a[0] - b[0]) % self.p,)
        f = self.ints
        return f.decode(f.sub(f.encode(a), f.encode(b)))

    def neg(self, a: FFElem) -> FFElem:
        if self.d == 1:
            return (-a[0] % self.p,)
        f = self.ints
        return f.decode(f.neg(f.encode(a)))

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        if self.d == 1:
            return ((a[0] * b[0]) % self.p,)
        f = self.ints
        return f.decode(f.mul(f.encode(a), f.encode(b)))

    def smul(self, n: int, a: FFElem) -> FFElem:
        return self.mul(self.from_int(n), a)

    def inv(self, a: FFElem) -> FFElem:
        if not any(a):
            raise ZeroDivisionError("inverse of zero in %r" % (self,))
        if self.d == 1:
            return (pow(a[0], self.p - 2, self.p),)
        f = self.ints
        return f.decode(f.inv(f.encode(a)))

    def div(self, a: FFElem, b: FFElem) -> FFElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FFElem, e: int) -> FFElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.d == 1:
            return (pow(a[0], e, self.p),)
        f = self.ints
        return f.decode(f.pow(f.encode(a), e))

    def is_zero(self, a: FFElem) -> bool:
        return not any(a)

    def frob(self, a: FFElem) -> FFElem:
        return self.pow(a, self.p)

    def pth_root(self, a: FFElem) -> FFElem:
        """Unique p-th root; the Frobenius x -> x^p is bijective here."""
        return self.pow(a, self.p ** (self.d - 1))

    def trace_to_prime(self, a: FFElem) -> int:
        """Absolute trace down to GF(p), returned as an integer in [0, p)."""
        acc = self.zero
        cur = a
        for _ in range(self.d):
            acc = self.add(acc, cur)
            cur = self.frob(cur)
        if any(acc[1:]):
            raise AssertionError("trace landed outside the prime field")
        return acc[0]

    def solve_artin_schreier(self, c: FFElem) -> FFElem | None:
        """Some x with x^p - x = c, or None (exists iff the trace vanishes)."""
        if self.trace_to_prime(c) != 0:
            return None
        for x in self.elements():
            if self.sub(self.pow(x, self.p), x) == c:
                return x
        return None
