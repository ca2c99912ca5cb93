"""Exact arithmetic in finite fields GF(p^d).

Elements are represented as tuples of d integers in {0, ..., p-1}: the
coefficients, low degree first, of a polynomial in the canonical generator
``g`` modulo a fixed irreducible modulus.  The modulus is chosen
deterministically (see :func:`canonical_modulus`), so values are portable
across runs and machines.  The tuples are the whole API: texts,
certificates and every other output see nothing else.

Multiplication, inversion, division and powers in GF(p) use integer
arithmetic mod p.  For d > 1 and p^d <= TABLE_LIMIT = 2^12 they go through
exp/log (Zech) tables, built on first use from the least primitive element
in base-p counting order and shared by every field object of the same
(p, d).  That element is searched for: ``g`` itself need not be primitive
(in GF(9) and GF(49) it has order 4).  Larger fields, such as GF(2^16)
reached by absorbing a constant Artin-Schreier step over GF(2^8) into the
constant field, build no tables and reduce each product modulo the
modulus: their tables would cost about q reductions and q entries up
front, 0.4-0.6 s and 13-17 MB at q = 2^16 or 3^10.

All polynomial arithmetic over GF(p) here (the modulus search by Rabin's
test, the table build, the reduction in ``from_coeffs`` and the products
above TABLE_LIMIT) is the dense kernel of :mod:`charp.poly`, driven by
``_PrimeField``, GF(p) on plain ints.  The kernel is imported inside the
functions that use it, since ``poly`` imports this module.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterator, Tuple

FFElem = Tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _digits(code: int, p: int, d: int) -> list[int]:
    """The d base-p digits of code, low first."""
    out = []
    for _ in range(d):
        out.append(code % p)
        code //= p
    return out


# -- GF(p) on plain ints: the field object that drives the dense kernel of
# poly.py for the modulus search, the tables, the fields above TABLE_LIMIT
# and the F_p-linear solves of towers and rationalize --

class _PrimeField:
    """GF(p) with plain ints in [0, p) as elements, with the operations
    that the kernel's products, remainders and gcds and ``_solve_linear``
    use."""

    __slots__ = ("p",)
    zero, one = 0, 1
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)


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
    """(exp, log) of GF(p^d) for the least primitive element h in base-p
    counting order: exp[i] = h^i for 0 <= i < 2(q-1), so a sum of two logs
    needs no reduction, and log maps each nonzero element to its exponent
    and zero to None (a tuple that is no element raises KeyError)."""
    from .poly import _upoly_divmod, _upoly_mul, _upoly_powmod, _upoly_trim
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
        exp.append(tuple(cur) + (0,) * (d - len(cur)))
        cur = _upoly_divmod(fp, _upoly_mul(fp, cur, h), modulus)[1]
    log = {a: i for i, a in enumerate(exp)}
    log[(0,) * d] = None
    return exp + exp, log


class FiniteField:
    """The field GF(p^d) with its canonical modulus.

    All element-level operations take and return plain coefficient tuples;
    the field object itself carries the arithmetic.
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
        self._fp = _PrimeField(p)
        self._exp = self._log = None

    def __repr__(self) -> str:
        return "FiniteField(%d, %d)" % (self.p, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.d))

    # -- construction --

    def from_int(self, n: int) -> FFElem:
        return ((n % self.p),) + (0,) * (self.d - 1)

    def from_coeffs(self, coeffs) -> FFElem:
        c = [x % self.p for x in coeffs]
        if len(c) > self.d:
            from .poly import _upoly_divmod
            c = _upoly_divmod(self._fp, c, self.modulus)[1]
        return tuple(c) + (0,) * (self.d - len(c))

    def elements(self) -> Iterator[FFElem]:
        """All field elements in base-p counting order."""
        for code in range(self.order):
            yield tuple(_digits(code, self.p, self.d))

    # -- arithmetic --

    def add(self, a: FFElem, b: FFElem) -> FFElem:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: FFElem, b: FFElem) -> FFElem:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: FFElem) -> FFElem:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        if self.d == 1:
            return ((a[0] * b[0]) % self.p,)
        log = self._log or self._tables()
        if log is None:
            from .poly import _upoly_divmod, _upoly_mul
            prod = _upoly_divmod(self._fp, _upoly_mul(self._fp, a, b), self.modulus)[1]
            return tuple(prod) + (0,) * (self.d - len(prod))
        la, lb = log[a], log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def smul(self, n: int, a: FFElem) -> FFElem:
        p = self.p
        return tuple((n * x) % p for x in a)

    def inv(self, a: FFElem) -> FFElem:
        if not any(a):
            raise ZeroDivisionError("inverse of zero in %r" % (self,))
        if self.d == 1:
            return (pow(a[0], self.p - 2, self.p),)
        log = self._log or self._tables()
        if log is None:
            return self.pow(a, self.order - 2)
        return self._exp[self.order - 1 - log[a]]

    def div(self, a: FFElem, b: FFElem) -> FFElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FFElem, e: int) -> FFElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.d == 1:
            return (pow(a[0], e, self.p),)
        log = self._log or self._tables()
        if log is not None:
            la = log[a]
            if la is None:
                return self.zero if e else self.one
            return self._exp[la * e % (self.order - 1)]
        from .poly import _generic_pow
        return _generic_pow(a, e, self.one, self.mul)

    def is_zero(self, a: FFElem) -> bool:
        return not any(a)

    def _tables(self):
        """The log table, built on first use (d > 1); None above TABLE_LIMIT."""
        if self.order <= TABLE_LIMIT:
            self._exp, self._log = _exp_log_tables(self.p, self.d)
        return self._log

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
