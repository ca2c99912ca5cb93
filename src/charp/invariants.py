"""Local invariants of degree-p symbols over GF(q)(t).

A place is a monic irreducible polynomial or the degree-one place at
infinity.  The local invariant of a symbol with slots (a, b) at a place v is

    Tr_{k(v)/F_p}( res_v( a * db/b ) )   in   Z/p,

read off the principal part of a * db/b at v by the residue theorem (see
``traced_residue``).  The pole order of a is not reduced first, because
Tr res_v((c^p - c) db/b) = 0 for every c.  ``symbol_vector`` reads the
principal parts off the unreduced form of a * db/b, with no gcd and no
trial division: at a place t - alpha of degree one by the shift
t = alpha + s (``_degree_one_residue``), at the other places through
pi^m as ``traced_residue`` does.  ``local_invariant`` reads one off the
reduced form, always through pi^m.

Everything here works on plain rational functions; symbol and expression
level plumbing lives in the oracle module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .poly import (Poly, PolyRing, RatFunc, _monic_den, _poly_rem, _powmod_poly,
                   factor_univariate, poly_exact_div, poly_inv_mod, poly_valuation)


class BackendError(ValueError):
    """The invariant oracle was asked about an unsupported backend."""


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

class Place:
    """A monic irreducible over GF(q), or the place at infinity (pi None).
    Immutable: places are compared and hashed by ``pi``."""

    __slots__ = ("pi",)

    def __init__(self, pi: Optional[Poly]):
        object.__setattr__(self, "pi", pi)

    def __setattr__(self, name, value):
        raise AttributeError("a place is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pi,) == (other.pi,)

    def __hash__(self) -> int:
        return hash((self.pi,))

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree_in(0)

    def sort_key(self):
        if self.pi is None:
            return (1, 0, ())
        code = tuple(self.pi.terms.get((e,), self.pi.ring.field.zero)
                     for e in range(self.pi.degree_in(0) + 1))
        return (0, self.pi.degree_in(0), code)

    def __repr__(self) -> str:
        from .textform import format_place
        return format_place(self)


INF = Place(None)


def _place_orders(*polys: Poly) -> Dict[Place, int]:
    """The places dividing the polynomials, in sort order, each with its
    multiplicity in their product."""
    orders: Dict[Place, int] = {}
    for f in polys:
        if not f.is_constant():
            for pi, k in factor_univariate(f)[1].items():
                place = Place(pi)
                orders[place] = orders.get(place, 0) + k
    return {pl: orders[pl] for pl in sorted(orders, key=Place.sort_key)}


def valuation(x: RatFunc, place: Place) -> int:
    """The valuation of a nonzero rational function at a place."""
    if x.is_zero():
        raise ValueError("the zero function has no finite valuation")
    if place.is_infinite:
        return x.den.degree_in(0) - x.num.degree_in(0)
    return poly_valuation(x.num, place.pi)[0] - poly_valuation(x.den, place.pi)[0]


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------

class ResidueField:
    """GF(q)[x]/(pi): elements are polynomial representatives of degree < deg pi."""

    def __init__(self, pi: Poly):
        self.pi = pi
        self.ring = pi.ring
        self.e = pi.degree_in(0)
        self.base = pi.ring.field

    def reduce(self, f: Poly) -> Poly:
        return _poly_rem(f, self.pi)

    def pow(self, a: Poly, n: int) -> Poly:
        return _powmod_poly(a, n, self.pi)

    def trace_to_prime(self, a: Poly) -> int:
        """Absolute trace of the residue class down to F_p."""
        p = self.base.p
        acc = self.ring.zero()
        cur = self.reduce(a)
        for _ in range(self.base.d * self.e):
            acc = acc + cur
            cur = self.pow(cur, p)
        acc = self.reduce(acc)
        if acc.is_zero():
            return 0
        if acc.degree_in(0) != 0:
            raise AssertionError("trace landed outside the prime field")
        c = acc.constant_value()
        if any(c[1:]):
            raise AssertionError("trace landed outside the prime field")
        return c[0]


# ---------------------------------------------------------------------------
# the local invariant
# ---------------------------------------------------------------------------

def traced_residue(f: RatFunc, place: Place) -> int:
    """Tr_{k(v)/F_p} res_v(f dt), read off the principal part of f at v.

    At a finite place pi, write f = num / (pi^m h) with pi prime to h; the
    principal part is r / pi^m with r = num / h mod pi^m.  Its only other
    pole is at infinity, so by the residue theorem its residue traced to
    GF(q) is the coefficient of t^(m deg pi - 1) in r.  At infinity only the
    proper part r / den of f has a residue: minus the coefficient of
    t^(deg den - 1) in r, the denominator being monic."""
    m = 0 if place.is_infinite else poly_valuation(f.den, place.pi)[0]
    return _traced_residue(f.num, f.den, place, m)


def _traced_residue(num: Poly, den: Poly, place: Place, m: int) -> int:
    """``traced_residue`` of num / den, den monic and of valuation m at a
    finite place, the fraction not necessarily reduced: a pole of order
    k <= m with principal part s / pi^k gives r = s pi^(m-k), whose
    coefficient of t^(m deg pi - 1) is s's of t^(k deg pi - 1); at infinity
    num mod den is g (num' mod den') for the reduced num' / den' and a
    monic g, with the same coefficient of t^(deg den - 1)."""
    field = num.ring.field
    if place.is_infinite:
        c = _poly_rem(num, den).terms.get((den.degree_in(0) - 1,))
        return 0 if c is None else field.trace_to_prime(field.neg(c))
    if m == 0:
        return 0
    modulus = place.pi ** m
    inv = poly_inv_mod(poly_exact_div(den, modulus), modulus)
    r = _poly_rem(_poly_rem(num, modulus) * inv, modulus)
    c = r.terms.get((m * place.degree - 1,))
    return 0 if c is None else field.trace_to_prime(c)


def local_invariant(a: RatFunc, b: RatFunc, place: Place) -> int:
    """Tr(res_v(a db/b)) in Z/p, from the principal part of a db/b at v.

    The pole order of a needs no reduction: Tr res_v((c^p - c) db/b) = 0 for
    every c, so a and a - (c^p - c) have the same invariant."""
    return traced_residue(_symbol_form(a, b), place) % a.ring.field.p


def _symbol_form(a: RatFunc, b: RatFunc) -> RatFunc:
    """a db/b, whose traced residues are the local invariants of (a, b)."""
    if b.is_zero():
        raise ValueError("the b slot of a symbol must be nonzero")
    if a.is_zero():
        return a
    return a * (b.derivative(b.ring.variables[0]) / b)


def support_places(a: RatFunc, b: RatFunc) -> Dict[Place, int]:
    """Places where the invariant of (a, b) can be nonzero, infinity last:
    poles of a, zeros and poles of b, and infinity, each with the valuation
    there of D = a.den * b.num * b.den (-deg D at infinity)."""
    out = _place_orders(a.den, b.num, b.den)
    out[INF] = -sum(f.degree_in(0) for f in (a.den, b.num, b.den))
    return out


# ---------------------------------------------------------------------------
# invariant vectors
# ---------------------------------------------------------------------------

class InvariantVector:
    """A finitely supported map from places to Z/p."""

    def __init__(self, p: int, entries: Optional[Dict[Place, int]] = None):
        self.p = p
        self.entries = {pl: v % p for pl, v in (entries or {}).items() if v % p}

    def copy(self) -> "InvariantVector":
        return InvariantVector(self.p, dict(self.entries))

    def add_in(self, place: Place, value: int) -> None:
        v = (self.entries.get(place, 0) + value) % self.p
        if v:
            self.entries[place] = v
        else:
            self.entries.pop(place, None)

    def __add__(self, other: "InvariantVector") -> "InvariantVector":
        if self.p != other.p:
            raise ValueError("invariant vectors over different primes")
        out = self.copy()
        for pl, v in other.entries.items():
            out.add_in(pl, v)
        return out

    def __neg__(self) -> "InvariantVector":
        return InvariantVector(self.p, {pl: -v for pl, v in self.entries.items()})

    def __sub__(self, other: "InvariantVector") -> "InvariantVector":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InvariantVector) and self.p == other.p
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self.entries.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def total(self) -> int:
        return sum(self.entries.values()) % self.p

    def support(self) -> List[Place]:
        return sorted(self.entries, key=Place.sort_key)

    def __repr__(self) -> str:
        from .textform import format_invariant_vector
        return format_invariant_vector(self)


def index_exponent(v: InvariantVector) -> Tuple[int, int]:
    """(index, exponent) of the class an invariant vector describes.

    The exponent is the least common multiple of the orders of the entries;
    each nonzero entry of Z/p has order p.  Over this global backend the
    index always equals the exponent (recorded as an oracle assumption)."""
    exp = 1
    for val in v.entries.values():
        if val % v.p:
            exp = v.p
            break
    return exp, exp


def symbol_vector(a: RatFunc, b: RatFunc, p: int) -> InvariantVector:
    """The local invariants of (a, b) at every place of its support, read
    off a db/b = N / D unreduced: D = a.den * b.num * b.den made monic,
    N = a.num (b.num' b.den - b.num b.den') scaled with it, and the
    valuations of D from ``support_places``."""
    if b.is_zero():
        raise ValueError("the b slot of a symbol must be nonzero")
    out = InvariantVector(p)
    bn, bd = b.num, b.den
    num = a.num * (bn.derivative(0) * bd - bn * bd.derivative(0))
    if num.is_zero():
        return out
    num, den = _monic_den(num, a.den * bn * bd)
    for place, m in support_places(a, b).items():
        if place.pi is not None and len(place.pi.coeffs) == 2:
            out.add_in(place, _degree_one_residue(num, den, place.pi, m))
        else:
            out.add_in(place, _traced_residue(num, den, place, m))
    return out


def _degree_one_residue(num: Poly, den: Poly, pi: Poly, m: int) -> int:
    """``_traced_residue`` at a place pi = t - alpha of multiplicity m in
    den, by the shift t = alpha + s: the residue is the coefficient of
    s^(m-1) in num(alpha + s) / h, h = den(alpha + s) / s^m, taken from
    the first m Taylor coefficients of num and those m, ..., 2m - 1 of den
    by one power-series division."""
    field = num.ring.field
    ops = field.ints
    alpha = ops.neg(pi.coeffs[0])
    n = _taylor(ops, num.coeffs, alpha, 0, m)
    h = _taylor(ops, den.coeffs, alpha, m, 2 * m)
    inv, mul, sub = ops.inv(h[0]), ops.mul, ops.sub
    c = []
    for k in range(m):
        acc = n[k]
        for j in range(1, k + 1):
            acc = sub(acc, mul(h[j], c[k - j]))
        c.append(mul(acc, inv))
    return field.trace_to_prime(ops.decode(c[-1]))


def _taylor(ops, a: list, x, lo: int, hi: int) -> list:
    """The coefficients of s^lo, ..., s^(hi-1) in a(x + s), a low degree
    first: a's own at x = 0, else by hi synthetic divisions by t - x (the
    Horner rule of ``_upoly_eval``, keeping its partial sums as the
    quotient)."""
    if not x:
        return a[lo:hi] + [0] * (hi - max(lo, len(a)))
    add, mul, out = ops.add, ops.mul, []
    a = a[::-1]
    for k in range(hi):
        q, acc = [], ops.zero
        for c in a:
            acc = add(mul(acc, x), c)
            q.append(acc)
        r = q.pop() if q else ops.zero
        if k >= lo:
            out.append(r)
        a = q
    return out


# ---------------------------------------------------------------------------
# realization of prescribed vectors
# ---------------------------------------------------------------------------

class RealizeError(ValueError):
    """A prescribed vector cannot be realized with the given b slots."""

    def __init__(self, message: str, place: Optional[Place] = None):
        super().__init__(message)
        self.place = place


def trace_preimage(res: ResidueField, target: int) -> Poly:
    """A canonical residue class with prescribed absolute trace, found on the
    F_p-basis x^k * g^j of the residue field."""
    p = res.base.p
    target %= p
    if target == 0:
        return res.ring.zero()
    for k in range(res.e):
        for j in range(res.base.d):
            coeff = res.base.pow(res.base.gen, j)
            cand = res.reduce(Poly(res.ring, {(k,): coeff}))
            tr = res.trace_to_prime(cand)
            if tr:
                scale = (target * pow(tr, p - 2, p)) % p
                return res.reduce(cand.scale(res.base.from_int(scale)))
    raise AssertionError("trace form is surjective; no preimage found")


def realize_slot(b: RatFunc, targets: Dict[Place, int], p: int) -> RatFunc:
    """An element a with local invariant of (a, b) equal to ``targets`` at
    every finite place and the reciprocity-forced value at infinity.

    Feasible when each targeted finite place has valuation of b prime to p;
    at every other finite place of b with valuation prime to p the residue
    class of a is pinned to zero.  Raises RealizeError otherwise."""
    ring = b.ring
    requirements: List[Tuple[Poly, Poly]] = []  # (place poly, residue rep)
    handled = set()
    for place in _place_orders(b.num, b.den):
        m = valuation(b, place) % p
        tgt = targets.get(place, 0) % p
        if m == 0:
            if tgt:
                raise RealizeError(
                    "b has p-divisible valuation at a targeted place", place)
            continue
        handled.add(place)
        res = ResidueField(place.pi)
        want = (tgt * pow(m, p - 2, p)) % p
        requirements.append((place.pi, trace_preimage(res, want)))
    for place, tgt in targets.items():
        if place.is_infinite:
            raise RealizeError("infinite place targets are set by reciprocity", place)
        if tgt % p and place not in handled:
            raise RealizeError("targeted place does not divide b oddly", place)
    if not requirements:
        return RatFunc.zero(ring)
    return RatFunc.from_poly(_poly_crt(requirements))


def _poly_crt(pairs: List[Tuple[Poly, Poly]]) -> Poly:
    ring = pairs[0][0].ring
    modulus = ring.one()
    for pi, _ in pairs:
        modulus = modulus * pi
    out = ring.zero()
    for pi, rep in pairs:
        other = poly_exact_div(modulus, pi)
        inv = poly_inv_mod(other, pi)
        out = out + rep * other * inv
    return _poly_rem(out, modulus)


def realize_pairs(vector: InvariantVector, ring: PolyRing,
                  b_slots: Optional[List[RatFunc]] = None
                  ) -> List[Tuple[RatFunc, RatFunc, Optional[int]]]:
    """Slot data (a_i, b_i, slot index) whose summed local invariants equal
    the vector.

    With free slots, each finite place w with value c contributes one pair
    (a, pi_w) with the residue class of a chosen so the invariant at w is c;
    reciprocity closes the infinite place.  With prescribed slots the finite
    support is consumed greedily across the slots (slots left with nothing
    to do are skipped); a leftover is infeasible and reported with its
    obstructing place."""
    p = vector.p
    if vector.total() != 0:
        raise RealizeError("entries must sum to zero")
    remaining = vector.copy()
    out: List[Tuple[RatFunc, RatFunc, Optional[int]]] = []
    if b_slots is None:
        for place in vector.support():
            if place.is_infinite:
                continue
            c = vector.entries[place]
            b = RatFunc.from_poly(place.pi)
            a = realize_slot(b, {place: c}, p)
            out.append((a, b, None))
            remaining = remaining - symbol_vector(a, b, p)
    else:
        for idx, b in enumerate(b_slots):
            targets = {}
            for place in list(remaining.support()):
                if place.is_infinite:
                    continue
                if valuation(b, place) % p:
                    targets[place] = remaining.entries[place]
            if not targets:
                continue
            a = realize_slot(b, targets, p)
            out.append((a, b, idx))
            remaining = remaining - symbol_vector(a, b, p)
    finite_left = [pl for pl in remaining.support() if not pl.is_infinite]
    if finite_left:
        raise RealizeError("vector not realizable with the given slots", finite_left[0])
    if not remaining.is_zero():
        raise AssertionError("reciprocity failed to close the infinite place")
    return out
