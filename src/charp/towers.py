"""Field extension towers over rational function fields.

A tower starts from GF(p^d)(t_1, ..., t_m) and stacks extension steps of
degree p:

* ``artin_schreier``: adjoin i with i^p - i = a, for a not of that form below;
* ``insep_root``: adjoin s with s^p = b, for b not a p-th power below.

Both tests are exact, so every step polynomial is irreducible.

An element of level k is stored as a dense coefficient vector over level
k-1 (a polynomial in the top generator of degree below p), bottoming out
in reduced rational functions.  That normal form is unique, so equality
is structural.

A norm equation N(z) = y asks for z one step above y.  Over a root step
K = F(b^(1/p)) we have K^p in F, so N(z) = z^p and the p-th root test
answers it exactly; over an Artin-Schreier step it is a bounded search.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as _iproduct
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .ffield import FiniteField, _PrimeField
from .poly import (Poly, PolyRing, RatFunc, _coprime, _generic_pow, _memo, _normalize_lead,
                   _poly_rem, _powmod_poly, factor_univariate, poly_divmod_1var,
                   poly_exact_div, poly_gcd, poly_inv_mod, poly_valuation, _solve_linear,
                   _upoly_inv_mod, _upoly_mul, _upoly_rem, _upoly_resultant, _upoly_trim)

MAX_DEPTH = 8
MAX_TOTAL_DEGREE = 256
MAX_POWER_DEGREE = 256  # of a parsed power: exponent times its base's degree


class StepError(ValueError):
    """A proposed extension step violates its invariants."""


class ExtStep(NamedTuple):
    """One extension step, of degree p; ``data`` is the representation of
    the defining element, given at the level below the step."""

    kind: str
    gen: str
    data: object


# The tower registry, signature -> tower.  Not weak: memo hits come mostly
# from later computations that rebuild a tower no live object still holds.
_TOWERS: dict = {}


class FieldTower:
    """A base rational function field plus a chain of extension steps.

    Towers are interned on their signature: ``FieldTower(field, vars)``,
    ``make_step`` and ``truncate`` return the existing tower when an equal
    one was built before, so equal towers are the same object.  Each tower
    links to its ``parent`` (the tower one step lower, None at the base)
    and carries ``memo``, the cache ``_memo`` keeps on it.  Over GF(p^d)
    with d > 1 the name ``g`` is the constant field generator of the text
    form, so neither a variable nor a generator may take it."""

    def __new__(cls, base_field: FiniteField, base_vars: Sequence[str]):
        if base_field.d > 1 and "g" in base_vars:
            raise ValueError("variable name 'g' is reserved for the constant "
                             "field generator")
        return _interned(PolyRing(base_field, base_vars), (), None)

    @property
    def p(self) -> int:
        return self.base_field.p

    @property
    def depth(self) -> int:
        return len(self.steps)

    def step_at(self, level: int) -> ExtStep:
        if level < 1 or level > self.depth:
            raise ValueError("no step at level %d" % level)
        return self.steps[level - 1]

    def generator_names(self, level: Optional[int] = None) -> List[str]:
        upto = self.depth if level is None else level
        return [s.gen for s in self.steps[:upto]]

    def __repr__(self) -> str:
        from .textform import format_tower
        return format_tower(self)

    def signature(self, level: Optional[int] = None):
        """A hashable fingerprint of the tower below a level: the key of the
        tower registry."""
        upto = self.depth if level is None else level
        return (self.base_field.p, self.base_field.d, self.ring.variables,
                self.steps[:upto])


def _interned(ring: PolyRing, steps: Tuple[ExtStep, ...],
              parent: Optional[FieldTower]) -> FieldTower:
    tower = object.__new__(FieldTower)
    tower.base_field = ring.field
    tower.ring = ring
    tower.steps = steps
    tower.parent = parent
    tower.memo = {}
    return _TOWERS.setdefault(tower.signature(), tower)


class Elem:
    """An element of a tower level, in reduced normal form."""

    __slots__ = ("tower", "level", "rep", "_hash")

    def __init__(self, tower: FieldTower, level: int, rep):
        self.tower = tower
        self.level = level
        self.rep = rep
        self._hash = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Elem) and self.level == other.level
                and self.rep == other.rep)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.level, self.rep))
        return self._hash

    def __repr__(self) -> str:
        from .textform import format_elem
        return format_elem(self)

    def is_zero(self) -> bool:
        return _ops(self.tower, self.level).is_zero(self.rep)


def _ops(tower: FieldTower, level: int) -> "LevelOps":
    return _memo(tower, level, lambda: LevelOps(tower, level))


class LevelOps:
    """Field operations on the raw representations of one tower level."""

    def __init__(self, tower: FieldTower, level: int):
        self.tower = tower
        self.level = level
        if level == 0:
            self._lower = None
            self.zero = RatFunc.zero(tower.ring)
            self.one = RatFunc.one(tower.ring)
        else:
            low = self._lower = _ops(tower, level - 1)
            step = tower.step_at(level)
            self.zero = (low.zero,) * tower.p
            self.one = self.lift(low.one)
            # the monic step polynomial over the level below, little-endian
            self.minpoly = [low.neg(step.data)] + [low.zero] * (tower.p - 1) + [low.one]
            if step.kind == "artin_schreier":
                self.minpoly[1] = low.sub(self.minpoly[1], low.one)

    # representation helpers ------------------------------------------------

    def lift(self, lower_rep):
        """Embed a level-(k-1) representation into level k."""
        return (lower_rep,) + (self._lower.zero,) * (self.tower.p - 1)

    def gen_rep(self):
        return ((self._lower.zero, self._lower.one)
                + (self._lower.zero,) * (self.tower.p - 2))

    def is_zero(self, a) -> bool:
        if self.level == 0:
            return a.is_zero()
        return all(self._lower.is_zero(c) for c in a)

    # arithmetic -------------------------------------------------------------

    def add(self, a, b):
        if self.level == 0:
            return a + b
        return tuple(self._lower.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        if self.level == 0:
            return a - b
        return tuple(self._lower.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self.level == 0:
            return -a
        return tuple(self._lower.neg(x) for x in a)

    def mul(self, a, b):
        if self.level == 0:
            return a * b
        low = self._lower
        prod = _upoly_rem(low, _upoly_mul(low, a, b), self.minpoly)
        return tuple(prod) + (low.zero,) * (self.tower.p - len(prod))

    def inv(self, a):
        if self.level == 0:
            if a.is_zero():
                raise ZeroDivisionError("inverse of zero in the base field")
            return a.inv()
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero at level %d" % self.level)
        try:
            out = _upoly_inv_mod(self._lower, list(a), self.minpoly)
        except ZeroDivisionError:
            raise ArithmeticError(
                "step relation is reducible; tower arithmetic is inconsistent") from None
        return tuple(out) + (self._lower.zero,) * (self.tower.p - len(out))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return _generic_pow(a, n, self.one, self.mul)

    def from_int(self, n: int):
        if self.level == 0:
            return RatFunc.from_poly(self.tower.ring.from_int(n))
        return self.lift(self._lower.from_int(n))


# ---------------------------------------------------------------------------
# element-level API
# ---------------------------------------------------------------------------

def int_elem(tower: FieldTower, level: int, n: int) -> Elem:
    return Elem(tower, level, _ops(tower, level).from_int(n))


def const_elem(tower: FieldTower, c, level: int = 0) -> Elem:
    x = Elem(tower, 0, RatFunc.from_poly(tower.ring.constant(c)))
    return lift(x, level)


def var_elem(tower: FieldTower, name: str, level: int = 0) -> Elem:
    x = Elem(tower, 0, RatFunc.from_poly(tower.ring.var(name)))
    return lift(x, level)


def gen_elem(tower: FieldTower, level: int) -> Elem:
    """The generator adjoined at the given level, as a level element."""
    return Elem(tower, level, _ops(tower, level).gen_rep())


def step_defining_elem(tower: FieldTower, level: int) -> Elem:
    """The defining element of the step at ``level``, rebound to this tower
    (steps are shared between a tower and its extensions)."""
    return Elem(tower, level - 1, tower.step_at(level).data)


def rebind(x: Elem, tower: FieldTower) -> Elem:
    """Reattach an element to another tower with the same step prefix up to
    the element's level; raises ValueError for any other tower."""
    if x.level > tower.depth:
        raise ValueError("target tower is too shallow")
    if truncate(tower, x.level) is not truncate(x.tower, x.level):
        raise ValueError("target tower differs below the element's level")
    return Elem(tower, x.level, x.rep)


def truncate(tower: FieldTower, level: int) -> FieldTower:
    """The tower of the first ``level`` steps: an ancestor of ``tower``."""
    if level > tower.depth:
        raise ValueError("cannot truncate above the top")
    while tower.depth > level:
        tower = tower.parent
    return tower


def fresh_gen_name(tower: FieldTower, base: str = "w") -> str:
    """A deterministic generator name unused by the tower."""
    taken = set(tower.ring.variables) | set(tower.generator_names()) | {"g"}
    if base not in taken:
        return base
    k = 1
    while "%s%d" % (base, k) in taken:
        k += 1
    return "%s%d" % (base, k)


def lift(x: Elem, level: int) -> Elem:
    """Reinterpret x at a higher level of the same tower."""
    if level < x.level:
        raise ValueError("lift goes upward only; use descend")
    rep = x.rep
    for k in range(x.level + 1, level + 1):
        rep = _ops(x.tower, k).lift(rep)
    return Elem(x.tower, level, rep)


def descend(x: Elem, level: int) -> Elem:
    """Reinterpret x at a lower level; fails if x does not live there."""
    if level > x.level:
        raise ValueError("descend goes downward only; use lift")
    rep = x.rep
    for k in range(x.level, level, -1):
        ops = _ops(x.tower, k)
        if any(not ops._lower.is_zero(c) for c in rep[1:]):
            raise ValueError("element does not belong to level %d" % level)
        rep = rep[0]
    return Elem(x.tower, level, rep)


def level_of_definition(x: Elem) -> int:
    """The smallest level whose normal form carries x."""
    lvl, rep = x.level, x.rep
    while lvl > 0:
        ops = _ops(x.tower, lvl)
        if any(not ops._lower.is_zero(c) for c in rep[1:]):
            return lvl
        rep = rep[0]
        lvl -= 1
    return 0


def _binop(a: Elem, b: Elem, name: str) -> Elem:
    if a.tower is not b.tower:
        raise ValueError("elements from different towers; rebind first")
    level = max(a.level, b.level)
    a, b = lift(a, level), lift(b, level)
    ops = _ops(a.tower, level)
    return Elem(a.tower, level, getattr(ops, name)(a.rep, b.rep))


def add(a: Elem, b: Elem) -> Elem:
    return _binop(a, b, "add")


def sub(a: Elem, b: Elem) -> Elem:
    return _binop(a, b, "sub")


def mul(a: Elem, b: Elem) -> Elem:
    return _binop(a, b, "mul")


def div(a: Elem, b: Elem) -> Elem:
    return _binop(a, b, "div")


def neg(a: Elem) -> Elem:
    return Elem(a.tower, a.level, _ops(a.tower, a.level).neg(a.rep))


def power(a: Elem, n: int) -> Elem:
    return Elem(a.tower, a.level, _ops(a.tower, a.level).pow(a.rep, n))


def wp(a: Elem) -> Elem:
    """The additive map w(x) = x^p - x."""
    return sub(power(a, a.tower.p), a)


# ---------------------------------------------------------------------------
# step construction and validity
# ---------------------------------------------------------------------------

def make_step(tower: FieldTower, kind: str, gen: str, data) -> FieldTower:
    """Extend a tower by one validated step.

    ``data`` is the defining element, at or below the tower top; ``rebind``
    refuses one above it with a ValueError.  A step is degenerate exactly
    when ``artin_schreier_preimage`` (artin_schreier) or
    ``pth_root_in_level`` (insep_root) finds one; degenerate steps are
    rejected with the reason in the exception message.
    """
    if tower.depth >= MAX_DEPTH:
        raise StepError("tower nesting depth limit (%d) reached" % MAX_DEPTH)
    if gen in tower.ring.variables or gen in tower.generator_names():
        raise StepError("generator name %r already in use" % gen)
    if gen == "g" and tower.base_field.d > 1:
        raise StepError("generator name 'g' is reserved for the constant field generator")
    p = tower.p
    if kind == "artin_schreier":
        a = lift(rebind(data, tower), tower.depth)
        hit = artin_schreier_preimage(a)
        if hit is not None:
            raise StepError(
                "degenerate step: defining element equals w^%d - w for w = %r" % (p, hit))
        payload = a.rep
    elif kind == "insep_root":
        b = lift(rebind(data, tower), tower.depth)
        if b.is_zero():
            raise StepError("degenerate step: radicand is zero")
        root = pth_root_in_level(b)
        if root is not None:
            raise StepError(
                "degenerate step: radicand is the %d-th power of %r" % (p, root))
        payload = b.rep
    else:
        raise StepError("unknown step kind %r" % kind)
    if p ** (tower.depth + 1) > MAX_TOTAL_DEGREE:
        raise StepError("tower degree limit (%d) exceeded" % MAX_TOTAL_DEGREE)
    return _interned(tower.ring, tower.steps + (ExtStep(kind, gen, payload),), tower)


# ---------------------------------------------------------------------------
# p-th powers
# ---------------------------------------------------------------------------

def _memo_on_prefix(name: str, compute, *xs: Elem) -> Optional[Elem]:
    """``compute`` applied to the elements xs (one tower, one level) on the
    tower below their level, memoized there by the tuple of their
    representations, so every tower sharing that prefix shares it."""
    tower, level = xs[0].tower, xs[0].level
    prefix = truncate(tower, level)

    def rep_or_none():
        out = compute(*(Elem(prefix, level, x.rep) for x in xs))
        return None if out is None else out.rep

    rep = _memo(prefix, (name,) + tuple(x.rep for x in xs), rep_or_none)
    return None if rep is None else Elem(tower, level, rep)


def pth_root_in_level(x: Elem) -> Optional[Elem]:
    """A y at the same level with y^p = x, or None.  Memoized.

    Exact on every tower: y's coordinates over the base field solve one
    linear system whose columns are the p-th powers of the generator
    monomials, read in the p-basis of the base field.
    """
    return _memo_on_prefix("pth_root", _pth_root_uncached, x)


def _pth_root_uncached(x: Elem) -> Optional[Elem]:
    # Over the base F, y = sum_e y_e g^e has y^p = sum_e y_e^p (g^e)^p.  In
    # the p-basis of F over F^p each base coordinate reads c = sum_r c_r^p t^r,
    # so y^p = x is F-linear in the y_e: sum_e y_e ((g^e)^p)_(f,r) = x_(f,r).
    # Frobenius is injective, so a solution is the root.  Separable steps
    # create no new p-th powers, so the system is set up at the lowest level
    # that carries x and lies above every root step.
    tower = x.tower
    level = max([level_of_definition(x)]
                + [k for k in range(1, x.level + 1) if tower.step_at(k).kind == "insep_root"])
    exps, columns = _frobenius_columns(truncate(tower, level))
    sol = _solve_columns(_ops(tower, 0), columns, _p_coordinates(descend(x, level)))
    if sol is None:
        return None
    return lift(_from_coordinates(tower, level, dict(zip(exps, sol))), x.level)


def _frobenius_columns(tower: FieldTower) -> Tuple[list, list]:
    """The generator exponent vectors e of the top level of ``tower`` and,
    for each, ``_p_coordinates`` of (g^e)^p.  Memoized on the tower."""
    def build():
        exps = list(_iproduct(range(tower.p), repeat=tower.depth))
        one = RatFunc.one(tower.ring)
        monomials = (_from_coordinates(tower, tower.depth, {e: one}) for e in exps)
        return exps, [_p_coordinates(power(g, tower.p)) for g in monomials]
    return _memo(tower, "frobenius_columns", build)


def _p_coordinates(x: Elem) -> dict:
    """The base coordinates of x, each in the p-basis of the base field:
    {(generator exponents, p-basis exponents): coordinate}."""
    return {(f, r): c for f, cf in _coordinates(x, 0).items()
            for r, c in _p_basis_coordinates(cf).items()}


def _p_basis_coordinates(x: RatFunc) -> dict:
    """Write x = sum_e c_e^p * t^e over exponent vectors e with entries < p;
    returns {e: c_e}.  Uses x = (num * den^(p-1)) / den^p."""
    ring = x.ring
    p = ring.field.p
    adjusted = x.num * (x.den ** (p - 1))
    field = ring.field
    pieces: dict = {}
    for mon, c in adjusted.terms.items():
        residue = tuple(e % p for e in mon)
        quotient = tuple(e // p for e in mon)
        piece = Poly(ring, {quotient: field.pth_root(c)})
        cur = pieces.get(residue)
        pieces[residue] = piece if cur is None else cur + piece
    return {res: RatFunc(poly, x.den) for res, poly in pieces.items() if not poly.is_zero()}


def _solve_columns(ops, columns: List[dict], target: dict):
    """Solve sum_j x_j * columns[j] = target, each side a sparse map from
    row keys to entries (absent keys are zero): ``_solve_linear`` over the
    union of the keys."""
    keys = list(dict.fromkeys(k for vec in columns + [target] for k in vec))
    matrix = [[col.get(k, ops.zero) for col in columns] for k in keys]
    return _solve_linear(ops, matrix, [target.get(k, ops.zero) for k in keys])


# ---------------------------------------------------------------------------
# Artin-Schreier preimages
# ---------------------------------------------------------------------------

def artin_schreier_preimage(a: Elem) -> Optional[Elem]:
    """Some c at the level of a with c^p - c = a, or None.  Memoized.

    Base level: pole-order reduction at every place (univariate) or an exact
    semilinear solve (multivariate).  Above it, one coordinate of c at a
    time over the level below, through root and Artin-Schreier steps alike.
    Exact on every tower: None means there is no such c.
    """
    return _memo_on_prefix("as_preimage", _as_preimage_uncached, a)


def _as_preimage_uncached(a: Elem) -> Optional[Elem]:
    # Over the level below, c = sum_k c_k g^k has c^p = sum_k c_k^p (g^p)^k;
    # (g^p)^k = (g + b)^k has coordinates C(k,j) b^(k-j), j <= k, for a step
    # g^p - g = b, and (g^p)^k = b^k sits in coordinate 0 for g^p = b.  So
    # coordinate j of c^p - c = a, solved from j = p-1 down, is the equation
    # c_j^p - c_j = a_j - (sum_{k>j} c_k g^k)^p_j one level down where that
    # diagonal entry is 1 (Artin-Schreier step, or j = 0), else c_j = -a_j.
    # The GF(p) translates of c_j are tried in order while a lower one uses them.
    tower, level = a.tower, a.level
    if level == 0:
        return _as_preimage_base(a)
    kind = tower.step_at(level).kind
    ops, low, p = _ops(tower, level), _ops(tower, level - 1), tower.p

    def solve(j, c):
        # c: the coordinates above j chosen, those at and below j zero
        rhs = low.sub(a.rep[j], ops.pow(c, p)[j])
        if kind == "insep_root" and j > 0:
            choices = [low.neg(rhs)]
        else:
            pre = artin_schreier_preimage(Elem(tower, level - 1, rhs))
            if pre is None:
                return None
            lams = range(p) if kind == "artin_schreier" and j > 0 else [0]
            choices = [low.add(pre.rep, low.from_int(lam)) for lam in lams]
        for cj in choices:
            out = c[:j] + (cj,) + c[j + 1:]
            out = out if j == 0 else solve(j - 1, out)
            if out is not None:
                return out
        return None

    out = solve(p - 1, ops.zero)
    return None if out is None else Elem(tower, level, out)


def _as_preimage_base(a: Elem) -> Optional[Elem]:
    tower = a.tower
    if tower.ring.nvars == 1:
        reduced, witness = reduce_artin_schreier_slot(a)
        return witness if reduced.is_zero() else None
    return _as_preimage_multivariate(tower, a.rep)


def reduce_artin_schreier_slot(a: Elem) -> Tuple[Elem, Elem]:
    """Pole-order reduction of a univariate base element: returns (a', c)
    with a' = a - (c^p - c), every pole order of a' prime to p, and the
    constant part absorbed whenever its trace allows.  a' is zero exactly
    when a = c^p - c has a solution."""
    tower = a.tower
    if a.level != 0 or tower.ring.nvars != 1:
        raise ValueError("pole-order reduction lives on the univariate base")
    ring = tower.ring
    field = ring.field
    p = field.p
    cur = a.rep
    witness = RatFunc.zero(ring)
    changed = True
    while changed:
        changed = False
        if not cur.is_zero() and not cur.den.is_constant():
            _, factors = factor_univariate(cur.den)
            for pi, mult in sorted(factors.items(), key=lambda kv: (kv[0].degree_in(0), str(kv[0]))):
                if mult % p != 0:
                    continue
                k = mult // p
                lead = _leading_digit(cur, pi, mult)
                root = _residue_pth_root(pi, lead)
                c = RatFunc(root, pi ** k)
                cur = cur - (c ** p - c)
                witness = witness + c
                changed = True
                break
            if changed:
                continue
        poly_part = poly_divmod_1var(cur.num, cur.den)[0]
        dpp = poly_part.degree_in(0)
        if dpp >= 1 and dpp % p == 0:
            lead = field.pth_root(poly_part.terms[(dpp,)])
            c = RatFunc.from_poly(Poly(ring, {(dpp // p,): lead}))
            cur = cur - (c ** p - c)
            witness = witness + c
            changed = True
    poly_part = poly_divmod_1var(cur.num, cur.den)[0]
    const = poly_part.terms.get((0,))
    if const is not None:
        sol = field.solve_artin_schreier(const)
        if sol is not None:
            c = RatFunc.from_poly(ring.constant(sol))
            cur = cur - (c ** p - c)
            witness = witness + c
    return Elem(tower, 0, cur), Elem(tower, 0, witness)


def _leading_digit(x: RatFunc, pi: Poly, mult: int) -> Poly:
    """(x * pi^mult) mod pi: the leading expansion digit at the place pi."""
    den = x.den
    for _ in range(mult):
        den = poly_exact_div(den, pi)
    num_red = _poly_rem(x.num, pi)
    inv = poly_inv_mod(den, pi)
    return _poly_rem(num_red * inv, pi)


def _residue_pth_root(pi: Poly, rep: Poly) -> Poly:
    """p-th root in the residue field GF(q)[x]/(pi), as a representative."""
    field = pi.ring.field
    return _powmod_poly(rep, field.p ** (field.d * pi.degree_in(0) - 1), pi)


def _as_preimage_multivariate(tower: FieldTower, x: RatFunc) -> Optional[Elem]:
    """Exact semilinear solve of c^p - c = x over a multivariate base: the
    reduced denominator pins the denominator of c, the numerator is found by
    F_p-linear algebra on a bounded support."""
    ring = tower.ring
    p = ring.field.p
    if x.is_zero():
        return Elem(tower, 0, RatFunc.zero(ring))
    w = x.den.pth_power_root()
    if w is None:
        return None
    bounds = [max(x.num.degree_in(i), x.den.degree_in(i), 0) // p
              for i in range(ring.nvars)]
    field = ring.field
    basis = []
    for mon in _iproduct(*(range(b + 1) for b in bounds)):
        for b in range(field.d):
            coeff = tuple(1 if i == b else 0 for i in range(field.d))
            basis.append(Poly(ring, {mon: coeff}))
    w_pm1 = w ** (p - 1)

    def fp_coords(f: Poly) -> dict:
        # f over GF(p^d) as a vector over GF(p), keyed by (monomial, digit)
        return {(mon, b): digit for mon, c in f.terms.items()
                for b, digit in enumerate(c) if digit}

    sol = _solve_columns(_PrimeField(p), [fp_coords(u ** p - u * w_pm1) for u in basis],
                         fp_coords(x.num))
    if sol is None:
        return None
    num = ring.zero()
    for coeff, u in zip(sol, basis):
        if coeff:
            num = num + u.scale(field.from_int(coeff))
    return Elem(tower, 0, RatFunc(num, w))


# ---------------------------------------------------------------------------
# minimal polynomials, norms and norm equations
# ---------------------------------------------------------------------------

def _coordinates(x: Elem, low: int) -> dict:
    """Coordinates of x over level ``low``, keyed by generator exponents."""
    out: dict = {}

    def walk(rep, lvl, suffix):
        if lvl == low:
            out[suffix] = rep
            return
        for e, c in enumerate(rep):
            walk(c, lvl - 1, (e,) + suffix)

    walk(x.rep, x.level, ())
    return out


def _from_coordinates(tower: FieldTower, level: int, coords: dict) -> Elem:
    """The level element with base coordinates ``coords`` (base fractions
    keyed by generator exponents, absent keys zero): the inverse of
    ``_coordinates(x, 0)``.  The normal form is the nested coefficient
    tuple, so no tower product is needed."""
    zero = RatFunc.zero(tower.ring)

    def build(lvl, suffix):
        if lvl == 0:
            return coords.get(suffix, zero)
        return tuple(build(lvl - 1, (e,) + suffix)
                     for e in range(tower.p))

    return Elem(tower, level, build(level, ()))


def min_poly(x: Elem, down_to: int) -> List[Elem]:
    """Monic minimal polynomial of x over a lower level, as a little-endian
    coefficient list of level-``down_to`` elements: the first power x^k
    that is a combination c of 1, x, ..., x^(k-1) gives x^k - c."""
    tower = x.tower
    if down_to > x.level:
        raise ValueError("target level lies above the element")
    ops = _ops(tower, down_to)
    xk = int_elem(tower, x.level, 1)
    columns = [_coordinates(xk, down_to)]
    for _ in range(tower.p ** (x.level - down_to)):
        xk = mul(xk, x)
        target = _coordinates(xk, down_to)
        sol = _solve_columns(ops, columns, target)
        if sol is not None:
            coeffs = [Elem(tower, down_to, ops.neg(c)) for c in sol]
            return coeffs + [Elem(tower, down_to, ops.one)]
        columns.append(target)
    raise AssertionError("no linear dependence within the tower degree")


def norm(x: Elem, down_to: int = 0) -> Elem:
    """Norm of x from its level down to ``down_to``: the determinant of
    multiplication by x, computed stepwise as a resultant against each
    step's defining polynomial."""
    tower = x.tower
    if down_to > x.level:
        raise ValueError("norm target lies above the element")
    cur = x
    for lvl in range(x.level, down_to, -1):
        ops = _ops(tower, lvl)
        low = ops._lower
        g = _upoly_trim(low, list(cur.rep))
        res = _upoly_resultant(low, ops.minpoly, g)
        cur = Elem(tower, lvl - 1, res)
    return cur


def solve_norm(y: Elem, degree_bound: int = 4) -> Optional[Elem]:
    """A z one step above y's level with N(z) = y, or None.

    Over a root step N(z) = z^p, so z is the p-th root of y, found exactly
    whatever the bound.  Over an Artin-Schreier step candidate coordinates
    are base fractions with numerator and denominator degrees at most
    ``degree_bound``; the first hit in canonical enumeration order is
    returned, or None once the space is exhausted ("not found within the
    bound" is a value, not an error).  A step above the base goes through
    ``_solve_norm_shadow``.  Memoized on y's tower, per y and bound, a None
    included."""
    return _memo(y.tower, ("solve_norm", y.rep, degree_bound),
                 lambda: _solve_norm_uncached(y, degree_bound))


def _solve_norm_uncached(y: Elem, degree_bound: int) -> Optional[Elem]:
    tower, level = y.tower, y.level
    if tower.step_at(level + 1).kind == "insep_root":
        return None if y.is_zero() else pth_root_in_level(lift(y, level + 1))
    if level > 0:
        return _solve_norm_shadow(y, degree_bound)
    if tower.p == 2:
        return _solve_norm_char2_resolvent(y, degree_bound)
    for height in range(degree_bound + 1):
        for vec in _coordinate_tuples(tower, tower.p, height):
            z = Elem(tower, 1, vec)
            if not z.is_zero() and norm(z, 0) == y:
                return z
    return None


def _solve_norm_char2_resolvent(y: Elem, degree_bound: int) -> Optional[Elem]:
    """One Artin-Schreier step i^2 + i = w over the base in characteristic
    2: for each candidate c1 of the radical coordinate the norm equation
    becomes an Artin-Schreier equation for c0, decided exactly.  Covers
    every witness whose c1 coordinate has height within the bound, in
    canonical order.

    N(c0 + c1 i) = c0^2 + c0 c1 + c1^2 w = y: substituting c0 = c1 u gives
    u^2 + u = (y - c1^2 w) / c1^2.  With y = a/b and w = wn/wd reduced and
    c1 = n/d (d monic) that is N / (C n^2), where N = A d^2 - B n^2 and
    A = a wd, B = b wn and C = b wd are formed once.  It has a solution
    only if the reduced denominator is a square (for a reduced u = s/r,
    u^2 + u = (s^2 + s r) / r^2 is reduced).  The candidates are walked by
    numerator (``_ratfunc_groups``): ``_CyclicSieve`` settles once what a
    numerator alone decides, skipping its group when that fails, and hands
    on a pair that passes as the reduced fraction.  Only the hit becomes a
    ``RatFunc``."""
    tower = y.tower
    w = step_defining_elem(tower, 1).rep
    y0 = y.rep

    def finish(c0: RatFunc, c1: RatFunc) -> Elem:
        z = Elem(tower, 1, (c0, c1))
        if z.is_zero() or norm(z, 0) != y:
            raise AssertionError("norm resolvent produced a bad witness")
        return z

    if y0.is_zero():
        return None  # the norm of a nonzero element is nonzero
    root = y0.pth_root()
    if root is not None:
        return finish(root, RatFunc.zero(tower.ring))
    sieve = _CyclicSieve(tower, (y0.num * w.den, y0.den * w.num, y0.den * w.den))
    for h in range(degree_bound + 1):
        for n, dens in _ratfunc_groups(tower, h):
            checks = None if n.is_zero() else sieve.checks(n, h)
            if checks is None:
                continue
            for d in dens:
                rhs = sieve.fraction(checks, d)
                u = None if rhs is None else _as_preimage_base(Elem(tower, 0, rhs))
                if u is not None:
                    c1 = RatFunc(n, d, reduce=False)
                    return finish(c1 * u.rep, c1)
    return None


class _CyclicSieve:
    """The cyclic resolvent's test for one (A, B, C) = ``abc``, A and B
    nonzero: whether N / (C n^2), once reduced, has a square denominator,
    for the candidates c1 = n/d (reduced, d monic) of the height pools, with
    N = A d^2 - B n^2.

    By height h, C splits into a known part, the product of the sieve's
    irreducibles of degree <= min(h, deg C) that divide it (``known``:
    pi -> v_pi(C)), and a rest C'.  Every prime of n has degree <= h, so C'
    is prime to n.  At each pi of n or of the known part, with k = v_pi(n)
    and e = v_pi(d) read off the sieve, x = v_pi(A) + 2e and
    y = v_pi(B) + 2k are the valuations of the two terms of N, so
    v_pi(N) = min(x, y) when they differ; otherwise trial division finds
    it.  The denominator's valuation D = v_pi(C) + 2k drops by
    m = min(v_pi(N), D) and must stay even.  At the primes of C',
    C' / gcd(N, C') must be a square.  The parts are coprime, so the
    denominator is a square exactly when every prime passes (constants are
    squares in GF(2^d)), and the common factor is gcd(N, C') times the
    pi^m: ``fraction`` reduces with no gcd of its own.

    ``checks`` settles once per numerator what d cannot change: at n's own
    primes e = 0, and at a known pi prime to n with v_pi(B) < v_pi(A),
    x > y whatever e is.  Only the other known primes are read per pair,
    and N is formed only where the valuations leave the verdict open."""

    def __init__(self, tower: FieldTower, abc: tuple):
        self.tower, self.abc, self.height = tower, abc, -1
        self.known, self.rest = Counter(), abc[2]
        self.memo: dict = {}  # pi -> (v_pi(A), v_pi(B), v_pi(C))

    def checks(self, n: Poly, h: int) -> Optional[tuple]:
        """(n, fixed, open) for the pairs (n, d) of height <= h: (pi, x, y, D)
        with x at e = 0, in ``open`` where d can change the verdict.  None
        when a fixed verdict rejects every pair."""
        while self.height < h:
            self.height += 1
            self.factors = _factors_of_height(self.tower, self.height)
            for pi, fs in self.factors.items():  # only degree h is new
                if fs == {pi: 1} and pi.total_degree() == self.height <= self.rest.total_degree():
                    v, self.rest = poly_valuation(self.rest, pi)
                    if v:
                        self.known[pi] = v
        A, B, _ = self.abc
        n_fac = self.factors[_normalize_lead(n)]
        fixed, open_ = [], []
        for pi in n_fac.keys() | self.known.keys():
            if pi not in self.memo:
                self.memo[pi] = (poly_valuation(A, pi)[0], poly_valuation(B, pi)[0],
                                 self.known[pi])
            va, vb, vc = self.memo[pi]
            k = n_fac[pi]
            x, y, D = va, vb + 2 * k, vc + 2 * k
            if not k and y >= x:
                open_.append((pi, x, y, D))
            elif x != y and (D - min(x, y, D)) % 2:
                return None
            else:
                fixed.append((pi, x, y, D))
        return n, fixed, open_

    def _pair(self, checks: tuple, d: Poly) -> Optional[tuple]:
        """(N, [(pi, D, m)], gcd(N, C'), C' / gcd(N, C')) for a pair that
        passes, None otherwise.  A zero N passes: m = D at a tie."""
        n, vals, open_ = checks
        if open_:
            d_fac = self.factors[d]
            opened = [(pi, x + 2 * d_fac[pi], y, D) for pi, x, y, D in open_]
            if any(x != y and (D - min(x, y, D)) % 2 for _, x, y, D in opened):
                return None
            vals = vals + opened
        A, B, _ = self.abc
        N = A * d.pth_power() - B * n.pth_power()
        mins = []
        for pi, x, y, D in vals:
            m = min(x, y, D) if x != y else poly_valuation(N, pi, D)[0]
            if (D - m) % 2:
                return None
            mins.append((pi, D, m))
        rest, g = self.rest, N.ring.one()
        if rest.total_degree():
            g = poly_gcd(N, rest)
            rest = poly_exact_div(rest, g)
            if rest.pth_power_root() is None:
                return None
        return N, mins, g, rest

    def numerator(self, n: Poly, d: Poly, h: int) -> Optional[Poly]:
        """N for a candidate of height <= h that passes, None otherwise."""
        checks = self.checks(n, h)
        out = checks and self._pair(checks, d)
        return out and out[0]

    def fraction(self, checks: tuple, d: Poly) -> Optional[RatFunc]:
        """The reduced N / (C n^2) for a pair (n, d) that passes, None
        otherwise.  C n^2 is lc(n)^2 C' times pi^D over the primes of n and
        of the known part."""
        out = self._pair(checks, d)
        if out is None:
            return None
        N, mins, g, den = out
        for pi, D, m in mins:
            g, den = g * pi ** m, den * pi ** (D - m)
        lead = self.tower.ring.field.frob(checks[0].leading_coeff())
        return _coprime(poly_exact_div(N, g), den.scale(lead))


def _solve_norm_shadow(y: Elem, degree_bound: int) -> Optional[Elem]:
    """One Artin-Schreier step over a level above the base: solve the same
    norm equation one step over a depth-zero shadow base, then map the
    witness's coordinates back.

    With a rational presentation of y's level the shadow base is
    GF(Q)(w), reached by ``forward`` and left by ``backward``: an
    isomorphism, so the search is as complete as the one over GF(Q)(w).
    Otherwise the shadow is the base itself, when the step's defining
    element and y descend there: sound (witnesses lift), but only base
    coordinates are searched.  Other shapes return None, which callers
    treat as an exhausted search."""
    tower, level = y.tower, y.level
    from .rationalize import rationalize_level
    rz = rationalize_level(tower, level)
    if rz is not None:
        base, forward, backward = rz.tower, rz.forward, rz.backward
    else:
        base = truncate(tower, 0)

        def forward(x: Elem) -> RatFunc:
            return descend(x, 0).rep

        def backward(c: RatFunc) -> Elem:
            return lift(Elem(tower, 0, c), level)
    try:
        shadow = make_step(base, "artin_schreier", "@g",
                           Elem(base, 0, forward(step_defining_elem(tower, level + 1))))
        y_img = Elem(shadow, 0, forward(y))
    except ValueError:  # a StepError, or something above the base
        return None
    z_img = solve_norm(y_img, degree_bound)
    if z_img is None:
        return None
    out = Elem(tower, level + 1, tuple(backward(c).rep for c in z_img.rep))
    if norm(out, level) != y:
        raise AssertionError("norm witness did not survive the change of coordinates")
    return out


def _coordinate_tuples(tower: FieldTower, dim: int, height: int):
    """All dim-tuples of base fractions whose maximal height is exactly
    ``height``, in canonical order (so each tuple appears once overall)."""
    lower: list = []
    for h in range(height):
        lower.extend(_ratfuncs_of_height(tower, h))
    singles = _ratfuncs_of_height(tower, height)
    boundary = len(lower)
    pool = lower + singles
    for combo in _iproduct(range(len(pool)), repeat=dim):
        if max(combo) < boundary:
            continue
        yield tuple(pool[i] for i in combo)


def _ratfuncs_of_height(tower: FieldTower, h: int) -> list:
    """Reduced base fractions with max(deg num, deg den) == h (total degree
    on multivariate bases), denominator monic: num/den for the groups of
    ``_ratfunc_groups``, in that order.  Memoized on the base tower."""
    return _memo(truncate(tower, 0), ("pool", h), lambda: [
        RatFunc(num, den, reduce=False) for num, dens in _ratfunc_groups(tower, h)
        for den in dens])


def _factors_of_height(tower: FieldTower, h: int) -> dict:
    """The sieve ``_factor_sets`` of the monic polynomials of total degree
    <= h, memoized on the base tower: the height-h pool and the norm
    resolvent share it."""
    return _memo(truncate(tower, 0), ("factors", h),
                 lambda: _factor_sets(_polys_up_to(tower.ring, h, monic=True)))


def _ratfunc_groups(tower: FieldTower, h: int) -> list:
    """The height-h pool by numerator, the one canonical order: (num, dens)
    for every numerator of total degree <= h with dens, in order, the monic
    denominators of total degree <= h that make num/den of height h and
    already reduced.  Memoized on the base tower.

    A pair with a common factor reduces to a lower height, and distinct
    coprime pairs are distinct reduced fractions, so the pairs are kept
    unreduced.  Coprimality is read off factor sets instead of gcds: every
    irreducible factor of a member has total degree <= h, so its monic
    associate is a member too, and GF(q)[t1..tm] has unique factorization.
    Two members therefore have a nonconstant common factor exactly when
    their sets of monic irreducible factors meet.  Every irreducible
    divides zero, so the zero numerator pairs only with the constant
    denominator.
    """
    def build():
        factors = _factors_of_height(tower, h)
        dens = [(den, den.total_degree(), factors[den].keys())
                for den in _polys_up_to(tower.ring, h, monic=True)]
        everything = frozenset().union(*factors.values())
        out = []
        for num in _polys_up_to(tower.ring, h):
            top = num.total_degree() == h
            num_factors = (factors[_normalize_lead(num)].keys()
                           if not num.is_zero() else everything)
            group = [den for den, d, den_factors in dens
                     if (top or d == h) and num_factors.isdisjoint(den_factors)]
            if group:
                out.append((num, group))
        return out
    return _memo(truncate(tower, 0), ("groups", h), build)


def _factor_sets(monics: list) -> dict:
    """Map each of ``monics``, all monic polynomials of total degree <= h for
    some h, to its factorization, a ``Counter`` {pi: multiplicity} of monic
    irreducibles.

    A sieve, with no division: walked in ascending degree, a member that no
    product of two earlier members has reached is irreducible, and every
    product f*g of degree <= h gets the sum of the factorizations of f and
    g.  Leading coefficients multiply, so the product is a monic member."""
    h = max(f.total_degree() for f in monics)
    factors: dict = {}
    walked = []
    for f in sorted(monics, key=Poly.total_degree):
        d = f.total_degree()
        if d == 0:
            factors[f] = Counter()
            continue
        fs = factors.setdefault(f, Counter({f: 1}))
        walked.append((f, d, fs))
        for g, e, gs in walked:
            if d + e <= h:
                factors[f * g] = fs + gs
    return factors


def _polys_up_to(ring: PolyRing, h: int, monic: bool = False) -> list:
    field = ring.field
    mons = [m for m in _iproduct(range(h + 1), repeat=ring.nvars) if sum(m) <= h]
    mons.sort(key=lambda m: (sum(m), m))
    polys = [ring.zero()]
    for mon in mons:
        fresh = []
        for base in polys:
            for c in field.elements():
                if field.is_zero(c):
                    continue
                fresh.append(base + Poly(ring, {mon: c}))
        polys.extend(fresh)
    if monic:
        return [f for f in polys if not f.is_zero() and f.leading_coeff() == field.one]
    return polys
