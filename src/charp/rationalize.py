"""Rational presentations of tower levels.

The invariant oracle lives on fields of the shape GF(Q)(w).  Two kinds of
steps keep a univariate rational base rational:

* an inseparable root step: GF(Q)(u)(b^(1/p)) equals GF(Q)(u^(1/p)), so a
  fresh variable w with u = w^p presents the new level;
* an Artin-Schreier step whose defining element is a constant c: the level
  is GF(Q')(u) for the degree-p constant field extension Q' = Q(x)/(x^p-x-c).

``rationalize_level`` composes these into a pair of exact maps between a
tower level and a depth-zero tower, or returns None for other shapes.  On
the base GF(q)(t) the composite sends t to w^N, N = p^(number of root
steps), and each constant through a field embedding GF(q) -> GF(Q).  That
map is an injective ring map GF(q)[t] -> GF(Q)[w] which multiplies degrees
by N, so it carries a Bezout identity a*f + b*g = 1 to one for the images:
coprime stays coprime, and a monic denominator stays monic.  A reduced
fraction thus maps to a reduced fraction term by term (``_relabel``), with
no gcd.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Optional

from .ffield import FFElem, FiniteField, _PrimeField
from .poly import Poly, PolyRing, RatFunc, _solve_linear, _upoly, _upoly_eval
from . import towers as tw


class Rationalization:
    """An isomorphism between a tower level and GF(Q)(w), both directions.

    Forward, the base variable goes to w^var_exp and a base constant c to
    embed_const(c).  That injective ring map carries Bezout identities
    over, so a reduced fraction maps to a reduced one term by term.  The
    level-i generator goes to gen_images[i - 1].  Backward, w goes to
    w_source and the generator of GF(Q) to genq_source.
    """

    def __init__(self, source: tw.FieldTower, source_level: int,
                 rat_tower: tw.FieldTower,
                 embed_const: Callable[[FFElem], FFElem],
                 var_exp: int,
                 gen_images: List[RatFunc],
                 w_source: tw.Elem,
                 genq_source: tw.Elem):
        self.source = source
        self.source_level = source_level
        self.tower = rat_tower
        self.embed_const = embed_const
        self.var_exp = var_exp
        self.gen_images = gen_images
        self.w_source = w_source
        self.genq_source = genq_source

    @property
    def ring(self) -> PolyRing:
        return self.tower.ring

    # -- source -> rational --

    def forward(self, x: tw.Elem) -> RatFunc:
        x = tw.rebind(x, self.source)
        if x.level > self.source_level:
            raise ValueError("element lives above the rationalized level")
        if not self.source_level:
            return x.rep  # the level-0 presentation is the identity
        return self._fwd_rep(x.rep, x.level)

    def _fwd_rep(self, rep, level: int) -> RatFunc:
        if level == 0:
            return _relabel(rep, self.ring, self.var_exp, self.embed_const)
        return _upoly_eval(tw._ops(self.tower, 0),
                           [self._fwd_rep(c, level - 1) for c in rep],
                           self.gen_images[level - 1])

    # -- rational -> source --

    def backward(self, r: RatFunc) -> tw.Elem:
        return _evaluate(r, self.w_source, self._bwd_const)

    def _bwd_const(self, c: FFElem):
        """The representation of a constant of GF(Q): its digits, as a
        polynomial, at genq_source."""
        ops = tw._ops(self.source, self.source_level)
        return _upoly_eval(ops, [ops.from_int(digit) for digit in c], self.genq_source.rep)


def _relabel(rf: RatFunc, ring: PolyRing, n: int,
             embed: Callable[[FFElem], FFElem]) -> RatFunc:
    """A reduced univariate fraction under t -> w^n, constants through the
    field embedding ``embed``, in ``ring``: reduced already, so no gcd."""
    encode = ring.field.ints.encode

    def image(f: Poly) -> Poly:
        decode = f.ring.field.ints.decode
        out = [0] * (n * len(f.coeffs) - n + 1) if f.coeffs else []
        for e, c in enumerate(f.coeffs):
            if c:
                out[e * n] = encode(embed(decode(c)))
        return _upoly(ring, out)
    return RatFunc(image(rf.num), image(rf.den), reduce=False)


def _evaluate(rf: RatFunc, point: tw.Elem, embed: Callable[[FFElem], object]) -> tw.Elem:
    """A univariate fraction at a tower element, constants through ``embed``
    to representations at the point's level."""
    ops = tw._ops(point.tower, point.level)

    def value(f: Poly):
        decode = f.ring.field.ints.decode
        return _upoly_eval(ops, [embed(decode(c)) if c else ops.zero for c in f.coeffs],
                           point.rep)

    return tw.Elem(point.tower, point.level, ops.div(value(rf.num), value(rf.den)))


def rationalize_level(tower: tw.FieldTower, level: int) -> Optional[Rationalization]:
    """The rational presentation of a tower level, or None when some step
    below the level is not of a supported kind.  Memoized on ``tower``,
    whose elements ``backward`` returns."""
    return tw._memo(tower, ("rationalize", level), lambda: _rationalized(tower, level))


def _rationalized(tower: tw.FieldTower, level: int) -> Optional[Rationalization]:
    if tower.ring.nvars != 1:
        return None
    varname = tower.ring.variables[0]
    rat = tw.FieldTower(tower.base_field, [varname])
    rz = Rationalization(
        source=tower, source_level=0, rat_tower=rat,
        embed_const=lambda c: c,
        var_exp=1,
        gen_images=[],
        w_source=tw.var_elem(tower, varname, 0),
        genq_source=tw.const_elem(tower, tower.base_field.gen, 0),
    )
    for lvl in range(1, level + 1):
        step = tower.step_at(lvl)
        if step.kind == "insep_root":
            rz = _extend_insep(rz, tower, lvl)
        else:
            rz = _extend_const_as(rz, tower, lvl)
            if rz is None:
                return None
    return rz


def _extend_insep(rz: Rationalization, tower: tw.FieldTower, lvl: int) -> Rationalization:
    """Refine the rational variable: the new level is GF(Q)(w), u = w^p."""
    p = tower.p
    q_field = rz.tower.base_field
    old_var = rz.ring.variables[0]
    new_var = old_var + "'"
    rat = tw.FieldTower(q_field, [new_var])

    def refine(rf: RatFunc) -> RatFunc:
        return _relabel(rf, rat.ring, p, lambda c: c)

    root = refine(rz.forward(tw.step_defining_elem(tower, lvl))).pth_root()
    if root is None:
        raise AssertionError("radicand image must become a p-th power after refining")
    gen_images = [refine(g) for g in rz.gen_images] + [root]
    return Rationalization(
        source=tower, source_level=lvl, rat_tower=rat,
        embed_const=rz.embed_const,
        var_exp=rz.var_exp * p,
        gen_images=gen_images,
        # w^p = u, and p-th roots are unique
        w_source=tw.pth_root_in_level(tw.lift(rz.w_source, lvl)),
        genq_source=tw.lift(rz.genq_source, lvl),
    )


def _extend_const_as(rz: Rationalization, tower: tw.FieldTower,
                     lvl: int) -> Optional[Rationalization]:
    """Absorb a constant-defined Artin-Schreier step into the constant field."""
    p = tower.p
    a_img = rz.forward(tw.step_defining_elem(tower, lvl))
    if not a_img.is_constant():
        return None
    c = a_img.constant_value()
    q_field = rz.tower.base_field
    big = FiniteField(p, q_field.d * p)
    embed_gen = _embedding_image(q_field, big)

    def embed_small(x: FFElem) -> FFElem:
        return _upoly_eval(big, [big.from_int(digit) for digit in x], embed_gen)

    iota = big.solve_artin_schreier(embed_small(c))
    if iota is None:
        raise AssertionError("constant extension must contain the new generator")
    var = rz.ring.variables[0]
    # over GF(Q), Q > p, the name g is the constant field generator
    rat = tw.FieldTower(big, [var + "'" if var == "g" else var])
    gen_images = [_relabel(g, rat.ring, 1, embed_small) for g in rz.gen_images]
    gen_images.append(RatFunc.from_poly(rat.ring.constant(iota)))

    # the big constant field's generator, written over {iota^j * genQ^k}
    basis_tags = list(product(range(p), range(q_field.d)))
    basis_elems = [big.mul(big.pow(iota, j), big.pow(embed_gen, k)) for j, k in basis_tags]
    # over GF(p), row i is the coefficient of the i-th power of big.gen
    matrix = [[val[i] for val in basis_elems] for i in range(big.d)]
    digits = _solve_linear(_PrimeField(p), matrix, big.gen)
    if digits is None:
        raise AssertionError("constant field basis decomposition failed")
    # its coordinate at i^j is the constant of GF(Q) whose digits are the
    # solution entries tagged (j, 0), ..., (j, d - 1)
    d = q_field.d
    genq_new = tw.Elem(tower, lvl, tuple(rz._bwd_const(digits[j * d:(j + 1) * d])
                                         for j in range(p)))
    return Rationalization(
        source=tower, source_level=lvl, rat_tower=rat,
        embed_const=lambda x: embed_small(rz.embed_const(x)),
        var_exp=rz.var_exp,
        gen_images=gen_images,
        w_source=tw.lift(rz.w_source, lvl),
        genq_source=genq_new,
    )


def _embedding_image(small: FiniteField, big: FiniteField) -> FFElem:
    """A root of the small field's modulus inside the big field (brute force;
    the constant fields in play stay tiny)."""
    mod = [big.from_int(coeff) for coeff in small.modulus]
    for cand in big.elements():
        if big.is_zero(_upoly_eval(big, mod, cand)):
            return cand
    raise AssertionError("no root of the subfield modulus; degrees are incompatible")

