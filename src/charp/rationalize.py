"""Rational presentations of tower levels.

The invariant oracle lives on fields of the shape GF(Q)(w).  Two kinds of
steps keep a univariate rational base rational:

* an inseparable root step: GF(Q)(u)(b^(1/p)) equals GF(Q)(u^(1/p)), so a
  fresh variable w with u = w^p presents the new level;
* an Artin-Schreier step whose defining element is a constant c: the level
  is GF(Q')(u) for the degree-p constant field extension Q' = Q(x)/(x^p-x-c).

``rationalize_level`` composes these into a pair of exact maps between a
tower level and a depth-zero tower, or returns None for other shapes.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Optional

from .ffield import FFElem, FiniteField
from .poly import Poly, PolyRing, RatFunc, _solve_linear
from . import towers as tw


class Rationalization:
    """An isomorphism between a tower level and GF(Q)(w), both directions."""

    def __init__(self, source: tw.FieldTower, source_level: int,
                 rat_tower: tw.FieldTower,
                 embed_const: Callable[[FFElem], FFElem],
                 var_image: RatFunc,
                 gen_images: List[Optional[RatFunc]],
                 w_source: tw.Elem,
                 genq_source: tw.Elem):
        self.source = source
        self.source_level = source_level
        self.tower = rat_tower
        self.embed_const = embed_const
        self.var_image = var_image
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
        return self._fwd_rep(x.rep, x.level)

    def _fwd_rep(self, rep, level: int) -> RatFunc:
        if level == 0:
            return self._fwd_base(rep)
        img = self.gen_images[level - 1]
        acc = RatFunc.zero(self.ring)
        for c in reversed(rep):
            acc = acc * img + self._fwd_rep(c, level - 1)
        return acc

    def _fwd_base(self, rf: RatFunc) -> RatFunc:
        num = self._fwd_poly(rf.num)
        den = self._fwd_poly(rf.den)
        return num / den

    def _fwd_poly(self, f: Poly) -> RatFunc:
        ring = self.ring
        values = {f.ring.variables[0]: self.var_image}
        return f.substitute(
            values,
            RatFunc.zero(ring), RatFunc.one(ring),
            lambda a, b: a + b, lambda a, b: a * b,
            lambda c: RatFunc.from_poly(ring.constant(self.embed_const(c))))

    # -- rational -> source --

    def backward(self, r: RatFunc) -> tw.Elem:
        num = self._bwd_poly(r.num)
        den = self._bwd_poly(r.den)
        return tw.div(num, den)

    def _bwd_poly(self, f: Poly) -> tw.Elem:
        level = self.source_level
        zero = tw.int_elem(self.source, level, 0)
        one = tw.int_elem(self.source, level, 1)
        return f.substitute(
            {self.ring.variables[0]: self.w_source},
            zero, one, tw.add, tw.mul,
            lambda c: self._bwd_const(c))

    def _bwd_const(self, c: FFElem) -> tw.Elem:
        out = tw.int_elem(self.source, self.source_level, 0)
        power = tw.int_elem(self.source, self.source_level, 1)
        for digit in c:
            if digit:
                out = tw.add(out, tw.mul(tw.int_elem(self.source, self.source_level, digit), power))
            power = tw.mul(power, self.genq_source)
        return out


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
        var_image=RatFunc.from_poly(rat.ring.var(varname)),
        gen_images=[],
        w_source=tw.var_elem(tower, varname, 0),
        genq_source=tw.const_elem(tower, tower.base_field.gen, 0),
    )
    for lvl in range(1, level + 1):
        step = tower.step_at(lvl)
        if step.kind == "insep_root":
            rz = _extend_insep(rz, tower, lvl)
        elif step.kind == "artin_schreier":
            rz = _extend_const_as(rz, tower, lvl)
            if rz is None:
                return None
        else:
            return None
    return rz


def _extend_insep(rz: Rationalization, tower: tw.FieldTower, lvl: int) -> Rationalization:
    """Refine the rational variable: the new level is GF(Q)(w), u = w^p."""
    p = tower.p
    q_field = rz.tower.base_field
    old_var = rz.ring.variables[0]
    new_var = old_var + "'"
    rat = tw.FieldTower(q_field, [new_var])
    ring = rat.ring
    w = RatFunc.from_poly(ring.var(new_var))

    def subst_refine(rf: RatFunc) -> RatFunc:
        values = {old_var: w ** p}
        num = rf.num.substitute(values, RatFunc.zero(ring), RatFunc.one(ring),
                                lambda a, b: a + b, lambda a, b: a * b,
                                lambda c: RatFunc.from_poly(ring.constant(c)))
        den = rf.den.substitute(values, RatFunc.zero(ring), RatFunc.one(ring),
                                lambda a, b: a + b, lambda a, b: a * b,
                                lambda c: RatFunc.from_poly(ring.constant(c)))
        return num / den

    b_img = rz.forward(tw.step_defining_elem(tower, lvl))
    b_in_w = subst_refine(b_img)
    root = b_in_w.pth_root()
    if root is None:
        raise AssertionError("radicand image must become a p-th power after refining")

    new_var_image = subst_refine(rz.var_image)
    new_gen_images = [None if g is None else subst_refine(g) for g in rz.gen_images]
    new_gen_images.append(root)

    # express the refined variable inside the source tower: w satisfies
    # s = root(w) with w^p = u, so solve sum_j gamma_j s^j = w over GF(Q)(u)
    helper = tw.FieldTower(q_field, [old_var])
    u_var = tw.var_elem(helper, old_var)
    helper = tw.make_step(helper, "insep_root", "@w", u_var)
    w_gen = tw.gen_elem(helper, 1)
    s_helper = _eval_ratfunc_at(root, w_gen, helper)
    cols = []
    cur = tw.int_elem(helper, 1, 1)
    for _ in range(p):
        cols.append(tw._coordinates(cur, 0))
        cur = tw.mul(cur, s_helper)
    sol = tw._solve_columns(tw._ops(helper, 0), cols, tw._coordinates(w_gen, 0))
    if sol is None:
        raise AssertionError("the root generator must generate the refined field")
    s_src = tw.gen_elem(tower, lvl)
    w_source = tw.int_elem(tower, lvl, 0)
    s_pow = tw.int_elem(tower, lvl, 1)
    for gamma in sol:
        # gamma lives in GF(Q)(u); pull it back through the previous stage
        gamma_src = tw.lift(rz.backward(gamma), lvl)
        w_source = tw.add(w_source, tw.mul(gamma_src, s_pow))
        s_pow = tw.mul(s_pow, s_src)
    return Rationalization(
        source=tower, source_level=lvl, rat_tower=rat,
        embed_const=rz.embed_const,
        var_image=new_var_image,
        gen_images=new_gen_images,
        w_source=w_source,
        genq_source=tw.lift(rz.genq_source, lvl),
    )


def _eval_ratfunc_at(rf: RatFunc, point: tw.Elem, helper: tw.FieldTower) -> tw.Elem:
    zero = tw.int_elem(helper, point.level, 0)
    one = tw.int_elem(helper, point.level, 1)

    def embed(c):
        return tw.const_elem(helper, c, point.level)

    num = rf.num.substitute({rf.ring.variables[0]: point}, zero, one, tw.add, tw.mul, embed)
    den = rf.den.substitute({rf.ring.variables[0]: point}, zero, one, tw.add, tw.mul, embed)
    return tw.div(num, den)


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
        out = big.zero
        power = big.one
        for digit in x:
            if digit:
                out = big.add(out, big.smul(digit, power))
            power = big.mul(power, embed_gen)
        return out

    iota = big.solve_artin_schreier(embed_small(c))
    if iota is None:
        raise AssertionError("constant extension must contain the new generator")
    varname = rz.ring.variables[0]
    rat = tw.FieldTower(big, [varname])
    ring = rat.ring

    def promote(rf: RatFunc) -> RatFunc:
        num = Poly(ring, {m: embed_small(cf) for m, cf in rf.num.terms.items()})
        den = Poly(ring, {m: embed_small(cf) for m, cf in rf.den.terms.items()})
        return RatFunc(num, den)

    new_var_image = promote(rz.var_image)
    new_gen_images = [None if g is None else promote(g) for g in rz.gen_images]
    new_gen_images.append(RatFunc.from_poly(ring.constant(iota)))

    # the big constant field's generator, written over {iota^j * genQ^k}
    basis_tags = list(product(range(p), range(q_field.d)))
    basis_elems = [big.mul(big.pow(iota, j), big.pow(embed_gen, k)) for j, k in basis_tags]
    # over GF(p), row i is the coefficient of the i-th power of big.gen
    matrix = [[(val[i],) for val in basis_elems] for i in range(big.d)]
    sol = _solve_linear(FiniteField(p), matrix, [(digit,) for digit in big.gen])
    if sol is None:
        raise AssertionError("constant field basis decomposition failed")
    i_src = tw.gen_elem(tower, lvl)
    genq_prev = tw.lift(rz.genq_source, lvl)
    genq_new = tw.int_elem(tower, lvl, 0)
    for (coeff,), (j, k) in zip(sol, basis_tags):
        if coeff == 0:
            continue
        term = tw.int_elem(tower, lvl, coeff)
        term = tw.mul(term, tw.power(i_src, j))
        term = tw.mul(term, tw.power(genq_prev, k))
        genq_new = tw.add(genq_new, term)
    return Rationalization(
        source=tower, source_level=lvl, rat_tower=rat,
        embed_const=lambda x: embed_small(rz.embed_const(x)),
        var_image=new_var_image,
        gen_images=new_gen_images,
        w_source=tw.lift(rz.w_source, lvl),
        genq_source=genq_new,
    )


def _embedding_image(small: FiniteField, big: FiniteField) -> FFElem:
    """A root of the small field's modulus inside the big field (brute force;
    the constant fields in play stay tiny)."""
    mod = small.modulus
    for cand in big.elements():
        acc = big.zero
        for coeff in reversed(mod):
            acc = big.mul(acc, cand)
            acc = big.add(acc, big.from_int(coeff))
        if big.is_zero(acc):
            return cand
    raise AssertionError("no root of the subfield modulus; degrees are incompatible")

