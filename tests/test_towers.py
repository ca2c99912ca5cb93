import random

import pytest

from conftest import rand_elem, rand_ratfunc
from charp.ffield import FiniteField
from charp.poly import RatFunc
from charp import poly, towers as tw
from charp.textform import format_elem, parse_element, parse_tower


def test_artin_schreier_constant_extension(f2t):
    # adjoining a root of x^2 - x = 1 gives the degree-4 constant field
    T = tw.make_step(f2t, "artin_schreier", "i", tw.int_elem(f2t, 0, 1))
    i = tw.gen_elem(T, 1)
    mp = tw.min_poly(i, 0)
    one = tw.int_elem(T, 0, 1)
    assert mp == [one, one, one]  # X^2 + X + 1, irreducible over GF(2)


def test_insep_root_step(f2t):
    T = tw.make_step(f2t, "insep_root", "s", tw.var_elem(f2t, "t"))
    s = tw.gen_elem(T, 1)
    assert tw.power(s, 2) == tw.var_elem(T, "t", 1)
    mp = tw.min_poly(s, 0)
    assert format_elem(mp[0]) == "t" and mp[1].is_zero()


def test_insep_root_rejects_pth_power(f2t):
    t = f2t.ring.var("t")
    with pytest.raises(tw.StepError):
        tw.make_step(f2t, "insep_root", "s", tw.Elem(f2t, 0, RatFunc.from_poly(t * t)))


def test_artin_schreier_rejects_degenerate(f2t):
    t = f2t.ring.var("t")
    degenerate = tw.Elem(f2t, 0, RatFunc.from_poly(t * t + t))  # w(t)
    with pytest.raises(tw.StepError):
        tw.make_step(f2t, "artin_schreier", "i", degenerate)
    # over GF(4), the constant 1 has zero trace, so it degenerates there
    f4t = tw.FieldTower(FiniteField(2, 2), ["t"])
    with pytest.raises(tw.StepError):
        tw.make_step(f4t, "artin_schreier", "i", tw.int_elem(f4t, 0, 1))


def test_generator_g_is_reserved_over_extended_constants(f2t, f4t):
    """Over GF(p^d), d > 1, ``g`` is the constant field generator in text;
    a variable or generator named g would make printing ambiguous."""
    t = tw.var_elem(f4t, "t")
    inv_t = tw.div(tw.int_elem(f4t, 0, 1), t)
    reserved = "^generator name 'g' is reserved for the constant field generator$"
    with pytest.raises(tw.StepError, match=reserved):
        tw.make_step(f4t, "artin_schreier", "g", inv_t)
    with pytest.raises(tw.StepError, match=reserved):
        tw.make_step(f4t, "insep_root", "g", t)
    with pytest.raises(ValueError, match="'g'"):
        tw.FieldTower(FiniteField(2, 2), ["g"])
    with pytest.raises(ValueError, match="'g'"):
        tw.FieldTower(FiniteField(3, 2), ["t", "g"])
    # over a prime field the name is free
    assert tw.make_step(f2t, "insep_root", "g", tw.var_elem(f2t, "t")).depth == 1
    assert tw.FieldTower(FiniteField(2), ["g"]).ring.variables == ("g",)


def test_make_step_knows_artin_schreier_and_root_steps_only(f2t):
    one = tw.int_elem(f2t, 0, 1)
    with pytest.raises(tw.StepError, match="unknown step kind 'simple'"):
        tw.make_step(f2t, "simple", "j", [one, one, one])


def test_inverting_a_zero_divisor_of_a_reducible_step_is_an_arithmetic_error(f2t, monkeypatch):
    # X^2 - X - w(t) has the root t, so make_step refuses it; a step built
    # around make_step has zero divisors, and the inverse says so
    monkeypatch.setattr(tw, "_TOWERS", {})
    t = tw.var_elem(f2t, "t")
    with pytest.raises(tw.StepError, match="degenerate step"):
        tw.make_step(f2t, "artin_schreier", "j", tw.wp(t))
    step = tw.ExtStep("artin_schreier", "j", tw.wp(t).rep)
    T = tw._interned(f2t.ring, (step,), f2t)
    factor = tw.sub(tw.gen_elem(T, 1), tw.var_elem(T, "t", 1))  # j - t
    assert not factor.is_zero()
    with pytest.raises(ArithmeticError, match="step relation is reducible"):
        tw.div(tw.int_elem(T, 1, 1), factor)


def test_min_poly_examples(f2t):
    # s over GF(2)(t) with s^2 = t: X^2 + t
    T1 = parse_tower("GF(2)(t) ; ROOT s: s^2 = t")
    mp = tw.min_poly(tw.gen_elem(T1, 1), 0)
    assert [format_elem(c) for c in mp] == ["t", "0", "1"]
    # i with i^2 + i = 1/t: X^2 + X + 1/t
    T2 = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    mp2 = tw.min_poly(tw.gen_elem(T2, 1), 0)
    assert [format_elem(c) for c in mp2] == ["1/t", "1", "1"]
    # i*t with i^2 + i = 1: X^2 + tX + t^2
    T3 = parse_tower("GF(2)(t) ; AS i: i^2+i = 1")
    it = tw.mul(tw.gen_elem(T3, 1), tw.var_elem(T3, "t", 1))
    mp3 = tw.min_poly(it, 0)
    assert [format_elem(c) for c in mp3] == ["t^2", "t", "1"]


def test_min_poly_degree_divides_and_constant_term_is_norm(f2t):
    rng = random.Random(2)
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t")
    for _ in range(12):
        c0 = tw.lift(tw.rebind(rand_elem(rng, f2t, 2), T), 2)
        c1 = tw.lift(tw.rebind(rand_elem(rng, f2t, 1), T), 2)
        x = tw.add(c0, tw.mul(c1, tw.gen_elem(T, 2)))
        mp = tw.min_poly(x, 0)
        deg = len(mp) - 1
        assert 4 % deg == 0
        # the constant term is the norm from the subfield x generates, so its
        # [L:F(x)]-th power is the full norm (char 2: signs coincide)
        assert tw.power(mp[0], 4 // deg) == tw.norm(x, 0)


def test_min_poly_constant_term_sign_odd_char():
    rng = random.Random(6)
    T = parse_tower("GF(3)(t) ; AS i: i^3+2*i = 1/t")
    base = tw.truncate(T, 0)
    for _ in range(6):
        c0 = tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 1)
        c1 = tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 1)
        x = tw.add(c0, tw.mul(c1, tw.gen_elem(T, 1)))
        mp = tw.min_poly(x, 0)
        deg = len(mp) - 1
        n = tw.norm(x, 0)
        # (-1)^deg c_0 is the norm from F(x); its [L:F(x)]-th power is N(x)
        signed = mp[0] if deg % 2 == 0 else tw.neg(mp[0])
        assert tw.power(signed, 3 // deg) == n


def test_norm_examples():
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    i = tw.gen_elem(T, 1)
    inv_t = parse_element("1/t", T, 0)
    assert tw.norm(i, 0) == inv_t
    # constants: N(c) = c^[L:F]
    c = parse_element("t+1", T, 1)
    assert tw.norm(c, 0) == parse_element("(t+1)^2", T, 0)
    # multiplicativity gives N(1/i) = t
    one_over_i = tw.div(tw.int_elem(T, 1, 1), i)
    assert tw.norm(one_over_i, 0) == parse_element("t", T, 0)


@pytest.mark.parametrize("tower_text", [
    "GF(2)(t) ; AS i: i^2+i = 1/t",
    "GF(2)(t) ; ROOT s: s^2 = t",
    "GF(3)(t) ; AS i: i^3+2*i = 1/t",
])
def test_norm_multiplicative(tower_text):
    T = parse_tower(tower_text)
    rng = random.Random(hash(tower_text) & 0xFFFF)
    base = tw.truncate(T, 0)
    count = 0
    while count < 170:
        z = tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 1)
        w = tw.add(tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 1),
                   tw.mul(tw.gen_elem(T, 1),
                          tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 1)))
        if z.is_zero() or w.is_zero():
            continue
        assert tw.norm(tw.mul(z, w), 0) == tw.mul(tw.norm(z, 0), tw.norm(w, 0))
        count += 1


def test_insep_pth_power_descends(f2t):
    # every element of an exponent-one root tower has its p-th power below
    T = parse_tower("GF(2)(t) ; ROOT s: s^2 = t")
    rng = random.Random(4)
    for _ in range(40):
        x = tw.add(tw.lift(tw.rebind(rand_elem(rng, f2t, 2), T), 1),
                   tw.mul(tw.gen_elem(T, 1),
                          tw.lift(tw.rebind(rand_elem(rng, f2t, 2), T), 1)))
        sq = tw.power(x, 2)
        tw.descend(sq, 0)  # must not raise


def test_solve_norm_examples():
    # y = 1 has the witness 1
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    one = tw.int_elem(T, 0, 1)
    z = tw.solve_norm(one, 0)
    assert z is not None and tw.norm(z, 0) == one
    # y = t over i^2+i = 1/t is hit within degree bound 1
    y = parse_element("t", T, 0)
    z2 = tw.solve_norm(y, 1)
    assert z2 is not None and tw.norm(z2, 0) == y
    # y = t over the constant extension has no witness at all
    T2 = parse_tower("GF(2)(t) ; AS i: i^2+i = 1")
    y2 = parse_element("t", T2, 0)
    assert tw.solve_norm(y2, 2) is None


@pytest.mark.parametrize("y, witness", [("s", "s*i"), ("t", "s"), ("s+1", None)])
def test_solve_norm_through_the_rational_presentation(y, witness):
    # one step over a level with a rational presentation: the search runs
    # over GF(2)(w), w^2 = t, and the witness comes back through it
    T = parse_tower("GF(2)(t) ; ROOT s: s^2 = t ; AS i: i^2+i = 1/s")
    z = tw.solve_norm(parse_element(y, T, 1), 2)
    assert (None if z is None else format_elem(z)) == witness
    if z is not None:
        assert tw.norm(z, 1) == parse_element(y, T, 1)


def test_solve_norm_generic_enumeration():
    # odd characteristic has no resolvent: coordinate tuples are enumerated
    T = parse_tower("GF(3)(t) ; AS i: i^3+2*i = 1/t")
    y = parse_element("t", T, 0)
    z = tw.solve_norm(y, 1)
    assert format_elem(z) == "t*i^2"
    assert tw.norm(z, 0) == y


def test_solve_norm_sound_and_monotone():
    T = parse_tower("GF(2)(t) ; ROOT s: s^2 = t+1")
    rng = random.Random(9)
    base = tw.truncate(T, 0)
    for _ in range(10):
        y = rand_elem(rng, base, 2, nonzero=True)
        y = tw.rebind(y, T)
        z1 = tw.solve_norm(y, 1)
        z2 = tw.solve_norm(y, 2)
        if z1 is not None:
            assert tw.norm(z1, 0) == y
            assert z2 is not None  # monotone in the bound


@pytest.mark.parametrize("tower, y, bound, witness", [
    # (t^2+s)^3 = t^6+t: the root lies past the bound's coordinate heights
    ("GF(3)(t) ; ROOT s: s^3 = t", "t^6+t", 1, "t^2+s"),
    ("GF(2)(t1,t2) ; ROOT r: r^2 = t1", "t2^2+t1^3", 0, "t2+t1*r"),
    ("GF(2)(t1,t2) ; ROOT r: r^2 = t1", "t2", 2, None),
    ("GF(2)(t1,t2) ; ROOT r: r^2 = t1", "0", 2, None),
])
def test_solve_norm_over_a_root_step_is_the_pth_root(tower, y, bound, witness):
    # N(z) = z^p over a root step, so the answer is exact whatever the bound
    T = parse_tower(tower)
    y = parse_element(y, T, 0)
    z = tw.solve_norm(y, bound)
    assert (None if z is None else format_elem(z)) == witness
    if z is not None:
        assert tw.power(z, T.p) == tw.lift(y, 1) and tw.norm(z, 0) == y


def test_char2_resolvent_rejects_candidates_without_reducing(monkeypatch):
    """The cyclic search of the quadratic witness-only run, to bound 2, with
    its height pools built, counting ``poly_gcd`` calls with their recursion
    and ``Poly`` products.  Reducing (y - c1^2 w) / c1^2 for every candidate
    took 13,015 gcds; a per-candidate gcd with the part of C prime to n took
    824 gcds and 1,761 products.  C = t1 lies in the sieve from height 1 on,
    so valuations read off the sieve reject the 871 other candidates: 10
    gcds and 133 products."""
    T = parse_tower("GF(2)(t1,t2) ; AS w: w^2+w = 1/t1")
    y = parse_element("t1*t2^2", T, 0)
    for h in range(3):
        tw._ratfuncs_of_height(T, h)
    calls = {"gcd": 0, "mul": 0}
    gcd, mul = poly.poly_gcd, poly.Poly.__mul__

    def counted_gcd(a, b):
        calls["gcd"] += 1
        return gcd(a, b)

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(poly, "poly_gcd", counted_gcd)
    monkeypatch.setattr(tw, "poly_gcd", counted_gcd)
    monkeypatch.setattr(poly.Poly, "__mul__", counted_mul)
    # the search itself, past solve_norm's memo
    z = tw._solve_norm_char2_resolvent(y, 2)
    assert format_elem(z) == "(t1*t2)*w"
    assert calls["gcd"] <= 20
    assert calls["mul"] <= 200


def test_p_independence_guard(f2t):
    # over GF(2)(t) the inseparable rank is one: a second radicand always fails
    t = f2t.ring.var("t")
    T = tw.make_step(f2t, "insep_root", "s", tw.Elem(f2t, 0, RatFunc.from_poly(t)))
    with pytest.raises(tw.StepError):
        tw.make_step(T, "insep_root", "u",
                     tw.Elem(T, 0, RatFunc.from_poly(t + f2t.ring.one())))


def test_multivariate_p_independence():
    T = tw.FieldTower(FiniteField(2), ["t1", "t2"])
    T1 = tw.make_step(T, "insep_root", "r", tw.var_elem(T, "t1"))
    T2 = tw.make_step(T1, "insep_root", "u", tw.rebind(tw.var_elem(T, "t2"), T1))
    assert T2.depth == 2
    # but t1*t2^2 is already a square there
    x = parse_element("t1*t2^2", T2, 0)
    root = tw.pth_root_in_level(tw.lift(tw.rebind(x, T2), 2))
    assert root is not None
    assert tw.power(root, 2) == tw.lift(tw.rebind(x, T2), 2)


def test_tower_depth_limit():
    variables = ["t%d" % k for k in range(1, 10)]
    deep = tw.FieldTower(FiniteField(2), variables)
    with pytest.raises(tw.StepError, match=r"^tower nesting depth limit \(8\) reached$"):
        for name in variables:
            deep = tw.make_step(deep, "insep_root", "r_" + name,
                                tw.var_elem(deep, name, deep.depth))


def test_artin_schreier_preimage_tower_level():
    # over K = GF(2)(t)(s), s^2 = t: w(s) = s^2 + s = t + s is reducible
    T = parse_tower("GF(2)(t) ; ROOT s: s^2 = t")
    s = tw.gen_elem(T, 1)
    target = tw.wp(s)
    c = tw.artin_schreier_preimage(target)
    assert c is not None and tw.wp(c) == target
    # while s itself is not of that form
    assert tw.artin_schreier_preimage(s) is None


def test_artin_schreier_preimage_p3(f3t):
    # w(1/t) = 1/t^3 - 1/t has the obvious preimage; 1/t has none
    t = f3t.ring.var("t")
    one = f3t.ring.one()
    c = tw.Elem(f3t, 0, RatFunc(one, t))
    target = tw.wp(c)
    back = tw.artin_schreier_preimage(target)
    assert back is not None and tw.wp(back) == target
    assert tw.artin_schreier_preimage(c) is None


def test_multivariate_insep_span_p3():
    T = tw.FieldTower(FiniteField(3), ["t1", "t2"])
    T1 = tw.make_step(T, "insep_root", "r", tw.var_elem(T, "t1"))
    x = parse_element("t1*t2^3", T1, 0)
    root = tw.pth_root_in_level(tw.lift(x, 1))
    assert root is not None
    assert tw.power(root, 3) == tw.lift(x, 1)
    # t1 * t2 is not a cube there
    y = parse_element("t1*t2", T1, 0)
    assert tw.pth_root_in_level(tw.lift(y, 1)) is None


def test_towers_are_interned(f2t):
    text = "GF(2)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t"
    T = parse_tower(text)
    assert parse_tower(text) is T
    assert tw.FieldTower(FiniteField(2), ["t"]) is f2t
    assert tw.truncate(T, 0) is f2t
    U = tw.make_step(T, "artin_schreier", "j", tw.gen_elem(T, 2))   # j^2 + j = s
    assert tw.truncate(U, T.depth) is T
    assert tw.make_step(T, "artin_schreier", "j", tw.gen_elem(T, 2)) is U


def test_rebind_rejects_a_different_step_prefix():
    A = parse_tower("GF(2)(t) ; AS i: i^2+i = t")
    B = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    i = tw.gen_elem(A, 1)
    with pytest.raises(ValueError):
        tw.rebind(i, B)
    # the base is shared, so base elements still move between the two
    t = tw.var_elem(A, "t")
    assert tw.rebind(t, B).tower is B


def test_pth_root_memo_hit_lands_on_the_callers_tower(monkeypatch):
    T = parse_tower("GF(2)(t) ; ROOT s: s^2 = t")
    x = parse_element("t*s^2 + s^2", T, 1)          # (t + 1) * t = (s^2 + s)^2
    root = tw.pth_root_in_level(x)
    assert root.tower is T and tw.power(root, 2) == x
    deep = tw.make_step(T, "artin_schreier", "i", tw.int_elem(T, 1, 1))
    monkeypatch.setattr(tw, "_pth_root_uncached", lambda x: pytest.fail("memo missed"))
    hit = tw.pth_root_in_level(tw.rebind(x, deep))
    assert hit.tower is deep and hit.level == 1 and hit.rep == root.rep


def _pool_reference(ring, h):
    """The height-h candidate pool as first defined: reduce every pair and
    keep each new fraction whose reduced form still has height h."""
    seen, out = set(), []
    for num in tw._polys_up_to(ring, h):
        for den in tw._polys_up_to(ring, h, monic=True):
            if max(num.total_degree(), den.total_degree()) != h:
                continue
            f = RatFunc(num, den)
            if max(f.num.total_degree(), f.den.total_degree()) == h and f not in seen:
                seen.add(f)
                out.append(f)
    return out


# base -> the largest height checked
POOL_HEIGHTS = {"GF(2)(t1,t2)": 2, "GF(3)(t)": 3, "GF(2)(t)": 4, "GF(4)(t)": 2,
                "GF(3)(t1,t2)": 1, "GF(2)(t1,t2,t3)": 1}


@pytest.mark.parametrize("base", list(POOL_HEIGHTS))
def test_height_pools_keep_their_elements_and_order(base):
    # the norm search returns the first hit in pool order, so the order
    # fixes the witness and the certificate bytes
    tower = parse_tower(base)
    for h in range(POOL_HEIGHTS[base] + 1):
        pool = tw._ratfuncs_of_height(tower, h)
        assert [(f.num, f.den) for f in pool] == \
            [(f.num, f.den) for f in _pool_reference(tower.ring, h)]


def test_make_step_refusals_pin_their_messages(f2t):
    """Each refusal of ``make_step`` names its reason."""
    t = tw.var_elem(f2t, "t")
    T = tw.make_step(f2t, "insep_root", "s", t)
    with pytest.raises(tw.StepError, match="^generator name 's' already in use$"):
        tw.make_step(T, "artin_schreier", "s", tw.rebind(t, T))
    with pytest.raises(tw.StepError, match="^generator name 't' already in use$"):
        tw.make_step(f2t, "insep_root", "t", t)
    with pytest.raises(tw.StepError, match="^degenerate step: radicand is zero$"):
        tw.make_step(f2t, "insep_root", "r", tw.int_elem(f2t, 0, 0))
    # an element above the tower top is refused by rebind, for both kinds
    s = tw.gen_elem(T, 1)
    for kind in ("artin_schreier", "insep_root"):
        with pytest.raises(ValueError, match="^target tower is too shallow$"):
            tw.make_step(f2t, kind, "r", s)
    # GF(257)(t) admits no step at all: degree 257 > 256
    f257 = tw.FieldTower(FiniteField(257), ["t"])
    with pytest.raises(tw.StepError, match=r"^tower degree limit \(256\) exceeded$"):
        tw.make_step(f257, "insep_root", "r", tw.var_elem(f257, "t"))


def test_inverse_of_zero_names_its_level(f2t):
    T = tw.make_step(f2t, "insep_root", "s", tw.var_elem(f2t, "t"))
    one = tw.int_elem(T, 0, 1)
    with pytest.raises(ZeroDivisionError, match="^inverse of zero in the base field$"):
        tw.div(one, tw.int_elem(T, 0, 0))
    with pytest.raises(ZeroDivisionError, match="^inverse of zero at level 1$"):
        tw.div(tw.lift(one, 1), tw.int_elem(T, 1, 0))
