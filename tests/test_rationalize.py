import random
from collections import Counter

import pytest

from conftest import rand_elem
from substitution import substitute
from charp import rationalize, towers as tw
from charp.experiment import ExperimentConfig, run_experiment
from charp.oracle import expr_invariants
from charp.poly import RatFunc
from charp.rationalize import rationalize_level
from charp.textform import format_invariant_vector, parse_element, parse_expr, parse_tower


CASES = [
    "GF(2)(t) ; ROOT s: s^2 = t",
    "GF(2)(t) ; ROOT s: s^2 = t^2+t",
    "GF(2)(t) ; AS i: i^2+i = 1",
    "GF(2)(t) ; AS i: i^2+i = 1 ; ROOT s: s^2 = t",
    "GF(3)(t) ; ROOT s: s^3 = t",
    "GF(4)(t) ; ROOT s: s^2 = t^3+g",
    "GF(2)(t) ; ROOT s: s^2 = t ; AS i: i^2+i = 1 ; ROOT r: r^2 = s",
    "GF(3)(t) ; AS i: i^3+2*i = 1 ; ROOT s: s^3 = t",
    "GF(3)(t) ; ROOT s: s^3 = t ; ROOT r: r^3 = s",
]


def _rand_at(rng, T, level):
    """A random element of level ``level``, with a term in every generator."""
    base = tw.truncate(T, 0)
    x = tw.lift(tw.rebind(rand_elem(rng, base, 2), T), level)
    for lvl in range(1, level + 1):
        x = tw.add(x, tw.mul(tw.lift(tw.gen_elem(T, lvl), level),
                             tw.lift(tw.rebind(rand_elem(rng, base, 1), T), level)))
    return x


@pytest.mark.parametrize("text", CASES)
def test_roundtrip_and_homomorphism(text):
    T = parse_tower(text)
    level = T.depth
    rz = rationalize_level(T, level)
    assert rz is not None
    rng = random.Random(hash(text) & 0xFFFF)
    elems = [_rand_at(rng, T, level) for _ in range(6)]
    for x in elems:
        image = rz.forward(x)
        assert rz.backward(image) == x
    for x, y in zip(elems, elems[1:]):
        assert rz.forward(tw.add(x, y)) == rz.forward(x) + rz.forward(y)
        assert rz.forward(tw.mul(x, y)) == rz.forward(x) * rz.forward(y)


def _substituted_forward(rz, x, n):
    """The base map written the long way: num and den substituted into
    RatFunc arithmetic at t -> w^n, constants through ``rz.embed_const``."""
    ring = rz.ring
    w_n = RatFunc.from_poly(ring.var(ring.variables[0])) ** n

    def image(f):
        return substitute(f, {f.ring.variables[0]: w_n},
                            RatFunc.zero(ring), RatFunc.one(ring),
                            lambda a, b: a + b, lambda a, b: a * b,
                            lambda c: RatFunc.from_poly(ring.constant(rz.embed_const(c))))
    return image(x.rep.num) / image(x.rep.den)


@pytest.mark.parametrize("text", CASES)
def test_forward_matches_substitution_and_stays_reduced(text):
    T = parse_tower(text)
    rng = random.Random(hash(text) & 0xFFFF)
    base = tw.truncate(T, 0)
    for level in range(T.depth + 1):
        rz = rationalize_level(T, level)
        # t -> w^N with N = p^(root steps up to the level), read off the tower
        n = T.p ** sum(T.step_at(lvl).kind == "insep_root" for lvl in range(1, level + 1))
        for _ in range(8):
            x = tw.rebind(rand_elem(rng, base, 3), T)
            assert rz.forward(x) == _substituted_forward(rz, x, n)
        for lvl in range(level + 1):
            img = rz.forward(_rand_at(rng, T, lvl))
            assert img == RatFunc(img.num, img.den)


def test_generators_satisfy_relations_in_the_image():
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1 ; ROOT s: s^2 = t")
    rz = rationalize_level(T, 2)
    i_img = rz.forward(tw.lift(tw.gen_elem(T, 1), 2))
    s_img = rz.forward(tw.lift(tw.gen_elem(T, 2), 2))
    t_img = rz.forward(parse_element("t", T, 2))
    one = rz.forward(parse_element("1", T, 2))
    assert i_img * i_img + i_img == one
    assert s_img * s_img == t_img


def test_unsupported_shapes_return_none():
    # a non-constant cyclic step has no rational presentation here
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    assert rationalize_level(T, 1) is None
    # multivariate bases are out of scope for the rational backend
    from charp.ffield import FiniteField
    T2 = tw.FieldTower(FiniteField(2), ["t1", "t2"])
    T2 = tw.make_step(T2, "insep_root", "r", tw.var_elem(T2, "t1"))
    assert rationalize_level(T2, 1) is None


def test_constant_extension_grows_the_field():
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1")
    rz = rationalize_level(T, 1)
    assert rz.tower.base_field.order == 4
    # and the adjoined constant really solves x^2 - x = 1 there
    F4 = rz.tower.base_field
    iota = rz.forward(tw.gen_elem(T, 1)).constant_value()
    assert F4.sub(F4.pow(iota, 2), iota) == F4.one


def test_rationalize_level_builds_once_per_tower_and_level(monkeypatch):
    # a fresh registry, so the trial's towers and their memos start empty
    monkeypatch.setattr(tw, "_TOWERS", {})
    built = Counter()
    real = rationalize._rationalized

    def counting(tower, level):
        built[tower, level] += 1
        return real(tower, level)

    monkeypatch.setattr(rationalize, "_rationalized", counting)
    report = run_experiment(ExperimentConfig(family="cyclic_step", trials=1, seed=606))
    assert report.rows and built
    assert max(built.values()) == 1


def test_base_variable_g_is_renamed_over_a_larger_constant_field():
    """GF(2)(g) is allowed, but once a constant step makes the rational
    field GF(4)(.), g names the constant generator there: the rational
    variable becomes g', and printed places stay unambiguous."""
    T = parse_tower("GF(2)(g) ; AS i: i^2+i = 1")
    rz = rationalize_level(T, 1)
    assert rz.ring.variables == ("g'",)
    x = parse_element("i*g+1/g", T, 1)
    assert rz.backward(rz.forward(x)) == x
    vector = expr_invariants(parse_expr("[i*g, g^2+g+1)_2", T, 1))
    assert format_invariant_vector(vector) == "{(g'+g): 1/2, inf: 1/2}"


def test_level_zero_forward_is_the_identity():
    """Over a univariate base the level-0 presentation maps each element
    to its own reduced fraction; an element of another tower is still
    refused by the rebind check."""
    T = parse_tower("GF(3)(t)")
    rz = rationalize_level(T, 0)
    x = parse_element("(t^2+2)/(t+1)^3", T, 0)
    assert rz.forward(x) == x.rep and rz.forward(x).ring is rz.ring
    assert rz.backward(rz.forward(x)) == x
    above = parse_tower("GF(3)(t) ; ROOT s: s^3 = t")
    assert rz.forward(parse_element("(t^2+2)/(t+1)^3", above, 0)) == x.rep
    with pytest.raises(ValueError, match="too shallow"):
        rz.forward(tw.gen_elem(above, 1))
    with pytest.raises(ValueError, match="differs"):
        rz.forward(parse_element("u+1", parse_tower("GF(3)(u)"), 0))
