"""p-th roots over every tower shape, against the rational presentation.

``pth_root_in_level`` solves y^p = x as one linear system over the base
field, whatever the steps.  Each shape gets three checks: the p-th power
of a seeded y has the root y; y^p times a root step's radicand b has no
root below that step and the root y*s above it (s^p = b); and on every
level with a rational presentation GF(Q)(w), the answer is the p-th root
read off the image and mapped back, an independent route.
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_at
from charp import towers as tw
from charp.rationalize import rationalize_level
from charp.textform import parse_element, parse_tower

SHAPES = [
    # univariate root chains
    "GF(2)(t) ; ROOT r: r^2 = t ; ROOT u: u^2 = r",
    "GF(3)(t) ; ROOT r: r^3 = t+1",
    "GF(4)(t) ; ROOT s: s^2 = t",
    # constant Artin-Schreier step + root
    "GF(2)(t) ; AS i: i^2+i = 1 ; ROOT s: s^2 = t",
    "GF(4)(t) ; AS i: i^2+i = g ; ROOT s: s^2 = t",
    # nonconstant Artin-Schreier step + root
    "GF(2)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t*i",
    "GF(3)(t) ; AS i: i^3+2*i = t ; ROOT s: s^3 = i",
    "GF(2)(t1,t2) ; AS i: i^2+i = 1/t1 ; ROOT s: s^2 = t1*i",
    # an Artin-Schreier step under the root's radicand, and one above a root
    "GF(2)(t) ; AS j: j^2+j = t ; ROOT s: s^2 = j",
    "GF(2)(t) ; ROOT s: s^2 = t ; AS j: j^2+j = s",
    # multivariate chains
    "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2",
    "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = r",
    "GF(3)(t1,t2) ; ROOT r: r^3 = t1",
]


def _nonzero_at(rng, T, level):
    while True:
        y = rand_at(rng, T, level, max_deg=1)
        if not y.is_zero():
            return y


def _root_steps(T):
    return [k for k in range(1, T.depth + 1) if T.step_at(k).kind == "insep_root"]


@pytest.mark.parametrize("text", SHAPES)
def test_the_p_th_power_of_y_has_the_root_y(text):
    T = parse_tower(text)
    rng = random.Random(text)
    for level in range(T.depth + 1):
        for _ in range(3):
            y = rand_at(rng, T, level, max_deg=1)
            assert tw.pth_root_in_level(tw.power(y, T.p)) == y


@pytest.mark.parametrize("text", SHAPES)
def test_a_radicand_times_a_p_th_power_has_a_root_only_above_its_step(text):
    T = parse_tower(text)
    rng = random.Random(text)
    for k in _root_steps(T):
        b = tw.step_defining_elem(T, k)
        s = tw.gen_elem(T, k)
        for _ in range(3):
            y = _nonzero_at(rng, T, k - 1)
            x = tw.mul(tw.power(y, T.p), b)
            assert tw.pth_root_in_level(x) is None
            for level in range(k, T.depth + 1):
                root = tw.pth_root_in_level(tw.lift(x, level))
                assert root == tw.lift(tw.mul(y, s), level)


@pytest.mark.parametrize("text", SHAPES)
def test_the_root_is_the_root_of_the_rational_image(text):
    T = parse_tower(text)
    rng = random.Random(text)
    presented = [level for level in range(T.depth + 1) if rationalize_level(T, level)]
    assert presented or T.ring.nvars > 1
    for level in presented:
        rz = rationalize_level(T, level)
        radicands = [tw.lift(tw.step_defining_elem(T, k), level)
                     for k in _root_steps(T) if k <= level]
        for _ in range(4):
            y = rand_at(rng, T, level, max_deg=1)
            for x in [y, tw.power(y, T.p)] + [tw.mul(tw.power(y, T.p), b) for b in radicands]:
                image = rz.forward(x).pth_root()
                expected = None if image is None else rz.backward(image)
                assert tw.pth_root_in_level(x) == expected


# ---------------------------------------------------------------------------
# a root step over an Artin-Schreier step with a nonconstant defining element
# ---------------------------------------------------------------------------

def test_make_step_accepts_a_root_of_t1_i_over_a_nonconstant_artin_schreier_step():
    A = parse_tower("GF(2)(t1,t2) ; AS i: i^2+i = 1/t1")
    K = tw.make_step(A, "insep_root", "s", parse_element("t1*i", A, 1))
    assert K.depth == 2


def test_t1_is_a_square_above_that_root_step():
    # s^2 = t1*i and i^2 + i = 1/t1 give ((s+1)/i)^2 = (t1*i + 1)/i^2 = t1
    T = parse_tower("GF(2)(t1,t2) ; AS i: i^2+i = 1/t1 ; ROOT s: s^2 = t1*i")
    t1 = parse_element("t1", T, 2)
    root = tw.pth_root_in_level(t1)
    assert root == parse_element("(s+1)/i", T, 2)
    assert tw.power(root, 2) == t1


def test_a_root_step_over_six_artin_schreier_steps_is_checked_at_its_radicands_level():
    steps = " ; ".join("AS a%d: a%d^2+a%d = t^%d" % (k, k, k, 2 * k - 1) for k in range(1, 7))
    T = parse_tower("GF(2)(t) ; %s ; ROOT s: s^2 = t*a1" % steps)
    # the radicand lives at level 1 and the steps above it are separable
    assert "frobenius_columns" in tw.truncate(T, 1).memo
    assert "frobenius_columns" not in tw.truncate(T, 6).memo


@pytest.mark.parametrize("text, root", [
    ("GF(2)(t) ; ROOT j: j^2 = t", "j"),
    ("GF(3)(t) ; ROOT j: j^3 = 2*t", "2*j"),
])
def test_a_root_step_makes_the_base_p_th_powers(text, root):
    # t, a non-p-th power below the step, is the p-th power of a multiple of j
    T = parse_tower(text)
    t = tw.var_elem(T, "t")
    assert tw.pth_root_in_level(t) is None
    assert tw.pth_root_in_level(tw.lift(t, 1)) == parse_element(root, T, 1)
