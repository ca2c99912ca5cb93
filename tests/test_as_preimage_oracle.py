"""Artin-Schreier preimages above the base, solved one step at a time.

``artin_schreier_preimage`` solves c^p - c = a over a tower level one
coordinate of c at a time over the level below.  Where a level has a
rational presentation GF(Q)(w), the base solve on the image is an
independent oracle for whether a preimage exists.  Elsewhere (an
Artin-Schreier step with a nonconstant defining element, a multivariate
base, a root chain whose radicand lies above the base) the checks are round
trips: a preimage of c^p - c differs from c by a constant of GF(p).
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_at
from charp import towers as tw
from charp.cli import main
from charp.rationalize import rationalize_level
from charp.textform import format_elem, parse_element, parse_tower


def _differs_by_prime_constant(x, y):
    diff = tw.sub(x, y)
    return any(diff == tw.int_elem(x.tower, x.level, lam) for lam in range(x.tower.p))


# ---------------------------------------------------------------------------
# (a) against the rational presentation
# ---------------------------------------------------------------------------

RATIONAL = [
    "GF(2)(t) ; AS i: i^2+i = 1",
    "GF(3)(t) ; AS i: i^3+2*i = 1",
    "GF(2)(t) ; AS i: i^2+i = 1 ; ROOT s: s^2 = t",
    "GF(4)(t) ; ROOT s: s^2 = t",
]


@pytest.mark.parametrize("text", RATIONAL)
def test_preimage_exists_exactly_when_the_rational_image_has_one(text):
    T = parse_tower(text)
    rz = rationalize_level(T, T.depth)
    rng = random.Random(text)
    found = missed = 0
    for _ in range(12):
        for a in (rand_at(rng, T), tw.wp(rand_at(rng, T))):
            c = tw.artin_schreier_preimage(a)
            image = tw._as_preimage_base(tw.Elem(rz.tower, 0, rz.forward(a)))
            assert (c is None) == (image is None)
            if c is None:
                missed += 1
            else:
                found += 1
                assert tw.wp(c) == a
    assert found >= 12 and missed > 0


# ---------------------------------------------------------------------------
# (b) round trips on levels with no rational presentation
# ---------------------------------------------------------------------------

ROUND_TRIP = [
    "GF(2)(t) ; AS i: i^2+i = 1/t",
    "GF(3)(t) ; AS i: i^3+2*i = t",
    "GF(2)(t1,t2) ; AS i: i^2+i = 1/t1",
    "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = r",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_preimage_of_wp_round_trips(text):
    T = parse_tower(text)
    assert rationalize_level(T, T.depth) is None
    rng = random.Random(text)
    for _ in range(6):
        c = rand_at(rng, T, max_deg=1)
        back = tw.artin_schreier_preimage(tw.wp(c))
        assert back is not None and _differs_by_prime_constant(back, c)


@pytest.mark.parametrize("text", ROUND_TRIP[:3])
def test_step_data_has_a_preimage_above_the_step(text):
    # the defining element b equals g^p - g for the step's own generator g
    T = parse_tower(text)
    b = tw.lift(tw.step_defining_elem(T, 1), 1)
    c = tw.artin_schreier_preimage(b)
    assert c is not None and _differs_by_prime_constant(c, tw.gen_elem(T, 1))


def test_root_chain_above_the_base_separates_classes():
    # u^2 = r, r^2 = t1: u is no c^2 - c, while u^2 + u is
    T = parse_tower(ROUND_TRIP[3])
    u = tw.gen_elem(T, 2)
    assert tw.artin_schreier_preimage(u) is None
    assert tw.artin_schreier_preimage(tw.wp(u)) is not None


MIXED = [
    "GF(2)(t) ; AS j: j^2+j = 1/t ; ROOT s: s^2 = j",
    "GF(2)(t) ; ROOT s: s^2 = t ; AS j: j^2+j = 1/s",
]


@pytest.mark.parametrize("text", RATIONAL + ROUND_TRIP + MIXED)
def test_the_preimage_of_wp_is_found_at_every_level(text):
    # the test is exact on every level built from root and Artin-Schreier steps
    T = parse_tower(text)
    rng = random.Random(text)
    for level in range(T.depth + 1):
        for _ in range(3):
            c = rand_at(rng, T, level, max_deg=1)
            back = tw.artin_schreier_preimage(tw.wp(c))
            assert back is not None and _differs_by_prime_constant(back, c)


# ---------------------------------------------------------------------------
# (c) make_step rejects the degenerate Artin-Schreier steps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, w", [
    ("GF(2)(t) ; AS i: i^2+i = 1/t", "t*i"),
    ("GF(3)(t) ; AS i: i^3+2*i = 1/t", "t*i+i^2+1/t"),
])
def test_make_step_rejects_wp_over_an_artin_schreier_level(text, w):
    T = parse_tower(text)
    w = parse_element(w, T, 1)
    with pytest.raises(tw.StepError) as err:
        tw.make_step(T, "artin_schreier", "k", tw.wp(w))
    assert str(err.value).endswith("for w = %s" % format_elem(w))


def test_make_step_accepts_a_proper_artin_schreier_step():
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1/t")
    K = tw.make_step(T, "artin_schreier", "k", parse_element("t*i", T, 1))
    assert K.depth == 2


# ---------------------------------------------------------------------------
# (d) the command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, code, out, err", [
    (["splits", "--tower", "GF(2)(t) ; ROOT r: r^2 = t ; ROOT u: u^2 = r ; ROOT v: v^2 = t+1",
      "--level", "3", "[1, t)_2"],
     1, "", "error: degenerate step: radicand is the 2-th power of 1+r\n"),
    (["splits", "--tower", "GF(2)(t1,t2) ; AS i: i^2+i = 1/t1 ; ROOT s: s^2 = t1*i",
      "--level", "2", "[s, t1)_2"],
     0, "split: b-slot is a norm of one\n", ""),
    (["splits", "--tower", "GF(2)(t) ; EXT j: j^3+j+1 = 0", "--level", "1",
      "--strategy", "norm_search", "--bound", "2", "[1/t, t)_2"],
     1, "", "error: expected 'AS g: ...' or 'ROOT g: ...' (at position 11)\n"),
    (["splits", "--tower", "GF(2)(t) ; ROOT j: j^2 = t", "--level", "1", "[1/t, j)_2"],
     0, "split: norm witness; witness 1+j*w\n", ""),
], ids=["root-radicand-above-base", "root-undecided", "ext-step-is-a-parse-error",
        "root-step-norm-witness"])
def test_cli_outputs(argv, code, out, err, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
