"""Differential test of the element parser.

Hypothesis draws expression trees (integers, base variables, the constant
``g``, generators, binary ``+ - * /``, unary ``-``, ``^k`` with k <= 4 and
parentheses) and renders them as text with the fewest parentheses the
grammar needs, plus the drawn ones.  ``parse_element`` of that text must
equal the tree folded with the tower operations ``towers.add/sub/mul/div/
power/neg``, and a zero divisor must raise ``ParseError`` in both.

Divisors are nonzero by construction (products, quotients, powers and
negations of nonzero leaves), arbitrary subtrees, or ``x - x``, so no draw
is filtered out.
"""

import pytest
from hypothesis import given, settings, strategies as st

from charp import towers as tw
from charp.textform import ParseError, parse_element, parse_tower

CASES = (
    ("GF(2)(t)", 0),
    ("GF(3)(t)", 0),
    ("GF(5)(t)", 0),
    ("GF(4)(t)", 0),
    ("GF(2)(t1,t2)", 0),
    ("GF(4)(t) ; AS i: i^2+i = g ; ROOT s: s^2 = t", 0),
    ("GF(4)(t) ; AS i: i^2+i = g ; ROOT s: s^2 = t", 1),
    ("GF(4)(t) ; AS i: i^2+i = g ; ROOT s: s^2 = t", 2),
    ("GF(3)(t) ; AS i: i^3+2*i = 1/t", 1),
)

_OPS = {"+": tw.add, "-": tw.sub, "*": tw.mul, "/": tw.div}


def _names(tower, level):
    """Every name the parser knows at a level, with its value."""
    names = {v: tw.var_elem(tower, v, level) for v in tower.ring.variables}
    for lvl in range(1, level + 1):
        names[tower.step_at(lvl).gen] = tw.lift(tw.gen_elem(tower, lvl), level)
    if tower.base_field.d > 1:
        names["g"] = tw.const_elem(tower, tower.base_field.gen, level)
    return names


@st.composite
def _tree(draw, names, p, depth, nonzero=False):
    """A tree of depth at most ``depth``; with ``nonzero`` its value is
    nonzero: leaves are nonzero and only * / ^ - and parentheses join them."""
    ints = (st.builds(lambda r, k: r + p * k, st.integers(1, p - 1), st.integers(0, 3))
            if nonzero else st.integers(0, 12))
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return ("int", draw(ints))
        return ("name", draw(st.sampled_from(names)))
    kinds = ("neg", "pow", "paren", "*", "/") + (() if nonzero else ("+", "-"))
    kind = draw(st.sampled_from(kinds))
    if kind in ("neg", "paren"):
        return (kind, draw(_tree(names, p, depth - 1, nonzero)))
    if kind == "pow":
        # a shallow base keeps the degrees, and so the run time, small
        base = draw(_tree(names, p, min(depth - 1, 1), nonzero))
        return ("pow", base, draw(st.integers(0, 4)))
    left = draw(_tree(names, p, depth - 1, nonzero))
    if kind != "/":
        return (kind, left, draw(_tree(names, p, depth - 1, nonzero)))
    divisor = "nonzero" if nonzero else draw(st.sampled_from(
        ("nonzero", "nonzero", "any", "zero")))
    if divisor == "zero":
        x = draw(_tree(names, p, depth - 1))
        return ("/", left, ("-", x, x))
    return ("/", left, draw(_tree(names, p, depth - 1, divisor == "nonzero")))


def _render(tree, sep):
    """(text, precedence): 0 sum, 1 product, 2 power, 3 atom."""
    kind = tree[0]
    if kind in ("int", "name"):
        return str(tree[1]), 3
    if kind == "paren":
        return "(%s)" % _render(tree[1], sep)[0], 3
    if kind == "neg":
        return "-" + _wrap(tree[1], 1, sep), 0
    if kind == "pow":
        return "%s^%d" % (_wrap(tree[1], 3, sep), tree[2]), 2
    left_need, right_need, prec = (0, 1, 0) if kind in "+-" else (1, 2, 1)
    text = sep.join((_wrap(tree[1], left_need, sep), kind, _wrap(tree[2], right_need, sep)))
    return text, prec


def _wrap(tree, need, sep):
    text, prec = _render(tree, sep)
    return text if prec >= need else "(%s)" % text


def _evaluate(tree, tower, level, names):
    """The current semantics: the tree folded with tower operations."""
    kind = tree[0]
    if kind == "int":
        return tw.int_elem(tower, level, tree[1])
    if kind == "name":
        return names[tree[1]]
    if kind == "paren":
        return _evaluate(tree[1], tower, level, names)
    if kind == "neg":
        return tw.neg(_evaluate(tree[1], tower, level, names))
    if kind == "pow":
        return tw.power(_evaluate(tree[1], tower, level, names), tree[2])
    a = _evaluate(tree[1], tower, level, names)
    b = _evaluate(tree[2], tower, level, names)
    if kind == "/" and b.is_zero():
        raise ParseError("division by zero", 0)
    return _OPS[kind](a, b)


@st.composite
def _case(draw):
    text, level = draw(st.sampled_from(CASES))
    tower = parse_tower(text)
    names = _names(tower, level)
    tree = draw(_tree(sorted(names), tower.p, 4))
    return tower, level, names, tree, draw(st.sampled_from(("", " ")))


@settings(max_examples=300, deadline=None)
@given(_case())
def test_parser_matches_tower_arithmetic(case):
    tower, level, names, tree, sep = case
    text = _render(tree, sep)[0]
    try:
        expected = _evaluate(tree, tower, level, names)
    except ParseError:
        with pytest.raises(ParseError, match="division by zero"):
            parse_element(text, tower, level)
        return
    got = parse_element(text, tower, level)
    assert got == expected, text
    assert got.level == level and got.tower is tower
