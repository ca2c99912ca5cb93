"""Differential test of the one-scan parser against the frozen cursor parser.

Hypothesis draws element texts as ``test_parse_oracle.py`` does, builds
symbol and expression texts from them (a radical slot is sometimes zero),
and applies one one-character edit: a delete, an insert or a replace, with
characters drawn from ``$``, ``_``, space, digits and operators.  A small
corpus of texts, each next to an error of its own (a zero divisor, a zero
radical slot, a power above the budget), gets every such edit.
``parse_element``, ``parse_symbol`` and ``parse_expr`` must give what
``reference_parser`` gives: the same value, or the same ``ParseError``
message and position (or the same other exception).
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser as ref
from test_parse_oracle import CASES, _names, _render, _tree
from charp.textform import ParseError, parse_element, parse_expr, parse_symbol, parse_tower

EDIT_CHARS = "$_ 0123456789+-*/^()[],"

PARSERS = ((parse_element, ref.parse_element), (parse_symbol, ref.parse_symbol),
           (parse_expr, ref.parse_expr))


def _outcome(parse, text, tower, level):
    try:
        out = parse(text, tower, level)
    except ParseError as err:
        return ("ParseError", err.message, err.pos)
    except Exception as err:  # noqa: BLE001 - any other failure must match too
        return (type(err).__name__, str(err))
    if hasattr(out, "entries"):  # an expression
        return ("value", out.tower is tower, out.level, out.entries)
    return ("value", out)


@st.composite
def _text(draw):
    """(tower, level, text): an element, a symbol or an expression."""
    tower_text, level = draw(st.sampled_from(CASES))
    tower = parse_tower(tower_text)
    names = sorted(_names(tower, level))
    sep = draw(st.sampled_from(("", " ")))

    def elem():
        return _render(draw(_tree(names, tower.p, 3)), sep)[0]

    def symbol():
        b = elem() if draw(st.integers(0, 4)) else "%s-(%s)" % ((elem(),) * 2)
        return "[%s, %s)_%d%s" % (elem(), b, tower.p, draw(st.sampled_from(("", "^op"))))

    kind = draw(st.sampled_from(("element", "symbol", "expr", "empty")))
    if kind == "element":
        text = elem()
    elif kind == "symbol":
        text = symbol()
    elif kind == "expr":
        text = " * ".join(symbol() for _ in range(draw(st.integers(1, 3))))
    else:
        text = "1"
    return tower, level, text


@st.composite
def _edited(draw):
    tower, level, text = draw(_text())
    k = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("delete", "insert", "replace")))
    c = draw(st.sampled_from(EDIT_CHARS))
    if edit == "insert":
        text = text[:k] + c + text[k:]
    elif k < len(text):
        text = text[:k] + ("" if edit == "delete" else c) + text[k + 1:]
    return tower, level, text


def _check(tower, level, text):
    for parse, reference in PARSERS:
        assert _outcome(parse, text, tower, level) == \
            _outcome(reference, text, tower, level), (parse.__name__, text)


@settings(max_examples=400, deadline=None)
@given(_edited())
def test_one_scan_parser_matches_the_cursor_parser(case):
    _check(*case)


CORPUS = ("1/(t-t)", "(t+1)^300", "[t^2, t-t)_2", "[1, t)_2 * [1/t, t+1)_2^op", "1")


@pytest.mark.parametrize("text", CORPUS)
def test_every_one_character_edit_matches_the_cursor_parser(f2t, text):
    seen = set()
    for k in range(len(text) + 1):
        seen.add(text[:k] + text[k + 1:])
        for c in EDIT_CHARS:
            seen.update((text[:k] + c + text[k:], text[:k] + c + text[k + 1:]))
    for edited in sorted(seen):
        _check(f2t, 0, edited)
