import random
import time

import pytest

from conftest import rand_elem
from charp import towers as tw
from charp.ffield import MAX_FIELD_SIZE, FiniteField
from charp.textform import (ParseError, format_elem, format_expr,
                            format_symbol, format_tower, parse_element,
                            parse_expr, parse_symbol, parse_tower)


def test_element_examples(f2t):
    assert format_elem(parse_element("(t^2+1)/(t+1)", f2t)) == "t+1"
    assert format_elem(parse_element("0", f2t)) == "0"
    with pytest.raises(ParseError) as err:
        parse_element("1/(t-t)", f2t)
    assert "division by zero" in str(err.value)
    assert err.value.pos > 0


def test_unknown_variable_and_syntax_errors(f2t):
    with pytest.raises(ParseError, match="unknown variable"):
        parse_element("x+1", f2t)
    with pytest.raises(ParseError):
        parse_element("(t+1", f2t)
    with pytest.raises(ParseError):
        parse_element("t ** 2", f2t)


def test_subtraction_and_unary_minus(f3t):
    x = parse_element("2*t-t", f3t)
    assert format_elem(x) == "t"
    y = parse_element("-t", f3t)
    assert format_elem(y) == "2*t"


def test_element_round_trip_random():
    rng = random.Random(13)
    T = parse_tower("GF(4)(t) ; AS i: i^2+i = g ; ROOT s: s^2 = t")
    base = tw.truncate(T, 0)
    for _ in range(25):
        x = tw.lift(tw.rebind(rand_elem(rng, base, 2), T), 2)
        for lvl in (1, 2):
            x = tw.add(x, tw.mul(tw.lift(tw.gen_elem(T, lvl), 2),
                                 tw.lift(tw.rebind(rand_elem(rng, base, 1), T), 2)))
        text = format_elem(x)
        assert parse_element(text, T, 2) == x
        assert format_elem(parse_element(text, T, 2)) == text


def test_symbol_and_expr_round_trip(f2t):
    sym, is_op = parse_symbol("[1/t, t)_2", f2t)
    assert not is_op
    assert format_symbol(sym) == "[1/t, t)_2"
    expr = parse_expr("[1, t)_2 * [t, t+1)_2^op", f2t)
    assert expr.length() == 2
    text = format_expr(expr)
    assert parse_expr(text, f2t).entries == expr.entries
    assert parse_expr("1", f2t).is_empty()


def test_symbol_prime_mismatch(f2t):
    with pytest.raises(ParseError):
        parse_symbol("[1, t)_3", f2t)
    with pytest.raises(ParseError):
        parse_symbol("[1, 0)_2", f2t)


def test_tower_round_trips():
    texts = [
        "GF(2)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t",
        "GF(3)(t) ; AS i: i^3+2*i = 1/t",
        "GF(4)(t) ; ROOT s: s^2 = t^3+g",
        "GF(2)(t1,t2) ; ROOT r: r^2 = t1",
        "GF(3)(t) ; ROOT r: r^3 = 2*t ; AS i: i^3+2*i = r",
    ]
    for text in texts:
        T = parse_tower(text)
        assert format_tower(T) == text
        assert format_tower(parse_tower(format_tower(T))) == text


def test_tower_rejects_wrong_left_side():
    with pytest.raises(ParseError):
        parse_tower("GF(2)(t) ; AS i: i^2+1 = 1/t")
    with pytest.raises(ParseError):
        parse_tower("GF(2)(t) ; ROOT s: s^3 = t")
    with pytest.raises(ParseError):
        parse_tower("GF(6)(t)")


@pytest.mark.parametrize("text, message, pos", [
    ("1/(t-t)", "division by zero", 2),
    ("t/0", "division by zero", 2),
    ("x+1", "unknown variable 'x'", 1),
    ("t^", "expected int", 2),
    ("()", "expected a value", 1),
    ("t 2", "trailing input", 1),
])
def test_element_error_messages_and_positions(f2t, text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_element(text, f2t)
    assert str(err.value) == "%s (at position %d)" % (message, pos)
    assert err.value.pos == pos


@pytest.mark.parametrize("tower, level, text, pos", [
    ("GF(3)(t)", 0, "(t+1)^100000", 6),
    ("GF(3)(t)", 0, "(t+1)^1000/(t^2+1)^1000", 6),
    # the inner power fits the budget, the outer one doubles its degree
    ("GF(2)(t1,t2)", 0, "((t1+t2)^200)^2", 14),
    # a generator's coordinates are constants, yet its powers grow
    ("GF(2)(t) ; AS i: i^2+i = 1/t", 1, "t+i^100000", 4),
    ("GF(2)(t) ; AS i: i^2+i = 1/t", 1, "(1/t^2)^129", 8),
])
def test_power_above_the_degree_budget_fails_before_computing(tower, level, text, pos):
    with pytest.raises(ParseError) as err:
        parse_element(text, parse_tower(tower), level)
    assert str(err.value) == "power above the degree budget %d (at position %d)" % (
        tw.MAX_POWER_DEGREE, pos)


def test_power_at_the_degree_budget_parses(f3t):
    assert parse_element("(t+1)^256", f3t) == parse_element("(t+1)^128*(t+1)^128", f3t)


def test_expression_error_message_and_position(f2t):
    with pytest.raises(ParseError) as err:
        parse_expr("[1, t)_2 * ", f2t)
    assert str(err.value) == "expected [ (at position 10)"
    assert err.value.pos == 10


def test_symbol_subscript_may_be_spaced_after_the_underscore(f2t):
    assert parse_symbol("[1, t)_ 2", f2t) == parse_symbol("[1, t)_2", f2t)


@pytest.mark.parametrize("parse, text, message, pos", [
    (parse_symbol, "[1, t) _2", "expected _p after a symbol", 6),
    # ")_" is a subscript only after a symbol's slots; in an element it is trailing
    (parse_element, "(t)_2", "trailing input", 3),
    (parse_element, "t + $", "unrecognized input '$'", 3),
    # "_2p" is a subscript, an int and a name, not the name "_2p"
    (parse_expr, "[1, t)_2p * [t, 1)_2", "expected * between symbols", 8),
    # unrecognized input fails at the first look at it, before the zero divisor
    (parse_element, "1/(t-t)$", "unrecognized input '$'", 7),
    # an error found before that look keeps its place
    (parse_element, "(t+1)^100000$", "power above the degree budget %d" % tw.MAX_POWER_DEGREE, 6),
])
def test_scan_edge_messages_and_positions(f2t, parse, text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text, f2t)
    assert str(err.value) == "%s (at position %d)" % (message, pos)


@pytest.mark.parametrize("text, message, pos", [
    # a step body's error counts from the start of the tower text
    ("GF(2)(t) ; AS i: i^2+i = 1/(t-t)", "division by zero", 27),
    ("GF(2)(t) ; ROOT s: s^2 = x", "unknown variable 'x'", 26),
    ("GF(2)(t) ; ROOT s: s^2 = t ; AS j: j^2+j = (t/0)*s", "division by zero", 46),
    # the tower parser's own errors sit at the start of their step
    ("GF(2)(t) ; ROOT s: s^2 = t ; FOO j: j^2 = t",
     "expected 'AS g: ...' or 'ROOT g: ...'", 29),
    ("GF(2)(t) ; ROOT s: s^2", "missing '=' in step 'ROOT s: s^2'", 11),
    ("GF(2)(t) ;  AS i: i^2+1 = 1/t", "step left side must be 'i^2+i'", 12),
])
def test_tower_error_positions_count_from_the_whole_text(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_tower(text)
    assert str(err.value) == "%s (at position %d)" % (message, pos)
    assert err.value.pos == pos


@pytest.mark.parametrize("q", [0, 1])
def test_tower_rejects_field_sizes_below_two(q):
    with pytest.raises(ParseError, match="constant field size must be a prime power"):
        parse_tower("GF(%d)(t)" % q)


@pytest.mark.parametrize("q", [6, 12])
def test_tower_rejects_field_sizes_with_two_primes(q):
    with pytest.raises(ParseError, match="constant field size must be a prime power"):
        parse_tower("GF(%d)(t)" % q)


@pytest.mark.parametrize("q, p, d", [(4, 2, 2), (9, 3, 2), (8, 2, 3), (2, 2, 1)])
def test_tower_reads_prime_power_field_sizes(q, p, d):
    field = parse_tower("GF(%d)(t)" % q).base_field
    assert (field.p, field.d) == (p, d)


def test_tower_field_size_is_factored_up_to_its_square_root():
    start = time.perf_counter()
    field = parse_tower("GF(1000000007)(t)").base_field
    assert time.perf_counter() - start < 0.5
    assert (field.p, field.d) == (1000000007, 1)


@pytest.mark.parametrize("q", ["1" * 40, "9" * 5000, str(MAX_FIELD_SIZE + 1)])
def test_tower_field_size_above_the_cap_fails_before_any_division(q):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_tower("GF(%s)(t)" % q)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == "constant field size above %d (at position 0)" % MAX_FIELD_SIZE


def test_tower_reads_the_largest_prime_below_the_cap():
    field = parse_tower("GF(0004294967291)(t)").base_field
    assert (field.p, field.d) == (4294967291, 1) and 4294967291 < MAX_FIELD_SIZE


@pytest.mark.parametrize("text, pos", [
    # a cubic with the root t1+t2, which the parser used to accept
    ("GF(2)(t1,t2) ; EXT j: j^3+(t1+t2+1)*j^2+(t2)*j+(t1^2+t1*t2) = 0", 15),
    # the root step j^2 = t in disguise
    ("GF(2)(t) ; EXT j: j^2+t = 0", 11),
    # degrees above p, within the power budget and above it
    ("GF(2)(t) ; EXT j: j^%d+(t)*j+(t) = 0" % tw.MAX_POWER_DEGREE, 11),
    ("GF(2)(t) ; EXT j: j^100000+(t)*j+(t) = 0", 11),
    ("GF(2)(t) ; ROOT s: s^2 = t ;  EXT j: j^3+j+1 = 0", 30),
], ids=["root-at-t1-plus-t2", "root-step", "degree-256", "degree-100000", "second-step"])
def test_an_ext_step_is_a_parse_error_at_its_chunk(text, pos):
    # towers have Artin-Schreier and root steps only; the body is never read
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_tower(text)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == "expected 'AS g: ...' or 'ROOT g: ...' (at position %d)" % pos


LONG_DIGITS = "1" * 5000  # above Python's limit for int() on a string


@pytest.mark.parametrize("tower, parse, text, pos", [
    ("GF(2)(t)", parse_element, LONG_DIGITS + "*t", 0),
    ("GF(2)(t)", parse_element, "t^ " + LONG_DIGITS, 3),
    ("GF(2)(t)", parse_symbol, "[1, t)_" + LONG_DIGITS, 7),
    (None, parse_tower, "GF(2)(t) ; ROOT s: s^2 = t^" + LONG_DIGITS, 27),
], ids=["literal", "exponent", "symbol-prime", "step-exponent"])
def test_integer_tokens_above_the_digit_limit_fail_at_their_position(tower, parse, text, pos):
    args = () if tower is None else (parse_tower(tower),)
    with pytest.raises(ParseError) as err:
        parse(text, *args)
    assert str(err.value) == "integer of 5000 digits is too long (at position %d)" % pos


def test_integer_literal_at_the_digit_limit_parses(f3t):
    # 10^4299 + ... + 1 has digit sum 4300 = 1 mod 3, so it reads as 1
    assert parse_element("1" * 4300, f3t) == parse_element("1", f3t)


def test_tower_reserves_g_over_extended_constants():
    with pytest.raises(ParseError, match="'g'"):
        parse_tower("GF(4)(g)")
    with pytest.raises(ParseError, match="'g'"):
        parse_tower("GF(9)(t,g)")
    with pytest.raises(tw.StepError, match="'g'"):
        parse_tower("GF(4)(t) ; AS g: g^2+g = 1/t")
    # the constant g still round-trips through text
    T = parse_tower("GF(4)(t) ; ROOT s: s^2 = t")
    c = tw.const_elem(T, FiniteField(2, 2).gen, 1)
    assert format_elem(c) == "g"
    assert parse_element(format_elem(c), T, 1) == c
    # over a prime field g is an ordinary name
    assert format_tower(parse_tower("GF(2)(g)")) == "GF(2)(g)"
