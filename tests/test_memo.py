"""Differential tests for the memos of pure answers: invariant vectors,
factorizations, norm searches and Artin-Schreier shift tests are computed
once per key and come back equal to a fresh computation, and certificate
replay parses each entry text once per call without weakening the chaining
check."""

from __future__ import annotations

import sys

import pytest

from charp import descent, oracle, symbols
from charp import towers as tw
from charp.bounds import Scenario
from charp.certify import Certificate, CertStep, verify_certificate
from charp.drivers import decompose
from charp.invariants import symbol_vector
from charp.poly import PolyRing, factor_univariate
from charp.ffield import FiniteField
from charp.symbols import BrauerExpr, Symbol, norm_witness, splitting_extension
from charp.textform import parse_element, parse_symbol, parse_tower

# (shallow tower, deeper tower with the same steps below the symbol's level,
#  level, symbol text); every level here has a rational presentation, and
#  every symbol a nonzero invariant vector.
CASES = [
    ("GF(2)(t)", "GF(2)(t) ; ROOT s: s^2 = t", 0, "[1/(t+1), t^2+t)_2"),
    ("GF(2)(t) ; ROOT s: s^2 = t", "GF(2)(t) ; ROOT s: s^2 = t ; AS i: i^2+i = s",
     1, "[1/s, s^2+s+1)_2"),
    ("GF(3)(t)", "GF(3)(t) ; ROOT s: s^3 = t", 0, "[t/(t^2+1), t+2)_3"),
    ("GF(3)(t) ; ROOT s: s^3 = t", "GF(3)(t) ; ROOT s: s^3 = t ; AS i: i^3+2*i = s",
     1, "[1/(s+1), s)_3"),
    ("GF(4)(t)", "GF(4)(t) ; ROOT s: s^2 = t", 0, "[1/t, t+g)_2"),
    ("GF(4)(t) ; ROOT s: s^2 = t", "GF(4)(t) ; ROOT s: s^2 = t ; AS i: i^2+i = g*s",
     1, "[1/s, s+g)_2"),
]


@pytest.mark.parametrize("shallow,deep,level,text", CASES)
def test_invariants_memo_is_shared_by_deeper_towers(monkeypatch, shallow, deep,
                                                    level, text):
    low, high = parse_tower(shallow), parse_tower(deep)
    assert tw.truncate(high, level) is tw.truncate(low, level)
    sym, _ = parse_symbol(text, low, level)
    first = oracle.expr_invariants(BrauerExpr(low, level, [sym]))
    key = ("invariants", sym.a.rep, sym.b.rep)
    assert key in tw.truncate(low, level).memo

    calls = []
    monkeypatch.setattr(oracle, "symbol_vector",
                        lambda *args: calls.append(args) or symbol_vector(*args))
    moved = Symbol(tw.rebind(sym.a, high), tw.rebind(sym.b, high))
    again = oracle.expr_invariants(BrauerExpr(high, level, [moved]))
    assert calls == []  # served from the memo on the shared prefix
    rz = oracle.backend_for(high, level)
    fresh = symbol_vector(rz.forward(moved.a), rz.forward(moved.b), high.p)
    assert again == first == fresh and not fresh.is_zero()
    # the memoized vector is not handed out: the sum is a new object
    again.add_in(next(iter(fresh.entries)), 1)
    assert oracle.expr_invariants(BrauerExpr(high, level, [moved])) == fresh


def test_factorization_memo_survives_a_mutated_result():
    R = PolyRing(FiniteField(3), ["t"])
    t = R.var("t")
    f = (t * t + R.one()) * (t + R.one()) ** 2
    lc, factors = factor_univariate(f)
    expected = dict(factors)
    factors.clear()
    factors[t] = 7
    lc2, again = factor_univariate(f)
    assert (lc2, again) == (lc, expected)
    assert again is not factor_univariate(f)[1]


@pytest.mark.parametrize("text,bound,found", [
    ("[1, t)_2", 1, False),       # nonsplit: the search finds nothing
    ("[1/t, t)_2", 2, True),      # split by the witness t*w
])
def test_norm_witness_and_solve_norm_share_one_entry(monkeypatch, text, bound, found):
    base = parse_tower("GF(2)(t)")
    sym, _ = parse_symbol(text, base, 0)
    z = norm_witness(sym, bound)
    assert (z is not None) == found
    ext = splitting_extension(sym)
    y = tw.rebind(sym.b, ext)
    key = ("solve_norm", y.rep, bound)
    assert key in ext.memo and ext.memo[key] == z

    def no_search(*args):
        raise AssertionError("the norm search ran again")

    monkeypatch.setattr(tw, "_solve_norm_uncached", no_search)
    assert tw.solve_norm(y, bound) == z
    assert norm_witness(sym, bound) == z


@pytest.mark.parametrize("x_text,y_text,found", [
    ("t1^2+t1+1/t2", "1/t2", True),                      # c = t1
    ("t1^2/(t2^2+1)+t1/(t2+1)+t2", "t2", True),          # c = t1/(t2+1)
    ("1/t2", "1/t1", False),                             # no c
])
def test_shift_test_is_memoized_per_prefix_and_ordered_pair(monkeypatch, x_text,
                                                            y_text, found):
    low = parse_tower("GF(2)(t1,t2)")
    high = parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
    assert tw.truncate(high, 0) is low
    x, y = parse_element(x_text, low), parse_element(y_text, low)
    key = ("as_shift", x.rep, y.rep)
    low.memo.pop(key, None)
    fresh = tw._as_preimage_uncached(tw.sub(x, y))
    assert (fresh is not None) == found
    assert symbols._as_shift_between(x, y) == fresh
    stored = low.memo[key]  # on tw.truncate(tower, 0), by the ordered pair
    assert stored == (None if fresh is None else fresh.rep)

    subs = []
    sub = tw.sub
    monkeypatch.setattr(tw, "sub", lambda *args: subs.append(args) or sub(*args))
    again = symbols._as_shift_between(tw.rebind(x, high), tw.rebind(y, high))
    assert subs == []  # served from the entry on the shared prefix
    if fresh is None:
        assert again is None
    else:
        assert again.tower is high and again.rep == fresh.rep


def test_shift_matching_subtracts_each_ordered_pair_once(monkeypatch):
    """An Albert run whose class needs a shift tests the same pairs of a
    slots in the search's screen, in its reduction and again when the answer
    is certified; with cold memos it subtracts each ordered pair at most
    once."""
    monkeypatch.setattr(tw, "_TOWERS", {})  # fresh towers, empty memos
    pairs, subs, inside = [], [], []
    between, sub = symbols._as_shift_between, tw.sub

    def counting_between(x, y):
        pairs.append((tw.truncate(x.tower, x.level), x.rep, y.rep))
        inside.append(True)
        try:
            return between(x, y)
        finally:
            inside.pop()

    def counting_sub(x, y):
        if inside and sys._getframe(1).f_globals["__name__"] == symbols.__name__:
            subs.append((x.rep, y.rep))
        return sub(x, y)

    monkeypatch.setattr(symbols, "_as_shift_between", counting_between)
    monkeypatch.setattr(descent, "_as_shift_between", counting_between)
    monkeypatch.setattr(tw, "sub", counting_sub)
    res = decompose(Scenario(2, "split_by_insep", n=2, attached={
        "tower": "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2",
        "expr": "[1/t2+t1^2+t1, t1)_2 * [1/t1, t2)_2",
    }))
    assert res.case == "albert" and res.achieved <= res.report.value
    distinct = len(set(pairs))
    assert distinct < len(pairs)  # the search repeats pair tests
    assert 0 < len(subs) <= distinct


def _shift_chain(second_before):
    """[1, t)_2 shifted by c = t, then by c = 0, with the second step's
    ``before`` written as given."""
    first = CertStep("ASShift", 0, 0, ["[1, t)_2"], ["[t^2+t+1, t)_2"],
                     {"c": "t", "index": 0})
    second = CertStep("ASShift", 0, 0, [second_before], [second_before],
                      {"c": "0", "index": 0})
    return Certificate("GF(2)(t)", 2, [first, second])


def test_replay_chains_equal_entries_written_differently():
    assert verify_certificate(_shift_chain("[1+t+t^2, t)_2")).accepted


def test_replay_still_rejects_a_broken_chain():
    out = verify_certificate(_shift_chain("[t^2+t, t)_2"))
    assert not out.accepted and out.malformed and out.failed_step == 1
    assert out.reason == "step does not chain from the previous one"
