"""The Albert search's class screen (``descent._ClassScreen``).

The search used to run ``reduce_expr`` on every choice of left slots; the
screen skips the choices whose Artin-Schreier class map cannot reduce to
the trivial one.  These tests keep that exhaustive loop as the reference
and check that the screened search returns the same candidate, that it
screens that candidate only, that ``reduce_expr`` keeps the class map, and that the n = 3 instance the screen was built for
stays fast and byte-identical.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations, product

import pytest

from charp import descent
from charp import towers as tw
from charp.bounds import Scenario
from charp.descent import DescentError, InsepTower, SearchConfig, reduce_to_cyclic_step
from charp.drivers import decompose
from charp.symbols import BrauerExpr, Symbol, reduce_expr
from charp.textform import format_expr, parse_element, parse_expr, parse_tower

N2_TOWER = "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2"
N3_TOWER = "GF(2)(t1,t2,t3) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2 ; ROOT v: v^2 = t3"
N3_CLASS = "[1/t2, t1)_2 * [1/t3, t2)_2 * [1/t1, t3)_2"
# sha256 of the certificate text of ``decompose`` on N3_CLASS, as the
# exhaustive search produced it (28-42 s on a 2-core x86_64 machine)
N3_CERT_SHA256 = "44e6aee7d8b2e0a917d263499332d6629dd3a8f96eaac1a8f849d712824f477a"


def reference_search(e, K, screens=None):
    """The search with no screen: ``reduce_expr`` on every choice, in the
    same order, counting the screens into ``screens``."""
    tower, f_level, rads = K.tower, K.over_level, K.radicands()
    pool = [tw.Elem(tower, 0, rf) for h in range(descent.ALBERT_HEIGHT + 1)
            for rf in tw._ratfuncs_of_height(tower, h)]
    n = len(rads)
    for size in range(0, n + 1):
        for subset in combinations(range(n), size):
            for choice in product(pool, repeat=size):
                if size and any(a0.is_zero() for a0 in choice):
                    continue
                cand = BrauerExpr(tower, f_level, [
                    Symbol(tw.lift(a0, f_level), tw.lift(rads[k], f_level))
                    for k, a0 in zip(subset, choice)])
                if screens is not None:
                    screens.append(cand)
                if reduce_expr(cand.op().tensor(e), norm_bound=0).is_empty():
                    return cand, list(subset)
    raise DescentError("decomposition not found")


def outcome(search, e, K):
    try:
        cand, subset = search(e, K)
    except DescentError:
        return None
    return format_expr(cand), subset


def insep_tower(base_text, radicands):
    base = tw.truncate(parse_tower(base_text), 0)
    K = InsepTower(base)
    for name, text in zip("ruv", radicands):
        K.add(parse_element(text, base), name)
    return K


def count_screens(monkeypatch, limit=None):
    """Count the screens of ``descent``: its ``reduce_expr`` calls with no
    recorder (certification passes one).  Past ``limit`` the next screen
    fails the test."""
    calls = []

    def counting(expr, recorder=None, **kwargs):
        if recorder is None:
            calls.append(expr)
            if limit is not None and len(calls) > limit:
                raise AssertionError("more than %d screens" % limit)
        return reduce_expr(expr, recorder, **kwargs)

    monkeypatch.setattr(descent, "reduce_expr", counting)
    return calls


def criterion_8_searches(monkeypatch):
    """The (e, K) of every Albert search that the three witness-only
    runs of acceptance criterion 8 make."""
    seen = []
    search = descent._albert_search
    monkeypatch.setattr(descent, "_albert_search",
                        lambda e, K: seen.append((e, K)) or search(e, K))
    K = insep_tower("GF(2)(t1,t2)", ["t1"])
    reduce_to_cyclic_step(parse_expr("[1/t2, t1)_2 * [1/t1, t2)_2", K.tower), K,
                          Symbol(parse_element("1/t1", K.tower, 1),
                                 parse_element("t2", K.tower, 1)))
    K = insep_tower("GF(2)(t1,t2)", ["t1"])
    reduce_to_cyclic_step(parse_expr("[1/t2, t1)_2 * [1/t1, t1*t2)_2", K.tower), K,
                          Symbol(parse_element("1/r", K.tower, 1),
                                 parse_element("r*t2", K.tower, 1)),
                          SearchConfig(norm_bound=2))
    decompose(Scenario(2, "split_by_insep", n=2, attached={
        "tower": N2_TOWER, "expr": "[1/t2, t1)_2 * [1/t1, t2)_2"}))
    monkeypatch.undo()
    return seen


def test_screened_search_matches_the_reference_on_criterion_8(monkeypatch):
    searches = criterion_8_searches(monkeypatch)
    assert len(searches) == 3
    for e, K in searches:
        got = outcome(descent._albert_search, e, K)
        assert got is not None
        assert got == outcome(reference_search, e, K)


def test_screened_search_matches_the_reference_at_n3_with_two_entries():
    K = insep_tower("GF(2)(t1,t2,t3)", ["t1", "t2", "t3"])
    e = parse_expr("[1/t2, t1)_2 * [1/t3, t2)_2", K.tower)
    got = outcome(descent._albert_search, e, K)
    assert got == ("[1/t2, t1)_2 * [1/t3, t2)_2", [0, 1])
    assert got == outcome(reference_search, e, K)


POOL_SLOTS = ["1", "1/t2", "1/t1", "1/(t1+1)", "t2/t1", "(t2+1)/t2", "t1/(t2+1)",
              "(t1+t2)/(t1+1)"]
OTHER_SLOTS = ["t1*t2", "1/(t1*t2+1)", "t1^2/t2"]
SHIFTS = ["t1", "t2", "1/t1", "t1/t2"]
FACTORS = ["t1+1", "t2", "t1+t2"]
RADICAND_PAIRS = [("t1", "t2"), ("t1", "t2+1"), ("t1*t2", "t2"), ("t1+t2", "t1")]


def random_class(rng):
    """An inseparable tower of degree 2 or 4 over GF(2)(t1,t2) and a class
    over its base: [a_k, b_k) for some radicands b_k, with a_k in the
    search's pool, each written as one entry or split over two, with a slots
    shifted by c^2 + c and radical slots moved by squares.  One draw in four
    adds a symbol outside that form."""
    rads = list(rng.choice(RADICAND_PAIRS)[:rng.choice([1, 2])])
    K = insep_tower("GF(2)(t1,t2)", rads)

    def shifted(a):
        c = rng.choice(SHIFTS)
        return "%s+(%s)^2+%s" % (a, c, c) if rng.random() < 0.4 else a

    entries = []
    for b in rads:
        if rng.random() < 0.25:
            continue
        a, x = rng.choice(POOL_SLOTS), rng.choice(FACTORS)
        if rng.random() < 0.5:  # [a, b x) (x) [a, x) has the class of [a, b)
            entries += ["[%s, (%s)*(%s))_2" % (shifted(a), b, x),
                        "[%s, %s)_2" % (shifted(a), x)]
        else:
            entries.append("[%s, (%s)*(%s)^2)_2" % (shifted(a), b, x))
    if not entries or rng.random() < 0.25:
        entries.append("[%s, %s)_2" % (rng.choice(POOL_SLOTS + OTHER_SLOTS),
                                       rng.choice(FACTORS + list(rads))))
    rng.shuffle(entries)
    return K, parse_expr(" * ".join(entries), K.tower)


@pytest.mark.parametrize("seed", range(20))
def test_screened_search_matches_the_reference_on_random_classes(monkeypatch, seed):
    K, e = random_class(random.Random("albert-screen:%d" % seed))
    screens = count_screens(monkeypatch)
    got = outcome(descent._albert_search, e, K)
    # on these draws the screen keeps the first hit and nothing else
    assert len(screens) == (got is not None)
    monkeypatch.undo()
    assert got == outcome(reference_search, e, K)


def test_random_classes_cover_hits_and_exhaustion():
    found = []
    for seed in range(20):
        K, e = random_class(random.Random("albert-screen:%d" % seed))
        found.append(outcome(descent._albert_search, e, K))
    assert any(f is None for f in found) and any(f and len(f[1]) == 2 for f in found)


@pytest.mark.parametrize("base", ["GF(2)(t1,t2)", "GF(2)(t1,t2) ; AS j: j^2+j = 1"])
@pytest.mark.parametrize("text", ["[1/t2, t1)_2 * [1/t1, t2)_2", "[1/t2, t1)_2"])
def test_the_screen_screens_the_reference_candidate_only(monkeypatch, base, text):
    """Over the base and above an Artin-Schreier step (the constant field
    GF(4)) the search returns the reference's candidate and screens it
    alone, where the reference screens more."""
    tower = parse_tower(base)
    K = InsepTower(tower)
    for name, radicand in zip("ru", ["t1", "t2"]):
        K.add(parse_element(radicand, tower, tower.depth), name)
    e = parse_expr(text, K.tower, tower.depth)
    reference = []
    expected = outcome(lambda *args: reference_search(*args, screens=reference), e, K)
    assert expected is not None and expected[0] == text
    screens = count_screens(monkeypatch)
    assert outcome(descent._albert_search, e, K) == expected
    assert len(screens) == 1 < len(reference)


def class_map(expr):
    """[a slot, product of b slots] for each nonzero Artin-Schreier class of
    the entries' a slots, by the exact tests of the univariate and the
    multivariate base."""
    classes = []
    for s in expr.entries:
        if tw.artin_schreier_preimage(s.a) is not None:
            continue
        for cls in classes:
            if tw.artin_schreier_preimage(tw.sub(s.a, cls[0])) is not None:
                cls[1] = tw.mul(cls[1], s.b)
                break
        else:
            classes.append([s.a, s.b])
    return classes


def product_in_class(classes, a, one):
    for rep, b in classes:
        if tw.artin_schreier_preimage(tw.sub(a, rep)) is not None:
            return b
    return one


MAP_CASES = [
    ("GF(2)(t1,t2)", ["1/t1", "1/t2", "t1/t2", "1"], ["t1", "t2", "t1+t2", "t1*t2+1"],
     ["t1", "t2", "1/t1"]),
    ("GF(2)(t)", ["1/t", "t", "1/(t+1)", "1"], ["t", "t+1", "t^2+t+1"], ["t", "1/t", "t^3"]),
    ("GF(3)(t)", ["1/t", "t", "1/(t+1)", "2"], ["t", "t+1", "t^2+1", "2"], ["t", "1/t", "t^2"]),
]


@pytest.mark.parametrize("field, a_slots, b_slots, shifts", MAP_CASES)
@pytest.mark.parametrize("seed", range(6))
def test_reduce_expr_keeps_the_class_map(field, a_slots, b_slots, shifts, seed):
    rng = random.Random("class-map:%s:%d" % (field, seed))
    tower = parse_tower(field)
    p = tower.p
    texts = []
    for _ in range(rng.randint(2, 4)):
        a = rng.choice(a_slots)
        if rng.random() < 0.5:
            c = rng.choice(shifts)
            a = "%s+(%s)^%d-(%s)" % (a, c, p, c)
        b = rng.choice(b_slots)
        if rng.random() < 0.3:
            b = "(%s)*(%s)^%d" % (b, rng.choice(b_slots), p)
        texts.append("[%s, %s)_%d" % (a, b, p))
    half = rng.randint(1, len(texts))
    expr = parse_expr(" * ".join(texts[:half]), tower)
    if half < len(texts):  # p - 1 copies of each entry of the rest
        expr = expr.tensor(parse_expr(" * ".join(texts[half:]), tower).op())
    out = reduce_expr(expr, norm_bound=0)
    before, after = class_map(expr), class_map(out)
    one = tw.int_elem(tower, 0, 1)
    for a in [cls[0] for cls in before + after]:
        ratio = tw.div(product_in_class(before, a, one), product_in_class(after, a, one))
        assert tw.pth_root_in_level(ratio) is not None


def test_n3_instance_decomposes_fast_with_the_exhaustive_search_certificate(monkeypatch):
    monkeypatch.setattr(tw, "_TOWERS", {})  # fresh towers, empty memos
    screens = count_screens(monkeypatch, limit=5)
    start = time.perf_counter()
    res = decompose(Scenario(2, "split_by_insep", n=3, attached={
        "tower": N3_TOWER, "expr": N3_CLASS}))
    assert time.perf_counter() - start < 2.0
    assert res.case == "albert" and format_expr(res.expr) == N3_CLASS
    assert hashlib.sha256(res.certificate.to_json().encode()).hexdigest() == N3_CERT_SHA256
    assert len(screens) == 1
