"""Differential test of the characteristic-2 norm resolvent.

For a candidate c1 = n/d the resolvent of ``towers.solve_norm`` over a
cyclic step used to build one reduced fraction per candidate,
rhs = (y - c1^2 w) / c1^2.  Now, with y = a/b and w = wn/wd, it forms
N = a wd d^2 - b wn n^2 and C = b wd and reduces no fraction for a
candidate it rejects: rhs = N / (C n^2) needs a square reduced
denominator, which ``towers._CyclicSieve`` decides from valuations read
off the height pools' sieve, forming N only where they leave the verdict
open.

That verdict is compared here with the reduced fraction, written out the
old way, and ``solve_norm`` is compared with a copy of the old candidate
loop.  The sieve settles once per numerator what no denominator can
change, and hands on a candidate that passes as N / (C n^2) already
reduced, with no gcd: that fraction is compared with the one ``RatFunc``
reduces, and one search to bound 2 per branch of the per-numerator checks
runs against the old loop.  Over a root step s^2 = w the norm is z^2, so
``solve_norm`` returns the exact square root whatever the bound; a bounded
loop that solves c0^2 = y - c1^2 w per candidate c1 can only find that
same root, and finds it exactly when its c1 coordinate lies within the
bound.

Operands come from the height pools over GF(2)(t1,t2), GF(4)(t1,t2) and
GF(2)(t), with the zero fraction left out of the draw, so every operand is
nonzero by construction.  A drawn defining element is made nondegenerate by
construction too: a square radicand b becomes b + t1, an Artin-Schreier
image a becomes a + 1/t1 (t1 is not a square, and the reduced denominator
t1 is not one either).
"""

import pytest
from hypothesis import given, settings, strategies as st

from charp import towers as tw
from charp.poly import RatFunc
from charp.textform import parse_element, parse_tower

# base -> the largest height drawn (the GF(4)(t1,t2) pool of height 2 has
# 5.5 million members)
BASES = {"GF(2)(t1,t2)": 2, "GF(4)(t1,t2)": 1, "GF(2)(t)": 2}


def _draw(data, base, top):
    """A nonzero member of a height pool of ``base`` up to ``top``, with its
    height."""
    h = data.draw(st.integers(0, top))
    pool = [f for f in tw._ratfuncs_of_height(base, h) if not f.is_zero()]
    return data.draw(st.sampled_from(pool)), h


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_rejection_matches_the_reduced_fraction(text, data):
    base = parse_tower(text)
    top = BASES[text]
    y0, _ = _draw(data, base, top)
    w, _ = _draw(data, base, top)
    abc = (y0.num * w.den, y0.den * w.num, y0.den * w.den)
    sieve = tw._CyclicSieve(base, abc)  # shared by the candidates of one (y, w)
    for _ in range(4):
        c1, h = _draw(data, base, top)
        n, d = c1.num, c1.den
        N = abc[0] * d * d - abc[1] * n * n
        c1sq = c1 * c1
        # cyclic step: u^2 + u = rhs
        rhs = (y0 - c1sq * w) / c1sq
        numerator = sieve.numerator(n, d, h)
        assert numerator in (None, N), (y0, w, c1)
        assert (numerator is not None) == (rhs.den.pth_power_root() is not None), (y0, w, c1)


def _reference_resolvent(y, degree_bound):
    """The cyclic resolvent's candidate loop before the rejection test: one
    reduced fraction per candidate."""
    tower = y.tower
    w = tw.step_defining_elem(tower, 1).rep
    y0 = y.rep
    root = y0.pth_root()
    if root is not None and not root.is_zero():
        return tw.Elem(tower, 1, (root, RatFunc.zero(tower.ring)))
    for h in range(degree_bound + 1):
        for c1 in tw._ratfuncs_of_height(tower, h):
            if c1.is_zero():
                continue
            c1sq = c1 * c1
            rhs = (y0 - c1sq * w) / c1sq
            u = tw._as_preimage_base(tw.Elem(tower, 0, rhs))
            if u is None:
                continue
            return tw.Elem(tower, 1, (c1 * u.rep, c1))
    return None


def _bounded_root_loop(y, degree_bound):
    """Over a root step s^2 = w: the first candidate c1 (c1 = 0 first) for
    which c0^2 = y - c1^2 w has a root c0, giving z = c0 + c1 s."""
    tower = y.tower
    w = tw.step_defining_elem(tower, 1).rep
    for h in range(degree_bound + 1):
        for c1 in tw._ratfuncs_of_height(tower, h):
            c0 = (y.rep - c1 * c1 * w).pth_root()
            if c0 is not None and not (c0.is_zero() and c1.is_zero()):
                return tw.Elem(tower, 1, (c0, c1))
    return None


def _height(c):
    return max(c.num.total_degree(), c.den.total_degree())


# (base, cyclic step) -> the largest bound drawn.  The old loop reduces a
# fraction per candidate: it took 1.5-7 s for a search over GF(2)(t1,t2) to
# bound 2 or over GF(4)(t1,t2) to bound 1 that finds nothing, 2-5 times as
# long as ``solve_norm``.  So y and w are drawn from heights <= 1, and the
# searches to bound 2 over GF(2)(t1,t2) are the two fixed cases below.
SEARCH_BOUNDS = {("GF(2)(t)", True): 2, ("GF(2)(t)", False): 2,
                 ("GF(2)(t1,t2)", True): 1, ("GF(2)(t1,t2)", False): 1,
                 ("GF(4)(t1,t2)", True): 1, ("GF(4)(t1,t2)", False): 1}


def _assert_same_witness(y, bound):
    z = tw.solve_norm(y, bound)
    if y.tower.step_at(1).kind == "artin_schreier":
        assert z == _reference_resolvent(y, bound), (y.tower, y, bound)
    else:
        assert z == tw.pth_root_in_level(tw.lift(y, 1)), (y.tower, y, bound)
        within = z is not None and (z.rep[1].is_zero() or _height(z.rep[1]) <= bound)
        assert _bounded_root_loop(y, bound) == (z if within else None), (y.tower, y, bound)
    if z is not None:
        assert tw.norm(z, 0) == y


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(SEARCH_BOUNDS)), st.data())
def test_solve_norm_matches_the_reference_loop(key, data):
    text, cyclic = key
    base = parse_tower(text)
    t1 = RatFunc.from_poly(base.ring.var(base.ring.variables[0]))
    w, _ = _draw(data, base, 1)
    if cyclic:
        if tw.artin_schreier_preimage(tw.Elem(base, 0, w)) is not None:
            w = w + t1.inv()
        T = tw.make_step(base, "artin_schreier", "i", tw.Elem(base, 0, w))
    else:
        if w.pth_root() is not None:
            w = w + t1
        T = tw.make_step(base, "insep_root", "s", tw.Elem(base, 0, w))
    y, _ = _draw(data, base, 1)
    _assert_same_witness(tw.Elem(T, 0, y), data.draw(st.integers(0, SEARCH_BOUNDS[key])))


@pytest.mark.parametrize("tower, y", [
    # the cyclic search of the quadratic witness-only run: a witness
    ("GF(2)(t1,t2) ; AS w: w^2+w = 1/t1", "t1*t2^2"),
    # a root step where t2 is not a square: no witness at any bound
    ("GF(2)(t1,t2) ; ROOT r: r^2 = t1", "t2"),
    # a root step where t2^2+t1 is the square of t2 + t1 r
    ("GF(2)(t1,t2) ; ROOT r: r^2 = 1/t1", "t2^2+t1"),
])
def test_solve_norm_matches_the_reference_loop_to_bound_2(tower, y):
    T = parse_tower(tower)
    _assert_same_witness(parse_element(y, T, 0), 2)


@pytest.mark.parametrize("tower, y", [
    # C = t1+g*t2+(g+1) lies in the sieve from height 1 on: no witness, and
    # 1200 of 1263 candidates used to take a gcd with C
    ("GF(4)(t1,t2) ; AS i: i^2+i = t2+(g+1)", "((g+1)*t1+1)/(t1+g*t2+(g+1))"),
    # C = t1*(t1^2+t2): the irreducible t1^2+t2 has total degree 2, above
    # the bound, so it stays in C' and every candidate that passes the
    # valuations at t1 takes the gcd with it
    ("GF(2)(t1,t2) ; AS w: w^2+w = 1/t1", "t2/(t1^2+t2)"),
])
def test_solve_norm_matches_the_reference_loop_to_bound_1(tower, y):
    T = parse_tower(tower)
    _assert_same_witness(parse_element(y, T, 0), 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_passing_fraction_is_the_reduced_fraction(text, data):
    # y = c1^2 (u^2 + u + w) makes the drawn c1 pass: its rhs is u^2 + u
    base = parse_tower(text)
    top = BASES[text]
    t1 = RatFunc.from_poly(base.ring.var(base.ring.variables[0]))
    w, _ = _draw(data, base, top)
    if tw.artin_schreier_preimage(tw.Elem(base, 0, w)) is not None:
        w = w + t1.inv()
    c1, h = _draw(data, base, top)
    u, _ = _draw(data, base, 1)
    y0 = c1 * c1 * (u * u + u + w)
    abc = (y0.num * w.den, y0.den * w.num, y0.den * w.den)
    sieve = tw._CyclicSieve(base, abc)
    candidates = [(c1, h)] + [_draw(data, base, top) for _ in range(3)]
    for k, (c, h) in enumerate(candidates):
        n, d = c.num, c.den
        checks = sieve.checks(n, h)
        fraction = None if checks is None else sieve.fraction(checks, d)
        N = sieve.numerator(n, d, h)
        assert (fraction is None) == (N is None), (y0, w, c)
        assert k or fraction is not None, (y0, w, c)
        if fraction is not None:
            assert fraction == RatFunc(N, abc[2] * n * n), (y0, w, c)


@pytest.mark.parametrize("y, n, per_denominator", [
    # n = t1 is rejected at its own prime: v(A) = 1 against v(B n^2) = 3
    # leaves t1^3 of C n^2 = t1^4 in the denominator
    ("(t1^2+1)/t1", "t1", None),
    # the known prime t1 with v(B) = 0 < v(A) = 2 rejects n = t2 once for
    # every denominator
    ("t1", "t2", None),
    # the known prime t1 with v(B) = v(A) = 1 is read per denominator, and
    # ties at the denominators prime to t1
    ("t2^2/t1", "t2", "t1"),
])
def test_solve_norm_matches_the_reference_loop_per_branch(y, n, per_denominator):
    # the numerator's checks show the branch; the search runs to bound 2
    T = parse_tower("GF(2)(t1,t2) ; AS w: w^2+w = 1/t1")
    y = parse_element(y, T, 0)
    w = tw.step_defining_elem(T, 1).rep
    sieve = tw._CyclicSieve(T, (y.rep.num * w.den, y.rep.den * w.num, y.rep.den * w.den))
    checks = sieve.checks(parse_element(n, T, 0).rep.num, 1)
    if per_denominator is None:
        assert checks is None
    else:
        _, _, per_pair = checks
        assert [pi for pi, *_ in per_pair] == [parse_element(per_denominator, T, 0).rep.num]
    _assert_same_witness(y, 2)
