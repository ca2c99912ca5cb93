import random

import pytest

from conftest import rand_elem
from charp import towers as tw
from charp.certify import verify_certificate
from charp.descent import (DecompositionResult, DescentError, InsepTower,
                           SearchConfig, SplitHypothesisError, albert_decompose,
                           frobenius_push, insep_splitting_field,
                           reduce_to_cyclic_step)
from charp.ffield import FiniteField
from charp.oracle import expr_invariants, is_split, realize
from charp.symbols import BrauerExpr, Symbol
from charp.textform import format_expr, format_symbol, parse_element, parse_expr, parse_symbol, parse_tower


def make_K(f2t):
    K = InsepTower(f2t)
    K.add(tw.var_elem(f2t, "t"), "r")
    return K


def test_frobenius_push_examples(f2t):
    K = make_K(f2t)
    r = tw.gen_elem(K.tower, 1)
    pushed = frobenius_push(Symbol(r, r), 0)
    assert format_symbol(pushed) == "[t, t)_2"
    # [x, 1) pushes to [x^2, 1), both split
    one = tw.int_elem(K.tower, 1, 1)
    x = parse_element("t+1", K.tower, 1)
    p2 = frobenius_push(Symbol(x, one), 0)
    assert format_symbol(p2) == "[t^2+1, 1)_2"
    assert is_split(p2, "invariants").status == "split"


def test_push_requires_exponent_one_chain(f2t):
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1")
    i = tw.gen_elem(T, 1)
    with pytest.raises(DescentError):
        frobenius_push(Symbol(i, i), 0)


def test_push_of_scalar_extension_is_trivial(f2t):
    rng = random.Random(41)
    K = make_K(f2t)
    for _ in range(25):
        a = tw.rebind(rand_elem(rng, f2t, 2), K.tower)
        b = tw.rebind(rand_elem(rng, f2t, 2, nonzero=True), K.tower)
        sym = Symbol(a, b).lift_to(1)
        pushed = frobenius_push(sym, 0)
        v = expr_invariants(BrauerExpr(K.tower, 0, [pushed]))
        assert v.is_zero()


def test_insep_tower_p_independence_error(f2t):
    K = make_K(f2t)
    with pytest.raises(tw.StepError):
        K.add(parse_element("t+1", f2t))


def test_albert_decompose_univariate(f2t):
    K = make_K(f2t)
    e = parse_expr("[1, t)_2", K.tower)
    dec = albert_decompose(e, K)
    assert dec.reported_length <= 1
    assert verify_certificate(dec.certificate).accepted
    assert expr_invariants(dec.expr) == expr_invariants(e)
    # empty expression decomposes to nothing
    dec2 = albert_decompose(BrauerExpr(K.tower, 0, []), K)
    assert dec2.expr.is_empty()


def test_decomposition_defaults_are_not_shared(f2t):
    empty = BrauerExpr(f2t, 0, [])
    first = DecompositionResult(empty, None, 0)
    second = DecompositionResult(empty, None, 0)
    first.slots.append(0)
    first.labels.append(None)
    assert second.slots == [] and second.labels == []


def test_albert_decompose_infeasible_slots(f2t):
    K = make_K(f2t)
    e = parse_expr("[1, t+1)_2", K.tower)  # support away from the slot t
    with pytest.raises(DescentError):
        albert_decompose(e, K)


def test_insep_splitting_field_examples(f2t):
    # the radical slot already lies downstairs: K = F(b^(1/p))
    T = parse_tower("GF(2)(t) ; AS i: i^2+i = 1")
    C = Symbol(parse_element("1/t", T, 1), parse_element("t", T, 1))
    K = insep_splitting_field(C, 0)
    assert [str(b.rep) for _, b in K.gens] == ["t"]
    # radical slot i*t over the constant extension: min poly X^2 + tX + t^2,
    # the square t^2 is discarded, leaving the root of t
    C2 = Symbol(parse_element("1/t", T, 1), parse_element("i*t", T, 1))
    K2 = insep_splitting_field(C2, 0)
    assert len(K2.gens) == 1
    assert format_expr(BrauerExpr(K2.tower, 0, [])) == "1"  # tower built over base
    b = K2.gens[0][1]
    assert tw.descend(tw.rebind(b, K2.tower), 0).rep == parse_element("t", f2t).rep
    # a p-th power slot needs no extension at all
    C3 = Symbol(parse_element("1/t", T, 1), parse_element("t^2", T, 1))
    K3 = insep_splitting_field(C3, 0)
    assert len(K3.gens) == 0


def test_reduce_to_cyclic_step_univariate(f2t):
    K = make_K(f2t)
    A = parse_expr("[1, t)_2", K.tower)
    cyclic = Symbol(tw.int_elem(K.tower, 1, 1),
                    tw.power(tw.gen_elem(K.tower, 1), 2))
    out = reduce_to_cyclic_step(A, K, cyclic)
    assert out.total_length() <= 1 + 2 - 1
    assert verify_certificate(out.certificate).accepted
    assert expr_invariants(BrauerExpr(K.tower, 0, out.total().entries)) \
        == expr_invariants(A)


def test_reduce_rejects_mismatched_cyclic_data(f2t):
    # over the tower the class splits, but [1, r) does not: no equivalence
    K = make_K(f2t)
    A = parse_expr("[1, t)_2", K.tower)
    bad = Symbol(tw.int_elem(K.tower, 1, 1), tw.gen_elem(K.tower, 1))
    with pytest.raises(SplitHypothesisError):
        reduce_to_cyclic_step(A, K, bad)


def test_multivariate_case_witness_in_base():
    K0 = parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
    A = parse_expr("[1/t2, t1)_2 * [1/t1, t2)_2", K0)
    K = InsepTower(tw.truncate(K0, 0))
    K.add(parse_element("t1", tw.truncate(K0, 0)), "r")
    cyclic = parse_symbol("[1/t1, t2)_2", K.tower, 1)[0]
    out = reduce_to_cyclic_step(A, K, cyclic)
    assert out.case == "norm-witness-in-base"
    assert out.total_length() <= 2
    assert verify_certificate(out.certificate).accepted
    methods = {l.method for l in out.labels}
    assert methods <= {"witness", "oracle", "assumed"}


def test_multivariate_case_quadratic_witness():
    K0 = parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
    A = parse_expr("[1/t2, t1)_2 * [1/t1, t1*t2)_2", K0)
    K = InsepTower(tw.truncate(K0, 0))
    K.add(parse_element("t1", tw.truncate(K0, 0)), "r")
    cyclic = Symbol(parse_element("1/r", K.tower, 1),
                    parse_element("r*t2", K.tower, 1))
    out = reduce_to_cyclic_step(A, K, cyclic, SearchConfig(norm_bound=2))
    assert out.case == "norm-witness-quadratic"
    assert out.cyclic_part.length() == 1  # exactly p - 1 symbols
    assert out.total_length() <= 2
    assert verify_certificate(out.certificate).accepted
    assert out.norm_witness is not None


def _witness_in_base_case():
    K0 = parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
    A = parse_expr("[1/t2, t1)_2 * [1/t1, t2)_2", K0)
    K = InsepTower(tw.truncate(K0, 0))
    K.add(parse_element("t1", tw.truncate(K0, 0)), "r")
    return A, K, parse_symbol("[1/t1, t2)_2", K.tower, 1)[0], SearchConfig()


def _quadratic_witness_case():
    K0 = parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
    A = parse_expr("[1/t2, t1)_2 * [1/t1, t1*t2)_2", K0)
    K = InsepTower(tw.truncate(K0, 0))
    K.add(parse_element("t1", tw.truncate(K0, 0)), "r")
    cyclic = Symbol(parse_element("1/r", K.tower, 1), parse_element("r*t2", K.tower, 1))
    return A, K, cyclic, SearchConfig(norm_bound=2)


@pytest.mark.parametrize("case, build", [
    ("norm-witness-in-base", _witness_in_base_case),
    ("norm-witness-quadratic", _quadratic_witness_case),
], ids=["in-base", "quadratic"])
def test_reduction_certifies_and_replays_once(monkeypatch, case, build):
    # the inner decomposition of a norm-witness path is part of the final
    # answer, so only that answer is certified and replayed
    import charp.descent as descent
    A, K, cyclic, cfg = build()
    replays = []

    def counting(cert):
        replays.append(cert)
        return verify_certificate(cert)

    monkeypatch.setattr(descent, "verify_certificate", counting)
    out = reduce_to_cyclic_step(A, K, cyclic, cfg)
    assert out.case == case
    assert replays == [out.certificate]
