import json
import random

from conftest import rand_elem
from charp.certify import (CertBuilder, Certificate, CertStep,
                           verify_certificate)
from charp.oracle import expr_invariants
from charp.symbols import BrauerExpr, Symbol, reduce_expr
from charp.textform import format_tower, parse_expr


def base_cert(f2t, steps):
    return Certificate(format_tower(f2t), 2, steps)


def test_default_witnesses_are_not_shared():
    first = CertStep("Reorder", 0, 0, [], [])
    second = CertStep("Reorder", 0, 0, [], [])
    first.witness["perm"] = []
    assert second.witness == {}


def test_null_witnesses_are_malformed(f2t):
    doc = {"p": 2, "tower": format_tower(f2t),
           "steps": [{"kind": "Reorder", "level_before": 0, "level_after": 0,
                      "before": [], "after": [], "witnesses": None}]}
    out = verify_certificate(Certificate.from_json(json.dumps(doc)))
    assert not out.accepted and out.malformed and out.failed_step == 0
    assert out.reason == "witnesses must be an object"


def test_single_merge_step_accepts(f2t):
    step = CertStep("MergeSameA", 0, 0,
                    ["[1, t)_2", "[1, t+1)_2"], ["[1, t^2+t)_2"],
                    {"i": 0, "j": 1})
    out = verify_certificate(base_cert(f2t, [step]))
    assert out.accepted


def test_norm_witness_claiming_wrong_norm_rejects(f2t):
    # a step claiming Norm(1) = t must be rejected at that step
    step = CertStep("SplitNormWitness", 0, 0, ["[1, t)_2"], [], {"index": 0, "z": "1"})
    out = verify_certificate(base_cert(f2t, [step]))
    assert not out.accepted and not out.malformed and out.failed_step == 0


def test_frobenius_push_step_accepts():
    tower_text = "GF(2)(t) ; ROOT s: s^2 = t"
    step = CertStep("FrobeniusPush", 1, 0, ["[s, s)_2"], ["[t, t)_2"], {})
    out = verify_certificate(Certificate(tower_text, 2, [step]))
    assert out.accepted
    # pushing across an Artin-Schreier step is rejected
    bad = CertStep("FrobeniusPush", 1, 0, ["[i, 1+i)_2"], ["[i^2, 1+i^2)_2"], {})
    out2 = verify_certificate(Certificate("GF(2)(t) ; AS i: i^2+i = 1", 2, [bad]))
    assert not out2.accepted


def test_scalar_extend_and_reorder(f2t):
    tower_text = "GF(2)(t) ; ROOT s: s^2 = t"
    ext = CertStep("ScalarExtend", 0, 1, ["[1, t)_2"], ["[1, t)_2"], {})
    out = verify_certificate(Certificate(tower_text, 2, [ext]))
    assert out.accepted
    reorder = CertStep("Reorder", 0, 0, ["[1, t)_2", "[t, t)_2"],
                       ["[t, t)_2", "[1, t)_2"], {"perm": [1, 0]})
    assert verify_certificate(base_cert(f2t, [reorder])).accepted
    bad = CertStep("Reorder", 0, 0, ["[1, t)_2", "[t, t)_2"],
                   ["[1, t)_2", "[t, t)_2"], {"perm": [0, 0]})
    out_bad = verify_certificate(base_cert(f2t, [bad]))
    assert not out_bad.accepted and out_bad.malformed


def test_malformed_versus_rejected(f2t):
    # level outside the tower: malformed
    step = CertStep("ASShift", 3, 3, ["[1, t)_2"], ["[1, t)_2"], {"c": "0", "index": 0})
    out = verify_certificate(base_cert(f2t, [step]))
    assert not out.accepted and out.malformed
    # a mathematically wrong shift: rejected but well-formed
    step2 = CertStep("ASShift", 0, 0, ["[1, t)_2"], ["[t, t)_2"], {"c": "1", "index": 0})
    out2 = verify_certificate(base_cert(f2t, [step2]))
    assert not out2.accepted and not out2.malformed


def test_chain_break_is_malformed(f2t):
    s1 = CertStep("ASShift", 0, 0, ["[1, t)_2"], ["[1+t^2+t, t)_2"], {"c": "t", "index": 0})
    s2 = CertStep("ASShift", 0, 0, ["[t, t)_2"], ["[t, t)_2"], {"c": "0", "index": 0})
    out = verify_certificate(base_cert(f2t, [s1, s2]))
    assert not out.accepted and out.malformed and out.failed_step == 1


def test_json_roundtrip_bit_exact(f2t):
    rec = CertBuilder(f2t)
    e = parse_expr("[t^2, t)_2 * [t, t)_2", f2t)
    reduce_expr(e, recorder=rec, norm_bound=2)
    cert = rec.build()
    blob = cert.to_json()
    again = Certificate.from_json(blob)
    assert again.to_json() == blob
    assert verify_certificate(again).accepted


def test_emitted_reductions_verify_and_preserve_invariants(f2t):
    rng = random.Random(31)
    for _ in range(10):
        entries = []
        for _ in range(rng.randrange(1, 4)):
            a = rand_elem(rng, f2t, 2)
            b = rand_elem(rng, f2t, 2, nonzero=True)
            entries.append(Symbol(a, b))
        e = BrauerExpr(f2t, 0, entries)
        rec = CertBuilder(f2t)
        red = reduce_expr(e, recorder=rec, norm_bound=2)
        cert = rec.build()
        assert verify_certificate(cert).accepted
        if cert.steps:
            first = parse_expr(" * ".join(cert.steps[0].before) or "1", f2t)
            last = parse_expr(" * ".join(cert.steps[-1].after) or "1", f2t)
            assert expr_invariants(first) == expr_invariants(last)
        assert expr_invariants(red) == expr_invariants(e)


def test_albert_step_checks_invariant_equality(f2t):
    good = CertStep("AlbertDecomp", 0, 0, ["[t^2+t, t)_2"], ["[t, t)_2"],
                    {"rule": "invariant-matched rewrite"})
    assert verify_certificate(base_cert(f2t, [good])).accepted
    bad = CertStep("AlbertDecomp", 0, 0, ["[1, t)_2"], [], {"rule": "nope"})
    out = verify_certificate(base_cert(f2t, [bad]))
    assert not out.accepted and not out.malformed


def test_unknown_kind_malformed(f2t):
    step = CertStep("Teleport", 0, 0, ["[1, t)_2"], [], {})
    out = verify_certificate(base_cert(f2t, [step]))
    assert not out.accepted and out.malformed


def test_merge_of_an_entry_with_itself_is_malformed(f2t):
    # [1/t, t+1)_2 is nonsplit; merging entry 0 with itself and popping it
    # would "prove" it trivial
    forged = CertStep("MergeSameA", 0, 0, ["[1/t, t+1)_2"], [], {"i": 0, "j": 0})
    out = verify_certificate(base_cert(f2t, [forged]))
    assert not out.accepted and out.malformed and out.failed_step == 0


def test_bool_is_not_an_entry_index(f2t):
    step = CertStep("MergeSameA", 0, 0, ["[1, t)_2", "[1, t+1)_2"], ["[1, t^2+t)_2"],
                    {"i": False, "j": True})
    out = verify_certificate(base_cert(f2t, [step]))
    assert not out.accepted and out.malformed
    reorder = CertStep("Reorder", 0, 0, ["[1, t)_2", "[t, t)_2"],
                       ["[t, t)_2", "[1, t)_2"], {"perm": [True, False]})
    out2 = verify_certificate(base_cert(f2t, [reorder]))
    assert not out2.accepted and out2.malformed


# A cubic with the root t1+t2, so j+t1+t2 would be a zero divisor.  Towers
# have Artin-Schreier and root steps only, and the parser refuses the step.
REDUCIBLE_TOWER = "GF(2)(t1,t2) ; EXT j: j^3+(t1+t2+1)*j^2+(t2)*j+(t1^2+t1*t2) = 0"
ZERO_DIVISOR_ENTRY = "[1/(j+t1+t2), t1)_2"
EXT_REFUSED = "bad tower: expected 'AS g: ...' or 'ROOT g: ...' (at position 15)"


def test_a_tower_with_an_ext_step_is_malformed():
    step = CertStep("Reorder", 1, 1, [ZERO_DIVISOR_ENTRY], [ZERO_DIVISOR_ENTRY],
                    {"perm": [0]})
    out = verify_certificate(Certificate(REDUCIBLE_TOWER, 2, [step]))
    assert not out.accepted and out.malformed and out.failed_step is None
    assert out.reason == EXT_REFUSED
    # a step that divides by j+t1+t2 in the tower text is never reached
    tower = REDUCIBLE_TOWER + " ; AS k: k^2+k = 1/(j+t1+t2)"
    out = verify_certificate(Certificate(tower, 2, []))
    assert not out.accepted and out.malformed and out.failed_step is None
    assert out.reason == EXT_REFUSED
