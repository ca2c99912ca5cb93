import sys

import pytest

from charp import certify, drivers
from charp.bounds import Scenario
from charp.certify import verify_certificate
from charp.drivers import DriverError, decompose
from charp.experiment import ExperimentConfig, run_experiment
from charp.oracle import expr_invariants
from charp.symbols import BrauerExpr
from charp.textform import (format_expr, format_place, format_symbol, parse_expr,
                            parse_tower)


def test_albert_driver():
    scn = Scenario(2, "split_by_insep", n=1, attached={
        "tower": "GF(2)(t) ; ROOT r: r^2 = t",
        "expr": "[1, t)_2",
    })
    res = decompose(scn)
    assert res.achieved <= res.report.value == 1
    assert verify_certificate(res.certificate).accepted


def test_cyclic_reduction_driver():
    scn = Scenario(2, "cyclic_after_insep", n=1, attached={
        "tower": "GF(2)(t) ; ROOT r: r^2 = t",
        "expr": "[1, t)_2",
        "cyclic": "[1, r^2)_2",
    })
    res = decompose(scn)
    assert res.report.value == 2 and res.achieved <= 2
    assert verify_certificate(res.certificate).accepted


def test_cyclic_degree_driver_bound():
    # a degree-p^2 cyclic presentation: chain of one root step plus data
    scn = Scenario(2, "cyclic_deg", n=2, attached={
        "tower": "GF(2)(t) ; ROOT r: r^2 = t",
        "expr": "[1, t)_2",
        "cyclic": "[1, r^2)_2",
    })
    res = decompose(scn)
    assert res.report.value == 2  # p^(n-1)
    assert res.achieved <= 2
    assert verify_certificate(res.certificate).accepted


def test_cyclic_step_driver_full_pipeline():
    scn = Scenario(2, "split_by_cyclic_p", lambda_bound=1, attached={
        "tower": "GF(2)(t) ; AS i: i^2+i = 1",
        "expr": "[1, t)_2",
        "lambda_expr": "[1, t)_2",
    })
    res = decompose(scn)
    assert res.report.value == 3
    assert res.achieved <= 3
    assert verify_certificate(res.certificate).accepted
    # final invariants equal the initial ones
    T = parse_tower("GF(2)(t)")
    A = parse_expr("[1, t)_2", T)
    out = parse_expr(format_expr(res.expr), T)
    assert expr_invariants(out) == expr_invariants(A)
    methods = {l.method for l in res.labels}
    assert "oracle" in methods


def test_cyclic_step_driver_assembles_the_presentation_place_by_place(monkeypatch):
    # b = i has the constant minimal polynomial x^2+x+1, so the splitting
    # tower needs no root step and the class keeps its invariants at the
    # places t and t+1, from which the radical slot t^2+t is assembled
    seen = []
    presentation = drivers._cyclic_presentation
    monkeypatch.setattr(drivers, "_cyclic_presentation",
                        lambda *args: seen.append(presentation(*args)) or seen[-1])
    scn = Scenario(2, "split_by_cyclic_p", lambda_bound=1, attached={
        "tower": "GF(2)(t) ; AS i: i^2+i = 1",
        "expr": "[1, t)_2 * [1, t+1)_2",
        "lambda_expr": "[1/t, i)_2",
    })
    res = decompose(scn)
    T = parse_tower("GF(2)(t)")
    A = parse_expr("[1, t)_2 * [1, t+1)_2", T)
    v = expr_invariants(A)
    assert sorted(format_place(w) for w in v.support()) == ["(t)", "(t+1)"]
    [cyclic] = seen
    assert cyclic.tower is T and format_symbol(cyclic) == "[1, t^2+t)_2"
    assert expr_invariants(BrauerExpr(T, 0, [cyclic])) == v
    assert res.achieved <= res.report.value
    assert verify_certificate(res.certificate).accepted
    assert expr_invariants(parse_expr(format_expr(res.expr), T)) == v


def test_cyclic_step_driver_rejects_wrong_presentation():
    # [i, t) is nonsplit over the constant extension while the class dies
    # there, so the attached presentation cannot match
    scn = Scenario(2, "split_by_cyclic_p", lambda_bound=1, attached={
        "tower": "GF(2)(t) ; AS i: i^2+i = 1",
        "expr": "[1, t)_2",
        "lambda_expr": "[i, t)_2",
    })
    with pytest.raises(DriverError, match="does not match"):
        decompose(scn)


def test_cyclic_step_driver_reports_slot_infeasibility():
    # both sides split over the extension, but the derived inseparable slot
    # cannot carry the class's invariants: reported, not guessed
    from charp.descent import DescentError
    scn = Scenario(2, "split_by_cyclic_p", lambda_bound=1, attached={
        "tower": "GF(2)(t) ; AS i: i^2+i = 1",
        "expr": "[1, t)_2",
        "lambda_expr": "[1, t+1)_2",
    })
    with pytest.raises((DriverError, DescentError)):
        decompose(scn)


def test_driver_requires_attached_data():
    with pytest.raises(DriverError):
        decompose(Scenario(2, "split_by_insep", n=1))
    with pytest.raises(DriverError):
        decompose(Scenario(2, "index", n=2, attached={"tower": "GF(2)(t)",
                                                      "expr": "[1, t)_2"}))


def test_albert_driver_multivariate_degree_p_squared():
    # an inseparable tower of degree p^2 needs two base variables; all
    # checks are witness-mode and the certificate is fully elementary
    scn = Scenario(2, "split_by_insep", n=2, attached={
        "tower": "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2",
        "expr": "[1/t2, t1)_2 * [1/t1, t2)_2",
    })
    res = decompose(scn)
    assert res.achieved <= res.report.value == 2
    assert verify_certificate(res.certificate).accepted
    assert all(l.method == "witness" for l in res.labels)


def _count_replays(monkeypatch) -> list:
    """Route every ``verify_certificate`` the package holds through a
    counter; returns the list of replayed certificates."""
    replayed = []
    original = certify.verify_certificate

    def counting(cert):
        replayed.append(cert)
        return original(cert)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "verify_certificate", None)
        if name.split(".")[0] == "charp" and held is original:
            monkeypatch.setattr(module, "verify_certificate", counting)
    return replayed


@pytest.mark.parametrize("kind,extra", [
    ("split_by_insep", {}),
    ("cyclic_after_insep", {"cyclic": "[1, r^2)_2"}),
])
def test_decompose_replays_its_certificate_once(monkeypatch, kind, extra):
    replayed = _count_replays(monkeypatch)
    res = decompose(Scenario(2, kind, n=1, attached=dict(
        {"tower": "GF(2)(t) ; ROOT r: r^2 = t", "expr": "[1, t)_2"}, **extra)))
    assert len(replayed) == 1 and replayed[0] is res.certificate


@pytest.mark.parametrize("family", ["insep_cyclic", "cyclic_degree"])
def test_insep_trial_replays_its_certificate_once(monkeypatch, family):
    replayed = _count_replays(monkeypatch)
    report = run_experiment(ExperimentConfig(family=family, trials=3, seed=5,
                                             degree_cap=2, norm_bound=3))
    assert report.summary()["failed"] == 0
    assert len(replayed) == 3 and all(row.certified for row in report.rows)
