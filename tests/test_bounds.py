import pytest

from charp.bounds import (BoundReport, NoApplicableRule, Scenario, bound,
                          chain_iteration_bound, rule_value, scenario_from_json)


def chain_value(report, rule):
    for entry in report.chain:
        if entry["rule"] == rule:
            return entry["value"]
    raise AssertionError("rule %s did not fire" % rule)


def test_improved_char2_chain_bound():
    report = bound(Scenario(2, "split_by_p_extension", n=3))
    assert report.value == 4
    assert report.rule == "p_ext_split_char2_improved"
    # below three steps the improvement is silent
    r2 = bound(Scenario(2, "split_by_p_extension", n=2))
    assert r2.rule == "p_ext_split" and r2.value == 3


def test_two_per_level_chain_bound():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 21):
            report = bound(Scenario(p, "split_by_p_extension", n=n))
            assert chain_value(report, "p_ext_split") == 2 * p ** (n - 1) - 1


def test_index_bounds_char2():
    for n in range(1, 21):
        report = bound(Scenario(2, "index", n=n))
        assert chain_value(report, "index_char2") == 2 ** n - 1
    assert bound(Scenario(2, "index", n=1)).value == 1
    assert bound(Scenario(2, "index", n=2)).value == 2
    r3 = bound(Scenario(2, "index", n=3))
    assert r3.value == 4
    assert any("lower bound 3" in a for a in r3.annotations)


def test_cyclic_degree_bounds():
    assert bound(Scenario(3, "cyclic_deg", n=2)).value == 3
    for p in (2, 3, 5, 13):
        assert chain_value(bound(Scenario(p, "cyclic_deg", n=2)),
                           "cyclic_degree_p2") == p
        for n in range(1, 12):
            assert chain_value(bound(Scenario(p, "cyclic_deg", n=n)),
                               "cyclic_degree_power") == p ** (n - 1)


def test_insep_scaling_bounds():
    assert bound(Scenario(2, "cyclic_after_insep", n=1)).value == 2
    for p in (2, 3, 5):
        for n in range(1, 8):
            s = Scenario(p, "cyclic_after_insep", n=n)
            assert chain_value(bound(s), "insep_cyclic_reduction") == n + p - 1
            s2 = Scenario(p, "insep_lambda", deg_log=1, lambda_bound=n)
            assert chain_value(bound(s2), "insep_step_scaling") == n * p
            s3 = Scenario(p, "insep_lambda", deg_log=3, lambda_bound=n)
            assert chain_value(bound(s3), "insep_tower_scaling") == p ** 3 * n
    assert bound(Scenario(2, "split_by_insep", n=4)).value == 4


def test_cyclic_step_and_chain_rules():
    for p in (2, 3, 5):
        for lam in range(0, 6):
            s = Scenario(p, "split_by_cyclic_p", lambda_bound=lam)
            assert bound(s).value == (lam + 1) * p - 1
        s2 = Scenario(p, "p_ext_lambda", deg_log=2, lambda_bound=1)
        assert bound(s2).value == 2 * p ** 2 - 1


def test_reference_rows():
    for p in (2, 3, 5, 13):
        for n in range(1, 10):
            assert rule_value("index_exp_power_reference",
                              Scenario(p, "index", n=n)) == p ** n - 1
            for e in range(1, n + 1):
                assert rule_value("cyclic_exp_power_reference",
                                  Scenario(p, "cyclic_deg", n=n, e=e)) == p ** (n - e)


def test_conditional_marking():
    s = Scenario(3, "index", n=2, p_cyclic_reducible=True)
    report = bound(s)
    entry = next(e for e in report.chain if e["rule"] == "index_cyclic_reducible")
    assert entry["value"] == 2 * 3 - 1 and entry.get("conditional")
    # without the flag the rule stays silent for p > 2
    s2 = Scenario(3, "index", n=2)
    assert all(e["rule"] != "index_cyclic_reducible" for e in bound(s2).chain)
    # for p = 2 it is unconditional
    s3 = Scenario(2, "index", n=2)
    entry3 = next(e for e in bound(s3).chain if e["rule"] == "index_cyclic_reducible")
    assert not entry3.get("conditional")


def test_monotone_in_the_hypothesis():
    for p in (2, 3, 5):
        prev = 0
        for n in range(1, 21):
            value = chain_value(bound(Scenario(p, "split_by_p_extension", n=n)),
                                "p_ext_split")
            assert value >= prev
            prev = value


def test_improvement_strictly_beats_generic_from_three_steps():
    for n in range(3, 21):
        improved = 5 * 2 ** (n - 3) - 1
        generic = 2 * 2 ** (n - 1) - 1
        assert improved < generic
        report = bound(Scenario(2, "split_by_p_extension", n=n))
        assert report.value == improved


def test_chain_iteration_reproduces_the_two_per_level_formula():
    for p in (2, 3, 5, 7):
        for n in range(1, 11):
            assert chain_iteration_bound(p, n - 1, start=1) == 2 * p ** (n - 1) - 1


def test_no_applicable_rule():
    with pytest.raises(NoApplicableRule):
        bound(Scenario(5, "insep_lambda"))  # missing parameters
    with pytest.raises(ValueError, match="^unknown scenario kind 'nonsense'$"):
        Scenario(2, "nonsense")
    with pytest.raises(ValueError, match="^the prime must be at least 2$"):
        Scenario(1, "index")
    for n, e in ((-1, 1), (1, 0)):
        with pytest.raises(ValueError, match="^scenario parameters must be positive$"):
            Scenario(2, "index", n=n, e=e)


def test_report_annotations_are_not_shared():
    first, second = BoundReport(1, "r", []), BoundReport(1, "r", [])
    first.annotations.append("note")
    assert second.annotations == [] and first.annotations == ["note"]


def test_scenario_json_round():
    doc = {"p": 2, "kind": "split_by_p_extension", "n": 3,
           "flags": {"p_cyclic_reducible": True}}
    s = scenario_from_json(doc)
    assert s.p == 2 and s.n == 3 and s.p_cyclic_reducible
    assert bound(s).value == 4
