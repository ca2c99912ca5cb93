"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

TINY = {"reciprocity": 6, "drivers": 3, "multivariate": 2}


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_cli(script, *args):
    proc = subprocess.run([sys.executable, script, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, out = run_cli(os.path.join(BENCH, "run.py"), "--workload", workload,
                        "--seconds", "0", "--trace", str(trace),
                        "--items", str(TINY[workload]))
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[0] for line in out.splitlines()[:-1] if line.strip()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert name in printed, name


def test_tampered_digest_fails_the_run(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(copy / "expected.json") as fh:
        expected = json.load(fh)
    expected["reciprocity"]["canary"] = "0" * 64
    with open(copy / "expected.json", "w") as fh:
        json.dump(expected, fh)
    code, out = run_cli(str(copy / "run.py"), "--workload", "reciprocity",
                        "--seconds", "0", "--items", "3")
    assert code == 1, out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "GATE: canary digest" in out


def test_wrong_answer_counts_as_failure(monkeypatch):
    import charp.textform
    items = wl.reciprocity_items(1, 0, 3)
    job = {"root": ROOT, "workload": "reciprocity", "items": items}
    assert worker.run_job(job, wl)["failures"] == []
    monkeypatch.setattr(charp.textform, "format_invariant_vector",
                        lambda v: "{(t): 1/%d}" % v.p)
    result = worker.run_job(job, wl)
    assert [f[0] for f in result["failures"]] == [0, 1, 2]
    assert "sum to" in result["failures"][0][1]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "drivers", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["reciprocity", "drivers"])
def test_layer_self_times_fit_in_traced_wall(workload):
    items = wl.GENERATORS[workload](2, 0, TINY[workload])
    result = worker.run_job({"root": ROOT, "workload": workload, "items": items,
                             "trace": True}, wl)
    layers = result["trace"]
    total = sum(v for k, v in layers.items()
                if k.count(".") == 1 and k.endswith(".self_s"))
    assert 0 < total <= result["wall_s"]
    assert total + result["trace_outside_s"] <= result["wall_s"]


def test_absent_name_is_reported_not_fatal(monkeypatch):
    import charp.poly
    from layertrace import Tracer
    monkeypatch.delattr(charp.poly, "poly_divmod_1var")
    tracer = Tracer()
    tracer.install()
    try:
        absent = tracer.absent_metrics()
    finally:
        tracer.uninstall()
    assert set(absent) == {"poly.divmod_1var.calls", "poly.divmod_1var.self_s"}
    assert "poly_divmod_1var" in absent["poly.divmod_1var.calls"]
    assert tracer.metrics()["poly.divmod_1var.calls"] == 0


def test_full_runs_keep_ten_samples_beyond_the_tail_percentile():
    for name, (q, items) in wl.TAIL.items():
        assert q == 100 or items * (100 - q) / 100 >= 10, name


def test_inputs_depend_only_on_the_seed():
    for name, gen in wl.GENERATORS.items():
        assert gen(5, 1, 3) == gen(5, 1, 3)
        assert gen(wl.DEFAULT_SEED, 0, 2) == gen(wl.DEFAULT_SEED, 0, 3)[:2]
    assert wl.reciprocity_items(5, 0, 3) != wl.reciprocity_items(6, 0, 3)


def test_compare_verdicts_follow_the_pair_rule_and_bounds():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 8.0, 12.0]
    v = compare.verdict
    assert v(parent, faster, 0.25, True, list(zip(parent, faster)), False) == "improved"
    assert v(parent, slower, 0.25, True, list(zip(parent, slower)), False) == "regressed"
    assert v(parent, parent, 0.25, True, list(zip(parent, parent)), False) == "unchanged"
    assert v(noisy, noisy, 0.25, True, list(zip(noisy, noisy)), False) == "unresolved"
    assert v(parent, faster, 0.25, False, list(zip(parent, faster)), False) == "unchanged"
    assert v(parent, faster, 0.25, True, list(zip(parent, faster)), True) == "failed"


def _runs(walls, correct=True, failed=0):
    return {seed: [{"workload": "reciprocity", "trace": 0, "seed": seed,
                    "correct": correct, "failed": failed,
                    "end_to_end": {"wall_s": wall}}]
            for seed, wall in enumerate(walls)}


@pytest.mark.parametrize("correct,failed,want", [
    (True, 0, "improved"), (False, 0, "failed"), (True, 1, "failed")])
def test_compare_never_calls_a_wrong_answer_improved(correct, failed, want):
    walls = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    parent = {("reciprocity", 0): _runs(walls)}
    change = {("reciprocity", 0): _runs([w * 0.8 for w in walls], correct, failed)}
    lines = compare.compare(parent, change, bench_json())
    assert lines[1] == ("  incorrect runs: parent 0, change %d; failed items:"
                        " parent 0, change %d" % (0 if correct else 10, 10 * failed))
    assert lines[2].split()[0] == "wall_s" and lines[2].split()[-1] == want


def test_rationalize_hook_is_not_counted_as_a_towers_call():
    import charp.textform
    from layertrace import Tracer, _rationalize_hook
    tracer = Tracer()
    tracer.install()
    try:
        tower = charp.textform.parse_tower("GF(2)(t1,t2) ; ROOT r: r^2 = t1")
        tracer.reset(tracer.clock())
        _rationalize_hook(tracer, (tower, 1), None, None)
        assert tracer.calls["towers"] == 0
        assert len(tracer.structures) == 1
        assert tracer.last <= tracer.clock()
    finally:
        tracer.uninstall()
