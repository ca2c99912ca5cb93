import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from charp.cli import GRAMMAR_HELP, main
from charp.textform import ParseError, parse_tower


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_splits_nonsplit(capsys):
    code, out, _ = run(capsys, "splits", "[1, t)_2")
    assert code == 0
    assert out.strip() == "nonsplit: invariant 1/2 at (t)"


def test_splits_with_witness(capsys):
    code, out, _ = run(capsys, "splits", "[1/t, t)_2")
    assert code == 0
    assert out.strip() == "split: norm witness; witness t*w"


def test_splits_unknown_exit_code(capsys):
    code, out, _ = run(capsys, "splits", "--tower", "GF(2)(t1,t2)",
                       "--strategy", "norm_search", "[1/t1, t2)_2")
    assert code == 2
    assert out.strip() == "unknown: no witness within degree bound 1"


def test_invariants_text_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "--expr", "[1, t)_2")
    assert code == 0 and out.strip() == "{(t): 1/2, inf: 1/2}"
    code2, out2, _ = run(capsys, "invariants", "--expr", "[1, t)_2",
                         "--format", "json")
    doc = json.loads(out2)
    assert doc["p"] == 2 and len(doc["entries"]) == 2


def test_frobenius_command(capsys):
    code, out, _ = run(capsys, "frobenius", "--tower",
                       "GF(2)(t) ; ROOT s: s^2 = t", "--level", "1",
                       "--down", "0", "[s, s)_2")
    assert code == 0 and out.strip() == "[t, t)_2"


def test_bound_command(tmp_path, capsys):
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps({"p": 2, "kind": "split_by_p_extension", "n": 3}))
    code, out, _ = run(capsys, "bound", str(scn))
    assert code == 0
    assert out.splitlines()[0] == "4 via p_ext_split_char2_improved"


def test_decompose_and_verify_round_trip(tmp_path, capsys):
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps({
        "p": 2, "kind": "cyclic_after_insep", "n": 1,
        "tower": "GF(2)(t) ; ROOT r: r^2 = t",
        "expr": "[1, t)_2",
        "cyclic": "[1, r^2)_2",
    }))
    code, out, _ = run(capsys, "decompose", str(scn), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved"] <= doc["bound"]["value"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(doc["certificate"])
    code2, out2, _ = run(capsys, "verify", str(cert_path))
    assert code2 == 0 and out2.strip() == "accepted"
    # tamper: flip a witness
    cert = json.loads(doc["certificate"])
    tampered = False
    for step in cert["steps"]:
        if step["kind"] == "SplitNormWitness" and "z" in step["witnesses"]:
            step["witnesses"]["z"] = "1+t"
            tampered = True
            break
    if tampered:
        cert_path.write_text(json.dumps(cert, sort_keys=True, separators=(",", ":")))
        code3, out3, _ = run(capsys, "verify", str(cert_path))
        assert code3 != 0


def _without_timings(out):
    """The experiment output with the ``runtime_ms`` column (found by its
    header) and the summary's ``total_runtime_ms`` removed; everything
    else, the ``error`` column included, is kept."""
    *rows, summary = out.splitlines()
    table = list(csv.reader(rows))
    drop = table[0].index("runtime_ms")
    doc = json.loads(summary)
    del doc["total_runtime_ms"]
    return [r[:drop] + r[drop + 1:] for r in table], doc


def _assert_experiment_runs_twice_alike(tmp_path, capsys, config):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    code, out_a, _ = run(capsys, "experiment", str(cfg))
    code_b, out_b, _ = run(capsys, "experiment", str(cfg))
    assert code == code_b == 0
    rows, summary = _without_timings(out_a)
    assert len(rows) == config["trials"] + 1
    assert (rows, summary) == _without_timings(out_b)


def test_experiment_command_deterministic(tmp_path, capsys):
    _assert_experiment_runs_twice_alike(
        tmp_path, capsys, {"family": "symbols", "trials": 5, "seed": 2})


def test_experiment_command_deterministic_on_warm_memos(tmp_path, capsys):
    # the second run is served from the memos the first one filled
    _assert_experiment_runs_twice_alike(
        tmp_path, capsys, {"family": "insep_cyclic", "trials": 3, "seed": 4})


def test_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "splits", "[1, t")
    assert code == 1 and "error" in err
    code2, _, err2 = run(capsys, "bound", str(tmp_path / "missing.json"))
    assert code2 == 1
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps({"p": 2, "kind": "index", "n": 2,
                               "tower": "GF(2)(t)", "expr": "[1, t)_2"}))
    code3, _, err3 = run(capsys, "decompose", str(scn))
    assert code3 == 2 and "not completed" in err3


def _run_subprocess(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "charp.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("tower", ["GF(0)(t)", "GF(1)(t)"])
def test_field_size_below_two_is_an_error_not_a_traceback(tower):
    proc = _run_subprocess("invariants", "--tower", tower, "--expr", "[1, t)_2")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: constant field size must be a prime power (at position 0)"]
    assert "Traceback" not in proc.stderr


def test_integer_above_the_digit_limit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "splits", "--tower", "GF(2)(t)", "[%s, t)_2" % ("1" * 5000))
    assert code == 1 and out == ""
    assert err == "error: integer of 5000 digits is too long (at position 1)\n"


def test_help_documents_grammar(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "GF(q)(t)" in out and "[a, b)_p" in out


FORGED_MERGE = {"p": 2, "tower": "GF(2)(t)", "steps": [{
    "kind": "MergeSameA", "level_before": 0, "level_after": 0,
    "before": ["[1/t, t+1)_2"], "after": [], "witnesses": {"i": 0, "j": 0}}]}


def _with_step(**fields):
    doc = json.loads(json.dumps(FORGED_MERGE))
    doc["steps"][0].update(fields)
    return doc


@pytest.mark.parametrize("doc", [
    FORGED_MERGE,
    _with_step(before=["[1, t)_2", "[1, t+1)_2"], after=["[1, t^2+t)_2"],
               witnesses={"i": False, "j": True}),
    _with_step(kind="ASShift", before=["[1, t)_2"], after=["[1, t)_2"],
               witnesses={"c": 5, "index": 0}),
    _with_step(kind="ASShift", level_before="0", before=["[1, t)_2"],
               after=["[1, t)_2"], witnesses={"c": "0", "index": 0}),
    _with_step(before="[1/t, t+1)_2"),
    _with_step(witnesses=[0, 0]),
], ids=["self-merge", "bool-indices", "int-witness", "str-level", "str-entries",
        "list-witnesses"])
def test_verify_reports_forged_and_wrong_typed_steps_as_malformed(tmp_path, capsys, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("malformed at step 0: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["invariants", "--expr", "[1/(j+t1+t2), t1)_2"],
    ["splits", "--strategy", "invariants", "[1/(j+t1+t2), t1)_2"],
])
def test_a_tower_with_an_ext_step_is_an_error_not_a_traceback(command):
    # the cubic has the root t1+t2, so j+t1+t2 would be a zero divisor; the
    # parser refuses the step before any arithmetic
    proc = _run_subprocess(
        command[0], "--tower",
        "GF(2)(t1,t2) ; EXT j: j^3+(t1+t2+1)*j^2+(t2)*j+(t1^2+t1*t2) = 0",
        "--level", "1", *command[1:])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: expected 'AS g: ...' or 'ROOT g: ...' (at position 15)"]
    assert "Traceback" not in proc.stderr


def test_forged_merge_class_is_nonsplit(capsys):
    code, out, _ = run(capsys, "splits", "--strategy", "invariants", "[1/t, t+1)_2")
    assert code == 0 and out.strip() == "nonsplit: invariant 1/2 at (t)"


def test_verify_reports_a_missing_step_field_without_traceback(tmp_path, capsys):
    doc = json.loads(json.dumps(FORGED_MERGE))
    del doc["steps"][0]["level_before"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.strip() == "error: malformed certificate: KeyError: 'level_before'"


def test_verify_reports_a_tower_with_an_ext_step_as_malformed(tmp_path, capsys):
    # the step's cubic has the root t1+t2; the tower text is refused
    entry = "[1/(j+t1+t2), t1)_2"
    doc = {"p": 2, "tower": "GF(2)(t1,t2) ; EXT j: j^3+(t1+t2+1)*j^2+(t2)*j+(t1^2+t1*t2) = 0",
           "steps": [{"kind": "Reorder", "level_before": 1, "level_after": 1,
                      "before": [entry], "after": [entry],
                      "witnesses": {"perm": [0]}}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == (
        "malformed: bad tower: expected 'AS g: ...' or 'ROOT g: ...' (at position 15)\n")
    assert "Traceback" not in err


def test_the_grammar_help_names_exactly_the_step_keywords_the_parser_accepts():
    help_text = " ".join(GRAMMAR_HELP.split())
    named = re.findall(r"; ([A-Z]+) [a-z]\w*:", help_text)
    assert named == ["AS", "ROOT"]
    # the help's tower example parses, one step of each kind
    example = re.search(r"towers: (GF\(q\)\(t\)[^,]*),", help_text).group(1)
    tower = parse_tower(example.replace("GF(q)", "GF(2)"))
    assert [step.kind for step in tower.steps] == ["artin_schreier", "insep_root"]
    # any other keyword is refused, by a message naming the same keywords
    for word in ["EXT", "SIMPLE", "Root", "as"]:
        with pytest.raises(ParseError) as err:
            parse_tower("GF(2)(t) ; %s j: j^2 = t" % word)
        assert re.findall(r"'([A-Z]+) g: \.\.\.'", err.value.message) == named
