"""The README's command-line examples, and one "unknown" and one error case,
run through ``cli.main`` against pinned outputs.

Each directory under ``tests/golden`` is one case.  ``case.json`` holds the
argv as typed at the repository root and the exit code; ``stdout`` and
``stderr`` hold the exact output, and the input files that the argv names
sit beside them.  A case may list in ``writes`` the files the command
writes, each pinned by the file of that name in the directory, and in
``masked`` the timing fields (JSON keys and CSV columns) left out of the
comparison.  Everything else is compared character for character, line
terminators included.  The command runs in an empty directory, so what it
writes lands there.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from charp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())


def _read(path: Path) -> str:
    """The exact text of a file, line terminators untranslated."""
    with open(path, newline="") as handle:
        return handle.read()


def _masked(text: str, names) -> str:
    """``text`` with the numbers under the JSON keys ``names``, and the cells
    of the CSV columns headed by them, replaced by ``*``; every line keeps
    its terminator."""
    if not names:
        return text
    out, columns = [], None
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        end = line[len(body):]
        if body.startswith("{"):
            out.append(re.sub(r'"(%s)":\d+' % "|".join(names), r'"\1":*', body) + end)
            continue
        cells = next(csv.reader([body]))
        if columns is None:
            columns = [i for i, cell in enumerate(cells) if cell in names]
        else:
            cells = ["*" if i in columns else cell for i, cell in enumerate(cells)]
        out.append(",".join(cells) + end)
    return "".join(out)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    case_dir = GOLDEN / name
    case = json.loads((case_dir / "case.json").read_text())
    argv = [str(ROOT / arg) if arg.startswith("tests/golden/") else arg
            for arg in case["argv"]]
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    masked = case.get("masked", ())
    assert code == case["exit_code"]
    assert _masked(out, masked) == _masked(_read(case_dir / "stdout"), masked)
    assert err == _read(case_dir / "stderr")
    for written in case.get("writes", ()):
        assert (_masked(_read(tmp_path / written), masked)
                == _masked(_read(case_dir / written), masked))


def test_the_golden_cases_are_the_readme_examples():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = [line.strip() for line in section.splitlines()
                if line.startswith("charp ")]
    argvs = [json.loads((GOLDEN / name / "case.json").read_text())["argv"]
             for name in CASES]
    assert sorted(map(_quoted, argvs)) == sorted(examples)


def _quoted(argv) -> str:
    """``argv`` as the README writes it: double quotes around an argument
    with a space or a bracket."""
    return "charp " + " ".join('"%s"' % arg if re.search(r"[ \[(;]", arg) else arg
                               for arg in argv)
