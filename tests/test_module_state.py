"""No module in ``src/charp`` keeps a module-level container it fills at run
time, and importing the package fills none of its process-wide caches.

Memo caches live on the interned towers and their rings (``poly._memo``);
a module-level ``{}``, ``[]``, ``dict()`` or ``set()`` would be
process-wide state that no tower owns.  The tower registry itself is the
one exemption.  Since every tower's memo starts empty in a fresh process,
a subprocess also shows what one search builds on its towers.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charp"
EXEMPT = {("towers.py", "_TOWERS")}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set") and not node.args and not node.keywords)


def _module_level_empty_containers():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not _is_empty_container(value):
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and (path.name, name.id) not in EXEMPT:
                        yield "%s:%d %s" % (path.name, stmt.lineno, name.id)


def test_no_module_level_empty_container():
    found = list(_module_level_empty_containers())
    assert not found, "module-level containers outside the tower registry:\n" + "\n".join(found)


def test_import_builds_no_field_or_tower():
    # Import time is part of every process's set-up: importing the package
    # must build no finite field tables, search no modulus and intern no
    # tower; all of that happens on first use.
    script = ("import charp\n"
              "from charp import ffield, towers\n"
              "print(ffield._exp_log_tables.cache_info().currsize,"
              " ffield.canonical_modulus.cache_info().currsize,"
              " ffield._int_field.cache_info().currsize, len(towers._TOWERS))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "0", "0"]


def test_import_loads_no_record_machinery():
    # The package's records are plain classes: importing it and its CLI
    # loads neither ``dataclasses`` nor the ``inspect`` machinery that
    # ``dataclasses`` pulls in, which costs every process its start-up time.
    script = ("import sys\n"
              "import charp, charp.cli\n"
              "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize',"
              " 'copy'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_norm_resolvent_builds_no_fraction_pool():
    # The characteristic-2 resolvent walks its candidates by numerator and
    # wraps only the hit in a fraction: in a fresh process the quadratic
    # witness-only search to bound 2 finds its witness without building the
    # height-2 pool of 3612 fractions.
    script = ("from charp import towers\n"
              "from charp.textform import format_elem, parse_element, parse_tower\n"
              "T = parse_tower('GF(2)(t1,t2) ; AS w: w^2+w = 1/t1')\n"
              "z = towers.solve_norm(parse_element('t1*t2^2', T, 0), 2)\n"
              "print(format_elem(z), ('pool', 2) in towers.truncate(T, 0).memo)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["(t1*t2)*w", "False"]
