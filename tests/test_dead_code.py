"""Every class, function and method defined in ``src/charp`` has a caller,
and every private one has a caller in the package itself.

A name counts as used when it appears in ``src/charp``, ``tests`` or
``perfbench`` more often than it is defined in ``src/charp``: as a call, an
import, a reference, or inside a string (the benchmark's tracer resolves
names from strings).  Comments and docstrings do not count: they describe
code, they do not use it.  Matching is by name, so same-named definitions
share their uses.  A method named like a Python builtin (``sorted``,
``pow``) counts only its attribute uses ``.name``, because a bare name is
the builtin.  Dunder methods are exempt: the
language calls them.

A private name (one leading underscore) is no API: when only tests or the
benchmark name it, it is dead code that the package keeps for them.  Such a
name fails unless ``TEST_ONLY_PRIVATE`` lists it with the reason.  A public
name that the package names nowhere but in the exports of ``__init__`` is
API that only tests or the benchmark reach; it fails unless
``TEST_ONLY_PUBLIC`` lists it with the reason it is kept.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charp"
SEARCHED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ATTRIBUTE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)")

# private name -> why the package keeps it although only tests or the
# benchmark name it
TEST_ONLY_PRIVATE: dict = {}

# public name -> why the package keeps it although nothing in it calls it
TEST_ONLY_PUBLIC = {
    "local_invariant": "the per-place reference that the residue oracle "
                       "test compares the support-wide computation against",
    "rule_value": "the calculator's per-rule value, behind the acceptance "
                  "criteria's constants",
    "chain_iteration_bound": "the chain-iteration identity of the "
                             "acceptance criteria",
    "index_exponent": "documented API: the index-exponent relation of an "
                      "invariant vector",
    "insep_splitting_field": "documented API: the inseparable splitting "
                             "tower of one cyclic symbol",
}


def _definitions():
    """(module, qualified name, bare name, line number) for every class and
    def."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(node, "") for node in tree.body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                yield path, prefix + node.name, node.name, node.lineno
                stack.extend((child, prefix + node.name + ".") for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, prefix + node.name, node.name, node.lineno
                stack.extend((child, prefix + node.name + ".") for child in node.body)


def _builtin_methods():
    """The names of the package's methods that a Python builtin shares."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                out.update(child.name for child in node.body
                           if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and hasattr(builtins, child.name))
    return out


def _docstring_starts(source: str) -> set:
    """The (row, column) where each docstring of a module source starts:
    the string that opens a module, class or function body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add((first.lineno, first.col_offset))
    return out


def _word_counts(roots=SEARCHED, skip=()):
    """Occurrences of each identifier-like word in the code and strings of
    the given trees, docstrings left out, but for the files ``skip``.  A
    name of ``_builtin_methods`` counts only after a dot or ``def``."""
    attribute_only = _builtin_methods()
    counts: Counter = Counter()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path in skip:
                continue
            source = path.read_text()
            docstrings = _docstring_starts(source)
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            prev = None
            for tok in tokens:
                if tok.type == tokenize.NAME:
                    if tok.string not in attribute_only or prev in (".", "def"):
                        counts[tok.string] += 1
                elif tok.type == tokenize.STRING and tok.start not in docstrings:
                    counts.update(w for w in _WORD.findall(tok.string)
                                  if w not in attribute_only)
                    counts.update(w for w in _ATTRIBUTE.findall(tok.string)
                                  if w in attribute_only)
                if tok.type in (tokenize.NAME, tokenize.OP):
                    prev = tok.string
    return counts


def test_every_definition_is_named_elsewhere():
    definitions = list(_definitions())
    defined = Counter(name for _, _, name, _ in definitions)
    counts = _word_counts()
    unused = ["%s:%d %s" % (path.relative_to(ROOT), lineno, qualname)
              for path, qualname, name, lineno in definitions
              if not (name.startswith("__") and name.endswith("__"))
              and counts[name] == defined[name]]
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)


def test_private_definitions_are_named_in_the_package():
    definitions = list(_definitions())
    defined = Counter(name for _, _, name, _ in definitions)
    counts = _word_counts((PACKAGE,))
    outside_only = ["%s:%d %s" % (path.relative_to(ROOT), lineno, qualname)
                    for path, qualname, name, lineno in definitions
                    if name.startswith("_") and not name.startswith("__")
                    and counts[name] == defined[name] and name not in TEST_ONLY_PRIVATE]
    assert not outside_only, ("private, but named only outside src/charp:\n"
                              + "\n".join(outside_only))
    assert set(TEST_ONLY_PRIVATE) <= set(defined), "allowlisted names that are gone"


def test_public_definitions_are_named_in_the_package():
    definitions = list(_definitions())
    defined = Counter(name for _, _, name, _ in definitions)
    counts = _word_counts((PACKAGE,), skip=(PACKAGE / "__init__.py",))
    outside_only = ["%s:%d %s" % (path.relative_to(ROOT), lineno, qualname)
                    for path, qualname, name, lineno in definitions
                    if not name.startswith("_")
                    and counts[name] == defined[name] and name not in TEST_ONLY_PUBLIC]
    assert not outside_only, ("public, but named in src/charp only by its "
                              "definition or the exports:\n" + "\n".join(outside_only))
    assert set(TEST_ONLY_PUBLIC) <= set(defined), "allowlisted names that are gone"
