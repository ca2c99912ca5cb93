"""Every function and method defined in ``src/charp`` has a caller.

A name counts as used when it appears in ``src/charp``, ``tests`` or
``perfbench`` more often than it is defined in ``src/charp``: as a call, an
import, a reference, or inside a string (the benchmark's tracer resolves
names from strings).  Comments do not count.  Matching is by name, so
same-named definitions share their uses.  Dunder methods are exempt: the
language calls them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charp"
SEARCHED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions():
    """(module, qualified name, bare name, line number) for every def."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(node, "") for node in tree.body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack.extend((child, prefix + node.name + ".") for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, prefix + node.name, node.name, node.lineno
                stack.extend((child, prefix + node.name + ".") for child in node.body)


def _word_counts():
    """Occurrences of each identifier-like word in the code and strings of
    the searched trees."""
    counts: Counter = Counter()
    for root in SEARCHED:
        for path in sorted(root.rglob("*.py")):
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            for tok in tokens:
                if tok.type in (tokenize.NAME, tokenize.STRING):
                    counts.update(_WORD.findall(tok.string))
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
