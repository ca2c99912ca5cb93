"""Which lines of ``src/charp`` the pytest suite never runs.

Run from the root of the checkout, on demand (it is not a test module, so
the suite does not collect it; under tracing the suite takes several times
as long):

    python tests/line_map.py            # the whole of tests/
    python tests/line_map.py -k towers  # extra arguments go to pytest

It runs pytest in this process under ``sys.settrace``, recording the lines
executed in ``src/charp``, then prints the executable lines that never
ran, each under the outermost function (or module) whose code runs it, and
last the count of executable lines reached.  Tests that start a fresh
interpreter are not traced, so the true share is a little higher.
"""

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "charp")


def _code_lines(code, out):
    """Map each executable line of code, and of the code objects nested in
    it, to the qualified name of the outermost of them that runs it."""
    for _, _, line in code.co_lines():
        if line is not None:
            out.setdefault(line, getattr(code, "co_qualname", code.co_name))
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)
    return out


def executable_lines():
    """{path: {line: qualified name of the function it belongs to}}."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as f:
                code = compile(f.read(), path, "exec")
            out[path] = _code_lines(code, {})
    return out


def main(argv):
    import pytest

    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
                             + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = reached = 0
    for path, lines in executable_lines().items():
        missed = defaultdict(list)
        for line, func in sorted(lines.items()):
            total += 1
            if line in hits[path]:
                reached += 1
            else:
                missed[func].append(line)
        for func, where in missed.items():
            print("%s:%s: %s" % (os.path.relpath(path, ROOT), func,
                                 ", ".join(map(str, where))))
    print("reached %d of %d executable lines of src/charp" % (reached, total))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
