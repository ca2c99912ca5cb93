"""Record the digests the correctness gate compares against.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``: for ``reciprocity`` and ``drivers``
the digest of the canary items and of the default seed's first pass, and
for ``multivariate`` the digest of every variable renaming.  Each recorded
pass must also pass its per-item checks.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from run import run_worker  # noqa: E402


def record(root, workload, items):
    rec = run_worker(root, {"workload": workload, "items": items})
    if rec["failures"]:
        raise SystemExit("%s: items fail their checks: %s" % (workload, rec["failures"]))
    return rec["digest"]


def main():
    root = os.getcwd()
    out = {}
    for name in ("reciprocity", "drivers"):
        gen = wl.GENERATORS[name]
        out[name] = {
            "canary": record(root, name, gen(wl.DEFAULT_SEED, 0, wl.CANARY_ITEMS[name])),
            "pass0": record(root, name, gen(wl.DEFAULT_SEED, 0, wl.PASS_ITEMS[name])),
        }
    variants = {}
    for names in wl.MV_NAMES:
        items = wl.renamed_cases(names, wl.PASS_ITEMS["multivariate"])
        variants[",".join(names)] = record(root, "multivariate", items)
    out["multivariate"] = {"variants": variants}
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
