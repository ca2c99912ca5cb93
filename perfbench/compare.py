"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a file, or a directory of ``*.jsonl`` files,
written by ``run.py --out``.  For every workload and metric the command
prints each side's median and quartiles, the ratio CHANGE/PARENT with the
parent median as its base, and a verdict:

* ``improved``: the change wins at least nine tenths of the pairs (runs
  paired by seed, or in order when no seed is shared; ties count for
  neither) and the medians differ by more than the distance between the
  parent's quartiles;
* ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: neither, and the parent's own spread is wider than the
  bound, unless every change run is better than every parent run;
* ``unchanged``: none of the above;
* ``failed``: in place of ``improved`` when the change has an incorrect run
  or more failed items than the parent, because a faster wrong answer is
  not a gain.

Each side's incorrect runs and failed items are printed per workload.

Per-layer metrics have no bound; they are printed without a verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, trace): {seed: [report, ...]}} from a file or directory."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    out = defaultdict(lambda: defaultdict(list))
    for name in files:
        with open(name) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    out[(rec["workload"], rec["trace"])][rec["seed"]].append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_better, pairs, change_failed):
    q1, pm, q3 = quartiles(parent)
    cm = quartiles(change)[1]
    sign = 1 if lower_better else -1
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > q3 - q1:
        return "failed" if change_failed else "improved"
    if worse_by > bound:
        return "regressed"
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and (q3 - q1) / pm > bound and not every_better:
        return "unresolved"
    return "unchanged"


def metric_series(runs, section, name):
    return {seed: [r[section][name] for r in recs if name in r.get(section, {})]
            for seed, recs in runs.items()}


def failures(runs):
    """(incorrect runs, failed items) over a side's runs of one workload."""
    recs = [r for rs in runs.values() for r in rs]
    return (sum(1 for r in recs if not r["correct"]),
            sum(r["failed"] for r in recs))


def compare(parent, change, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines = []
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if key not in parent or key not in change:
            lines.append("%s (trace %d): only one side has results" % key)
            continue
        section = "per_layer" if trace else "end_to_end"
        names = sorted({n for recs in parent[key].values() for r in recs
                        for n in r.get(section, {})})
        lines.append("%s (trace %d): %d parent runs, %d change runs" % (
            workload, trace, sum(map(len, parent[key].values())),
            sum(map(len, change[key].values()))))
        p_bad, c_bad = failures(parent[key]), failures(change[key])
        lines.append("  incorrect runs: parent %d, change %d; failed items:"
                     " parent %d, change %d" % (p_bad[0], c_bad[0], p_bad[1], c_bad[1]))
        change_failed = c_bad[0] > 0 or c_bad[1] > p_bad[1]
        for name in names:
            ps, cs = metric_series(parent[key], section, name), metric_series(change[key], section, name)
            pv = [v for vs in ps.values() for v in vs]
            cv = [v for vs in cs.values() for v in vs]
            if not pv or not cv:
                continue
            common = sorted(set(ps) & set(cs))
            if common:
                pairs = [(p, c) for seed in common for p, c in zip(ps[seed], cs[seed])]
            else:   # no seed in common: pair the runs in the order they ran
                pairs = list(zip(pv, cv))
            pq, cq = quartiles(pv), quartiles(cv)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            text = "  %-40s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  ratio %.4f (base %.6g)" % (
                name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], ratio, pq[1])
            if not trace and name in bounds:
                m = bounds[name]
                text += "  %s" % verdict(pv, cv, m["bound"], m["better"] == "lower",
                                         pairs, change_failed)
            lines.append(text)
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for line in compare(load(argv[0]), load(argv[1]), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
