"""The three workloads: input generation, one item of work, and its check.

Input generation runs in the benchmark's parent process and never imports
``charp``: the program receives only the generated inputs, as text.  The
item functions run in a worker process and reach the package through module
attributes looked up at call time, so the tracer's wrappers are seen.

Why these workloads:

* ``reciprocity`` drives the univariate oracle path (``ffield``, the ``poly``
  divmod/gcd/factor path, ``invariants``) on symbols that share no work, so
  the memo caches miss.  ``towers``, ``certify`` and ``descent`` do almost
  nothing here.
* ``drivers`` drives ``towers``/``rationalize``/``symbols``/``descent``/
  ``certify`` with heavy reuse of tower structures inside one process, and
  builds and replays a certificate per trial.
* ``multivariate`` spends nearly all its time in multivariate ``poly_gcd``
  and ``RatFunc`` reduction under the characteristic-2 norm resolvent, and
  never calls the invariant oracle.
"""

from __future__ import annotations

import csv
import io
import random
import re
from fractions import Fraction

WORKLOADS = ("reciprocity", "drivers", "multivariate")

DEFAULT_SEED = 0

# Items per pass.  A pass runs in one fresh worker process.
PASS_ITEMS = {"reciprocity": 300, "drivers": 48, "multivariate": 3}

# Percentile behind latency_tail_ms, and the items a run needs so that at
# least ten lie beyond it.  Three multivariate items have no such percentile,
# so there it is the slowest item.
TAIL = {"reciprocity": (99, 1000), "drivers": (90, 100), "multivariate": (100, 0)}

# Items of the default seed's first pass replayed by every run of a workload
# with an open-ended input space, and compared with the recorded digest.
CANARY_ITEMS = {"reciprocity": 30, "drivers": 6}

# -- reciprocity ---------------------------------------------------------------

RECIPROCITY_FIELDS = ((2, 1), (3, 1), (2, 2))   # GF(2)(t), GF(3)(t), GF(4)(t)


def _ff_text(rng, p, d):
    digits = [rng.randrange(p) for _ in range(d)]
    parts = []
    for e in range(d - 1, -1, -1):
        c = digits[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            parts.append(("" if c == 1 else "%d*" % c) + ("g" if e == 1 else "g^%d" % e))
    return "+".join(parts)


def _poly_text(rng, p, d, max_deg, nonzero):
    """A random polynomial in t of degree at most max_deg, each coefficient
    present with probability 0.6: the shape of acceptance criterion 2."""
    while True:
        terms = []
        for e in range(max_deg, -1, -1):
            if rng.random() >= 0.6:
                continue
            c = _ff_text(rng, p, d)
            if not c:
                continue
            mon = "" if e == 0 else ("t" if e == 1 else "t^%d" % e)
            if not mon:
                terms.append("(%s)" % c)
            elif c == "1":
                terms.append(mon)
            else:
                terms.append("(%s)*%s" % (c, mon))
        if terms:
            return "+".join(terms)
        if not nonzero:
            return "0"


def reciprocity_items(seed, pass_index, count):
    rng = random.Random("reciprocity:%d:%d" % (seed, pass_index))
    items = []
    for i in range(count):
        p, d = RECIPROCITY_FIELDS[i % len(RECIPROCITY_FIELDS)]
        a = "(%s)/(%s)" % (_poly_text(rng, p, d, 3, False), _poly_text(rng, p, d, 3, True))
        b = "(%s)/(%s)" % (_poly_text(rng, p, d, 3, True), _poly_text(rng, p, d, 3, True))
        items.append({"field": "GF(%d)(t)" % p ** d, "p": p,
                      "symbol": "[%s, %s)_%d" % (a, b, p)})
    return items


def check_reciprocity(item, out):
    """The invariant vector text must have entries summing to zero mod 1."""
    text = out["output"]
    if not (text.startswith("{") and text.endswith("}")):
        return "malformed invariant vector %r" % text
    total = Fraction(0)
    body = text[1:-1].strip()
    for entry in body.split(", ") if body else []:
        _, _, value = entry.rpartition(": ")
        num, _, den = value.partition("/")
        if not (num.isdigit() and den == str(item["p"])):
            return "malformed invariant entry %r" % entry
        total += Fraction(int(num), int(den))
    if total.denominator != 1:
        return "invariants sum to %s, not 0" % (total % 1)
    return None


# -- drivers -------------------------------------------------------------------

DRIVER_FAMILIES = ("cyclic_step", "insep_cyclic", "cyclic_degree")


def drivers_items(seed, pass_index, count):
    rng = random.Random("drivers:%d:%d" % (seed, pass_index))
    return [{"family": DRIVER_FAMILIES[i % len(DRIVER_FAMILIES)],
             "seed": rng.randrange(2 ** 31)} for i in range(count)]


def check_drivers(item, out):
    """The CSV row must be a success, within its bound and certified."""
    row = next(csv.DictReader(io.StringIO(out["output"])))
    if row["error"]:
        return "failed row: %s" % row["error"]
    if row["scenario"] != item["family"]:
        return "row for scenario %r, expected %r" % (row["scenario"], item["family"])
    if int(row["achieved"]) > int(row["bound"]) or int(row["achieved"]) < 0:
        return "achieved %s above the bound %s" % (row["achieved"], row["bound"])
    if row["certified"] != "True":
        return "trial not certified"
    return None


# -- multivariate --------------------------------------------------------------

MV_BASE = "GF(2)(t1,t2) ; ROOT r: r^2 = t1"

# The three witness-only runs of acceptance criterion 8, light ones first.
MV_CASES = (
    {"case": "norm-witness-in-base", "kind": "reduce",
     "tower": MV_BASE, "radicand": "t1",
     "expr": "[1/t2, t1)_2 * [1/t1, t2)_2",
     "cyclic_a": "1/t1", "cyclic_b": "t2", "norm_bound": None, "bound": 2,
     "cyclic_bound": 1},
    {"case": "albert", "kind": "decompose",
     "tower": "GF(2)(t1,t2) ; ROOT r: r^2 = t1 ; ROOT u: u^2 = t2",
     "expr": "[1/t2, t1)_2 * [1/t1, t2)_2", "n": 2},
    {"case": "norm-witness-quadratic", "kind": "reduce",
     "tower": MV_BASE, "radicand": "t1",
     "expr": "[1/t2, t1)_2 * [1/t1, t1*t2)_2",
     "cyclic_a": "1/r", "cyclic_b": "r*t2", "norm_bound": 2, "bound": 2,
     "cyclic_bound": 1},
)

# Renamings of t1, t2 the seed chooses from.  Each keeps the order of the
# variable names among themselves and against the generator names r, u and
# w..., so the work is the same and only the texts differ.  GF(2)-affine
# changes of variables (t1 -> t1+1, the swap t1 <-> t2) are not among them:
# they move the quadratic case from 17-19 s up to 38 s, more than a run can
# average (see README.md).
MV_NAMES = (("t1", "t2"), ("t3", "t4"), ("s1", "s2"), ("s", "t"),
            ("ta", "tb"), ("sa", "sb"))


def mv_names(seed):
    """The variable names for a seed; the default seed keeps t1, t2."""
    if seed == DEFAULT_SEED:
        return MV_NAMES[0]
    return MV_NAMES[random.Random("multivariate:%d" % seed).randrange(len(MV_NAMES))]


def _rename(text, names):
    image = {"t1": names[0], "t2": names[1]}
    return re.sub(r"\bt[12]\b", lambda m: image[m.group(0)], text)


def multivariate_items(seed, pass_index, count):
    return renamed_cases(mv_names(seed), count)


def renamed_cases(names, count):
    """The first ``count`` cases with t1, t2 renamed to ``names``."""
    items = []
    for case in MV_CASES[:count]:
        item = dict(case, variant=",".join(names))
        for key in ("tower", "expr", "radicand", "cyclic_a", "cyclic_b"):
            if item.get(key) is not None:
                item[key] = _rename(item[key], names)
        items.append(item)
    return items


def check_multivariate(item, out):
    if out["case"] != item["case"]:
        return "case %r, expected %r" % (out["case"], item["case"])
    if out["length"] > out["bound"]:
        return "length %d above the bound %d" % (out["length"], out["bound"])
    if item.get("cyclic_bound") is not None and out["cyclic_length"] > item["cyclic_bound"]:
        return "cyclic part of length %d above %d" % (out["cyclic_length"], item["cyclic_bound"])
    if not out["accepted"]:
        return "certificate rejected on replay"
    if not out["witness_only"]:
        return "a check used the invariant oracle"
    return None


GENERATORS = {"reciprocity": reciprocity_items, "drivers": drivers_items,
              "multivariate": multivariate_items}
CHECKS = {"reciprocity": check_reciprocity, "drivers": check_drivers,
          "multivariate": check_multivariate}


# -- worker side ---------------------------------------------------------------

def setup(workload, items):
    """Everything the timed phase needs: the package, fields and towers."""
    import charp  # noqa: F401  (the import is part of set-up)
    from charp import textform
    ctx = {"towers": {}}
    if workload == "reciprocity":
        for item in items:
            if item["field"] not in ctx["towers"]:
                ctx["towers"][item["field"]] = textform.parse_tower(item["field"])
    elif workload == "multivariate":
        for item in items:
            if item["kind"] == "reduce" and item["tower"] not in ctx["towers"]:
                ctx["towers"][item["tower"]] = textform.parse_tower(item["tower"])
    return ctx


def run_reciprocity(ctx, item):
    import charp
    tower = ctx["towers"][item["field"]]
    expr = charp.textform.parse_expr(item["symbol"], tower)
    vector = charp.oracle.expr_invariants(expr)
    return {"output": charp.textform.format_invariant_vector(vector)}


def run_drivers(ctx, item):
    import charp
    cfg = charp.experiment.ExperimentConfig(
        item["family"], trials=1, seed=item["seed"], degree_cap=2, norm_bound=3)
    report = charp.experiment.run_experiment(cfg)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    drop = rows[0].index("runtime_ms")
    out = io.StringIO()
    csv.writer(out).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return {"output": out.getvalue()}


def run_multivariate(ctx, item):
    import charp
    tw, tf, descent = charp.towers, charp.textform, charp.descent
    if item["kind"] == "decompose":
        scn = charp.bounds.Scenario(2, "split_by_insep", n=item["n"], attached={
            "tower": item["tower"], "expr": item["expr"]})
        res = charp.drivers.decompose(scn)
        cert, case = res.certificate, res.case
        length, bound, labels = res.achieved, res.report.value, res.labels
        cyclic_length = None
    else:
        base = tw.truncate(ctx["towers"][item["tower"]], 0)
        K = descent.InsepTower(base)
        K.add(tf.parse_element(item["radicand"], base), "r")
        A = tf.parse_expr(item["expr"], K.tower)
        cyclic = charp.symbols.Symbol(tf.parse_element(item["cyclic_a"], K.tower, 1),
                                      tf.parse_element(item["cyclic_b"], K.tower, 1))
        if item["norm_bound"] is None:
            out = descent.reduce_to_cyclic_step(A, K, cyclic)
        else:
            out = descent.reduce_to_cyclic_step(
                A, K, cyclic, descent.SearchConfig(norm_bound=item["norm_bound"]))
        cert, case, labels = out.certificate, out.case, out.labels
        length, bound = out.total_length(), item["bound"]
        cyclic_length = out.cyclic_part.length()
    accepted = bool(charp.certify.verify_certificate(cert).accepted)
    return {"output": case + "\n" + cert.to_json(), "case": case,
            "length": length, "bound": bound, "cyclic_length": cyclic_length,
            "accepted": accepted,
            "witness_only": all(l.method != "oracle" for l in labels)}


RUNNERS = {"reciprocity": run_reciprocity, "drivers": run_drivers,
           "multivariate": run_multivariate}
