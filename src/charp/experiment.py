"""Randomized experiment harness.

A run takes a generator family, a trial count and a seed; every trial draws
an instance deterministically from a per-trial child seed, runs the family's
driver, asserts the achieved length against the calculator bound, replays
the certificate, and records one row.  Per-trial failures are recorded, not
fatal.  Output is a CSV table plus a JSON summary.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from typing import List

from . import towers as tw
from .bounds import Scenario, bound
from .descent import (DescentError, InsepTower, SearchConfig,
                      reduce_to_cyclic_step)
from .drivers import DriverError, decompose
from .ffield import FiniteField
from .oracle import expr_invariants
from .poly import Poly, RatFunc, factor_univariate
from .symbols import BrauerExpr, Symbol, reduce_expr
from .textform import _as_lhs, format_expr, format_ff, format_tower

FAMILIES = ("symbols", "merge_pipeline", "insep_cyclic", "cyclic_step",
            "cyclic_degree")


class ExperimentConfig:
    def __init__(self, family: str, trials: int, seed: int, p: int = 2,
                 constant_degree: int = 1, degree_cap: int = 3, norm_bound: int = 4):
        self.family = family
        self.trials = trials
        self.seed = seed
        self.p = p
        self.constant_degree = constant_degree
        self.degree_cap = degree_cap
        self.norm_bound = norm_bound

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        if "seed" not in doc:
            raise ValueError("experiment configs must carry an explicit seed")
        return ExperimentConfig(
            family=doc["family"],
            trials=int(doc["trials"]),
            seed=int(doc["seed"]),
            p=int(doc.get("p", 2)),
            constant_degree=int(doc.get("constant_degree", 1)),
            degree_cap=int(doc.get("degree_cap", 3)),
            norm_bound=int(doc.get("norm_bound", 4)),
        )


class TrialRow:
    def __init__(self, trial: int, scenario: str, bound_rule: str, bound: int,
                 achieved: int, certified: bool, runtime_ms: int, error: str = ""):
        self.trial = trial
        self.scenario = scenario
        self.bound_rule = bound_rule
        self.bound = bound
        self.achieved = achieved
        self.certified = certified
        self.runtime_ms = runtime_ms
        self.error = error

    def as_list(self):
        return [self.trial, self.scenario, self.bound_rule, self.bound,
                self.achieved, self.certified, self.runtime_ms, self.error]


CSV_HEADER = ["trial", "scenario", "bound_rule", "bound", "achieved",
              "certified", "runtime_ms", "error"]


class ExperimentReport:
    def __init__(self, config: ExperimentConfig, rows: List[TrialRow]):
        self.config = config
        self.rows = rows

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(row.as_list())
        return out.getvalue()

    def summary(self) -> dict:
        ok = [r for r in self.rows if not r.error]
        return {
            "family": self.config.family,
            "trials": len(self.rows),
            "succeeded": len(ok),
            "failed": len(self.rows) - len(ok),
            "all_within_bound": all(r.achieved <= r.bound for r in ok),
            "all_certified": all(r.certified for r in ok),
            "max_achieved": max((r.achieved for r in ok), default=0),
            "total_runtime_ms": sum(r.runtime_ms for r in self.rows),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, separators=(",", ":"))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    for trial in range(cfg.trials):
        rng = random.Random("%d:%d" % (cfg.seed, trial))
        started = time.time()
        try:
            row = _run_trial(cfg, trial, rng)
        except (DescentError, DriverError, tw.StepError, AssertionError) as err:
            row = TrialRow(trial, cfg.family, "-", -1, -1, False, 0, str(err)[:120])
        row.runtime_ms = int((time.time() - started) * 1000)
        rows.append(row)
    return ExperimentReport(cfg, rows)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def random_poly(rng: random.Random, ring, max_deg: int, nonzero: bool = False) -> Poly:
    field = ring.field
    while True:
        terms = {}
        for e in range(max_deg + 1):
            if rng.random() < 0.55:
                c = tuple(rng.randrange(field.p) for _ in range(field.d))
                if not field.is_zero(c):
                    terms[(e,)] = c
        f = Poly(ring, terms)
        if not (nonzero and f.is_zero()):
            return f


def random_ratfunc(rng: random.Random, ring, max_deg: int) -> RatFunc:
    num = random_poly(rng, ring, max_deg)
    den = random_poly(rng, ring, max_deg, nonzero=True)
    return RatFunc(num, den)


def random_radical_slot(rng: random.Random, ring, irr_deg: int = 2,
                        count: int = 2) -> RatFunc:
    """A product of at most ``count`` distinct monic irreducibles of degree
    at most ``irr_deg``: squarefree, so the slot stays a valid radicand, and
    small enough to keep norm searches and factorizations desk-sized."""
    chosen: dict = {}
    want = 1 + rng.randrange(count)
    attempts = 0
    while len(chosen) < want and attempts < 40:
        attempts += 1
        f = random_poly(rng, ring, irr_deg, nonzero=True)
        if f.is_constant():
            continue
        _, factors = factor_univariate(f)
        pi = sorted(factors, key=lambda q: (q.degree_in(0), str(q)))[0]
        chosen[pi] = True
    out = ring.one()
    for pi in chosen:
        out = out * pi
    if out.is_constant():
        out = ring.var(ring.variables[0])
    return RatFunc.from_poly(out)


def random_symbol(rng: random.Random, tower: tw.FieldTower,
                  degree_cap: int) -> Symbol:
    a = tw.Elem(tower, 0, random_ratfunc(rng, tower.ring, degree_cap))
    b = tw.Elem(tower, 0, random_radical_slot(rng, tower.ring))
    return Symbol(a, b)


def _base_tower(cfg: ExperimentConfig) -> tw.FieldTower:
    return tw.FieldTower(FiniteField(cfg.p, cfg.constant_degree), ["t"])


def _run_trial(cfg: ExperimentConfig, trial: int, rng: random.Random) -> TrialRow:
    if cfg.family == "symbols":
        return _trial_symbols(cfg, trial, rng)
    if cfg.family == "merge_pipeline":
        return _trial_merge(cfg, trial, rng)
    if cfg.family in _INSEP_REDUCTIONS:
        return _trial_insep_reduction(cfg, trial, rng, cfg.family)
    if cfg.family == "cyclic_step":
        return _trial_cyclic_step(cfg, trial, rng)
    raise DriverError("unknown experiment family %r" % cfg.family)


def _trial_symbols(cfg, trial, rng) -> TrialRow:
    """Reciprocity check on a random symbol."""
    tower = _base_tower(cfg)
    s = random_symbol(rng, tower, cfg.degree_cap)
    v = expr_invariants(BrauerExpr(tower, 0, [s]))
    if v.total() != 0:
        raise AssertionError("invariant entries do not sum to zero")
    return TrialRow(trial, "symbols", "reciprocity", 0, 0, True, 0)


def _trial_merge(cfg, trial, rng) -> TrialRow:
    """Additivity of invariants under the merge and normalize pipeline."""
    tower = _base_tower(cfg)
    s1 = random_symbol(rng, tower, cfg.degree_cap)
    s2 = Symbol(s1.a, tw.Elem(tower, 0, random_radical_slot(rng, tower.ring)))
    e = BrauerExpr(tower, 0, [s1, s2])
    before = expr_invariants(e)
    reduced = reduce_expr(e)
    if expr_invariants(reduced) != before:
        raise AssertionError("pipeline changed the invariant vector")
    return TrialRow(trial, "merge_pipeline", "reciprocity", e.length(),
                    reduced.length(), True, 0)


def _random_insep_scenario(cfg, rng):
    """A tower K = F(b^(1/p)), a class with slot-compatible invariants, and
    split cyclic data over the tower with a small norm witness."""
    tower = _base_tower(cfg)
    b1 = random_radical_slot(rng, tower.ring)
    K = InsepTower(tower)
    K.add(tw.Elem(tower, 0, b1))
    a0 = RatFunc.from_poly(random_poly(rng, tower.ring, cfg.degree_cap))
    A = BrauerExpr(K.tower, 0, [Symbol(tw.Elem(K.tower, 0, a0),
                                       tw.Elem(K.tower, 0, b1))])
    # split cyclic data: [x, Norm(z)) for small x, z
    top = K.top_level
    for _ in range(30):
        x = tw.Elem(K.tower, 0, random_ratfunc(rng, K.tower.ring, 1))
        x_top = tw.lift(x, top)
        try:
            ext = tw.make_step(K.tower, "artin_schreier",
                               tw.fresh_gen_name(K.tower), x_top)
        except tw.StepError:
            continue
        gen = tw.gen_elem(ext, top + 1)
        c0 = tw.lift(tw.Elem(ext, 0, random_ratfunc(rng, ext.ring, 1)), top + 1)
        z = tw.add(gen, c0)
        y = tw.norm(z, top)
        if y.is_zero():
            continue
        cyclic = Symbol(tw.rebind(x_top, K.tower), tw.rebind(y, K.tower))
        return K, A, cyclic
    raise DescentError("could not draw a nondegenerate cyclic instance")


# Row label -> (scenario kind, n, failure text of the bound check, failure
# text of the invariant check).  The texts land in the CSV error column.
_INSEP_REDUCTIONS = {
    # the class over K = F(b^(1/p)) with cyclic data over K
    "insep_cyclic": ("cyclic_after_insep", 1, "achieved length above the bound",
                     "decomposition changed the invariant vector"),
    # a supplied degree-p^2 cyclic presentation: one root step plus cyclic
    # data over it; the bound is p^(2-1) = p
    "cyclic_degree": ("cyclic_deg", 2, "achieved length above the cyclic-degree bound",
                      "driver changed the invariant vector"),
}


def _trial_insep_reduction(cfg, trial, rng, label: str) -> TrialRow:
    """Reduce a random class over an inseparable tower to a cyclic step and
    check the result against the bound for the scenario ``label`` names."""
    kind, n, above_bound, changed = _INSEP_REDUCTIONS[label]
    K, A, cyclic = _random_insep_scenario(cfg, rng)
    report = bound(Scenario(cfg.p, kind, n=n))
    out = reduce_to_cyclic_step(A, K, cyclic, SearchConfig(cfg.norm_bound))
    achieved = out.total_length()
    if achieved > report.value:
        raise AssertionError(above_bound)
    if expr_invariants(A) != expr_invariants(BrauerExpr(K.tower, 0, out.total().entries)):
        raise AssertionError(changed)
    return TrialRow(trial, label, report.rule, report.value, achieved, True, 0)


def _trial_cyclic_step(cfg, trial, rng) -> TrialRow:
    """A constant-field cyclic step: random single-symbol class with a
    polynomial left slot (its invariants then sit over the radical slot, so
    the derived inseparable tower can carry them), lifted presentation,
    full driver."""
    tower = _base_tower(cfg)
    field = tower.base_field
    c0 = None
    for cand in field.elements():
        if field.trace_to_prime(cand) != 0:
            c0 = cand
            break
    s = Symbol(tw.Elem(tower, 0,
                       RatFunc.from_poly(random_poly(rng, tower.ring, cfg.degree_cap))),
               tw.Elem(tower, 0, random_radical_slot(rng, tower.ring)))
    scn = Scenario(cfg.p, "split_by_cyclic_p", lambda_bound=1, attached={
        "tower": format_tower(tower) + " ; AS ic: %s = %s" % (
            _as_lhs("ic", cfg.p), format_ff(field, c0)),
        "expr": format_expr(BrauerExpr(tower, 0, [s])),
        "lambda_expr": format_expr(BrauerExpr(tower, 0, [s])),
    })
    res = decompose(scn, SearchConfig(cfg.norm_bound))
    before = expr_invariants(BrauerExpr(tower, 0, [s]))
    after = expr_invariants(res.expr.rebind(tower))
    if before != after:
        raise AssertionError("driver changed the invariant vector")
    return TrialRow(trial, "cyclic_step", res.report.rule, res.report.value,
                    res.achieved, True, 0)
