"""Upper-bound calculator for the number of degree-p symbols needed to
represent a Brauer class of exponent p, by hypothesis on the class.

Each rule carries a stable identifier, an applicability predicate over the
scenario, and an integer formula.  ``bound`` evaluates every applicable
rule and reports the minimum together with the full chain, so callers can
see which hypotheses were used; rules relying on cyclic reducibility of the
base field fire unconditionally only for p = 2 and are labeled conditional
when asserted by flag for larger primes.  The calculator never claims lower
bounds; the one known two-sided small-index result appears as an annotation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Scenario:
    """A hypothesis about a class of exponent p, plus optional attached data
    for the constructive drivers.

    kinds and their parameters:
      cyclic_deg          deg = p^n (and exponent p^e via ``e``, default 1)
      index               ind = p^n
      split_by_insep      split by an inseparable tower of degree p^n
      cyclic_after_insep  equivalent to one degree-p symbol over such a tower
      insep_lambda        over an inseparable tower of degree p^deg_log the
                          length drops to lambda_bound
      split_by_p_extension  split by a chain of degree-p cyclic steps, p^n
      split_by_cyclic_p   over one degree-p cyclic extension the length is
                          at most lambda_bound
      p_ext_lambda        over a degree-p^deg_log chain the length is at
                          most lambda_bound
    """

    def __init__(self, p: int, kind: str, n: int = 1, e: int = 1,
                 lambda_bound: Optional[int] = None, deg_log: Optional[int] = None,
                 p_cyclic_reducible: bool = False, attached: Optional[dict] = None):
        if p < 2:
            raise ValueError("the prime must be at least 2")
        if n < 0 or e < 1:
            raise ValueError("scenario parameters must be positive")
        if kind not in KINDS:
            raise ValueError("unknown scenario kind %r" % kind)
        self.p = p
        self.kind = kind
        self.n = n
        self.e = e
        self.lambda_bound = lambda_bound
        self.deg_log = deg_log
        self.p_cyclic_reducible = p_cyclic_reducible
        self.attached = attached


KINDS = ("cyclic_deg", "index", "split_by_insep", "cyclic_after_insep",
         "insep_lambda", "split_by_p_extension", "split_by_cyclic_p",
         "p_ext_lambda")


class Rule:
    def __init__(self, ident: str, applies: Callable[[Scenario], bool],
                 value: Callable[[Scenario], int],
                 conditional: Callable[[Scenario], bool] = lambda s: False,
                 note: str = ""):
        self.ident = ident
        self.applies = applies
        self.value = value
        self.conditional = conditional
        self.note = note


def _needs_reducibility(s: Scenario) -> bool:
    return s.p == 2 or s.p_cyclic_reducible


RULES: List[Rule] = [
    Rule("cyclic_degree_p2",
         lambda s: s.kind == "cyclic_deg" and s.n == 2 and s.e == 1,
         lambda s: s.p),
    Rule("cyclic_degree_power",
         lambda s: s.kind == "cyclic_deg" and s.n >= 1 and s.e == 1,
         lambda s: s.p ** (s.n - 1)),
    Rule("cyclic_exp_power_reference",
         lambda s: s.kind == "cyclic_deg" and 1 <= s.e <= s.n,
         lambda s: s.p ** (s.n - s.e),
         note="reference row; for e > 1 this is formula evaluation only"),
    Rule("index_exp_power_reference",
         lambda s: s.kind == "index" and s.n >= 1,
         lambda s: s.p ** s.n - 1,
         note="reference row"),
    Rule("index_char2",
         lambda s: s.kind == "index" and s.p == 2 and s.n >= 1,
         lambda s: 2 ** s.n - 1),
    Rule("index_cyclic_reducible",
         lambda s: s.kind == "index" and s.n >= 1 and _needs_reducibility(s),
         lambda s: 2 * s.p ** (s.n - 1) - 1,
         conditional=lambda s: s.p != 2,
         note="assumes the base field is p-cyclic reducible for p > 2"),
    Rule("index_8_two_sided",
         lambda s: s.kind == "index" and s.p == 2 and s.n == 3,
         lambda s: 4,
         note="cited two-sided bound: 3 <= length <= 4; no certificate"),
    Rule("index_small_char2",
         lambda s: s.kind == "index" and s.p == 2 and s.n <= 2,
         lambda s: s.n,
         note="classical equality for index at most 4"),
    Rule("albert_insep_split",
         lambda s: s.kind == "split_by_insep",
         lambda s: s.n),
    Rule("insep_cyclic_reduction",
         lambda s: s.kind == "cyclic_after_insep",
         lambda s: s.n + s.p - 1),
    Rule("insep_step_scaling",
         lambda s: (s.kind == "insep_lambda" and s.deg_log == 1
                    and s.lambda_bound is not None),
         lambda s: s.lambda_bound * s.p),
    Rule("insep_tower_scaling",
         lambda s: (s.kind == "insep_lambda" and s.deg_log is not None
                    and s.lambda_bound is not None),
         lambda s: (s.p ** s.deg_log) * s.lambda_bound),
    Rule("p_ext_split",
         lambda s: s.kind == "split_by_p_extension" and s.n >= 1,
         lambda s: 2 * s.p ** (s.n - 1) - 1),
    Rule("p_ext_split_char2_improved",
         lambda s: s.kind == "split_by_p_extension" and s.p == 2 and s.n >= 3,
         lambda s: 5 * 2 ** (s.n - 3) - 1,
         note="uses the cited index-8 bound; that sub-block has no certificate"),
    Rule("cyclic_step",
         lambda s: s.kind == "split_by_cyclic_p" and s.lambda_bound is not None,
         lambda s: (s.lambda_bound + 1) * s.p - 1),
    Rule("p_ext_chain",
         lambda s: (s.kind == "p_ext_lambda" and s.deg_log is not None
                    and s.lambda_bound is not None),
         lambda s: (s.lambda_bound + 1) * (s.p ** s.deg_log) - 1),
]

RULES_BY_ID: Dict[str, Rule] = {r.ident: r for r in RULES}


class BoundReport:
    def __init__(self, value: int, rule: str, chain: List[dict],
                 conditional: bool = False, annotations: Optional[List[str]] = None,
                 decomposition: Optional[object] = None):
        self.value = value
        self.rule = rule
        self.chain = chain
        self.conditional = conditional
        self.annotations = [] if annotations is None else annotations
        self.decomposition = decomposition

    def to_json(self) -> dict:
        doc = {
            "value": self.value,
            "rule": self.rule,
            "chain": self.chain,
            "conditional": self.conditional,
            "annotations": list(self.annotations),
        }
        if self.decomposition is not None:
            doc["decomposition"] = self.decomposition.to_json()
        return doc


class NoApplicableRule(ValueError):
    pass


def bound(s: Scenario) -> BoundReport:
    """The minimum over all applicable rules, with the chain recorded."""
    chain = []
    for rule in RULES:
        if not rule.applies(s):
            continue
        entry = {"rule": rule.ident, "value": rule.value(s)}
        if rule.conditional(s):
            entry["conditional"] = True
        if rule.note:
            entry["note"] = rule.note
        chain.append(entry)
    if not chain:
        raise NoApplicableRule("no rule covers scenario kind %r with these "
                               "parameters" % s.kind)
    best = min(chain, key=lambda su: (su["value"], su["rule"]))
    annotations = [e["note"] for e in chain if "note" in e and e is best]
    if s.kind == "index" and s.p == 2 and s.n == 3:
        annotations.append("lower bound 3 for index 8 (cited; annotation only)")
    return BoundReport(best["value"], best["rule"], chain,
                       conditional=bool(best.get("conditional")),
                       annotations=annotations)


def rule_value(ident: str, s: Scenario) -> int:
    """Evaluate one named rule on a scenario (it must apply)."""
    rule = RULES_BY_ID[ident]
    if not rule.applies(s):
        raise NoApplicableRule("rule %s does not apply" % ident)
    return rule.value(s)


def chain_iteration_bound(p: int, steps: int, start: int = 1) -> int:
    """Iterate length -> (length + 1) * p - 1 ``steps`` times from ``start``:
    the single-cyclic-step rule composed down a chain of that many steps."""
    length = start
    for _ in range(steps):
        length = (length + 1) * p - 1
    return length


def scenario_from_json(doc: dict) -> Scenario:
    flags = doc.get("flags", {})
    return Scenario(
        p=doc["p"],
        kind=doc["kind"],
        n=doc.get("n", 1),
        e=doc.get("e", 1),
        lambda_bound=doc.get("lambda_bound"),
        deg_log=doc.get("deg_log"),
        p_cyclic_reducible=bool(flags.get("p_cyclic_reducible", False)),
        attached={k: v for k, v in doc.items()
                  if k in ("tower", "expr", "cyclic", "lambda_expr", "f_level")}
        or None,
    )
