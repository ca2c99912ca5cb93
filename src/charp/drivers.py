"""Constructive drivers: run the recursions behind the numeric bounds on
attached algebra data and emit verified certificates.

Supported scenario kinds (others have calculator entries only):

* split_by_insep: direct decomposition over the attached inseparable tower;
* cyclic_after_insep: the tower-plus-cyclic-symbol reduction (also used for
  degree-p^2 cyclic classes presented that way);
* split_by_cyclic_p: a constant-field cyclic step; the driver builds the
  inseparable splitting tower from the minimal polynomials of the radical
  slots, presents the class cyclically over it, and reduces.

Every driver asserts achieved length <= the calculator's bound.  Its
certificate comes from ``descent.certify_equivalence``, which replays it
through the verifier once, when it is emitted.
"""

from __future__ import annotations

from typing import List, Tuple

from . import towers as tw
from .bounds import BoundReport, Scenario, bound
from .descent import (CheckLabel, DecompositionResult, InsepTower, SearchConfig,
                      albert_decompose, reduce_to_cyclic_step)
from .oracle import backend_for, expr_invariants, expr_is_split
from .symbols import BrauerExpr, Symbol
from .textform import format_expr, parse_expr, parse_symbol, parse_tower


class DriverError(RuntimeError):
    pass


class DriveResult:
    def __init__(self, report: BoundReport, expr: BrauerExpr, certificate: object,
                 achieved: int, labels: List[CheckLabel], case: str = ""):
        self.report = report
        self.expr = expr
        self.certificate = certificate
        self.achieved = achieved
        self.labels = labels
        self.case = case

    def to_json(self) -> dict:
        return {
            "bound": self.report.to_json(),
            "expr": format_expr(self.expr),
            "achieved": self.achieved,
            "case": self.case,
            "labels": [l.to_json() for l in self.labels],
            "certificate": self.certificate.to_json(),
        }


def _attached(scenario: Scenario) -> dict:
    if not scenario.attached:
        raise DriverError("scenario has no attached algebra data to decompose")
    return scenario.attached


def _load_context(scenario: Scenario) -> Tuple[tw.FieldTower, int, BrauerExpr]:
    data = _attached(scenario)
    tower = parse_tower(data["tower"])
    f_level = int(data.get("f_level", 0))
    expr = parse_expr(data["expr"], tower, f_level)
    return tower, f_level, expr


def decompose(scenario: Scenario, cfg: SearchConfig = SearchConfig()) -> DriveResult:
    """Dispatch the constructive driver for a scenario with attached data."""
    report = bound(scenario)
    if scenario.kind == "split_by_insep":
        result = _drive_albert(scenario)
    elif scenario.kind in ("cyclic_after_insep", "cyclic_deg"):
        result = _drive_cyclic_reduction(scenario, cfg)
    elif scenario.kind == "split_by_cyclic_p":
        result = _drive_cyclic_step(scenario, cfg)
    else:
        raise DriverError("no constructive driver for scenario kind %r; "
                          "the calculator bound still applies" % scenario.kind)
    expr, cert, labels, case = result
    achieved = expr.length()
    if achieved > report.value:
        raise AssertionError(
            "driver produced %d symbols, above the bound %d (rule %s)"
            % (achieved, report.value, report.rule))
    report.decomposition = DecompositionResult(expr, cert, achieved, [], labels)
    return DriveResult(report, expr, cert, achieved, labels, case)


def _insep_chain(tower: tw.FieldTower, f_level: int, error: str) -> InsepTower:
    """The steps of ``tower`` above ``f_level`` as an InsepTower over the
    level; DriverError(error) when one of them is not a root step."""
    K = InsepTower(tw.truncate(tower, f_level))
    for lvl in range(f_level + 1, tower.depth + 1):
        step = tower.step_at(lvl)
        if step.kind != "insep_root":
            raise DriverError(error)
        K.add(tw.descend(tw.step_defining_elem(tower, lvl), f_level), step.gen)
    return K


def _drive_albert(scenario: Scenario):
    tower, f_level, expr = _load_context(scenario)
    if tower.depth - f_level != scenario.n:
        raise DriverError("tower degree does not match the scenario exponent")
    K = _insep_chain(tower, f_level, "split_by_insep needs a chain of root steps")
    dec = albert_decompose(expr, K)
    return dec.expr, dec.certificate, dec.labels, "albert"


def _drive_cyclic_reduction(scenario: Scenario, cfg: SearchConfig):
    data = _attached(scenario)
    tower, f_level, expr = _load_context(scenario)
    K = _insep_chain(tower, f_level, "the attached tower must be purely inseparable")
    cyclic, is_op = parse_symbol(data["cyclic"], K.tower, K.top_level)
    if is_op:
        raise DriverError("cyclic data must be a plain symbol")
    out = reduce_to_cyclic_step(expr, K, cyclic, cfg)
    return out.total(), out.certificate, out.labels, out.case


def _drive_cyclic_step(scenario: Scenario, cfg: SearchConfig):
    """A class whose length drops to lambda_bound over one constant-field
    cyclic step: build the inseparable splitting tower, present the class
    cyclically over it, reduce."""
    data = _attached(scenario)
    tower, f_level, expr = _load_context(scenario)
    if f_level != 0:
        raise DriverError("the cyclic-step driver runs over the base field")
    l_level = f_level + 1
    step = tower.step_at(l_level)
    if step.kind != "artin_schreier":
        raise DriverError("the attached step must be a degree-p cyclic one")
    c0 = tw.step_defining_elem(tower, l_level)
    if tw.level_of_definition(c0) != 0 or not c0.rep.is_constant():
        raise DriverError("only constant-field cyclic steps are supported")
    labels: List[CheckLabel] = []

    lam_text = data.get("lambda_expr")
    if lam_text is None:
        raise DriverError("attach 'lambda_expr': a short presentation over the step")
    lam = parse_expr(lam_text, tower, l_level)
    if scenario.lambda_bound is None or lam.length() > scenario.lambda_bound:
        raise DriverError("attached presentation is longer than the scenario says")
    diff = expr.lift_to(l_level).tensor(lam.op())
    v = expr_invariants(diff)
    if not v.is_zero():
        raise DriverError("attached presentation does not match the class")
    labels.append(CheckLabel("presentation over the cyclic step matches the class",
                             "oracle"))

    # splitting tower from the minimal polynomials of the radical slots
    K = InsepTower(tw.truncate(tower, f_level))
    for sym in lam.entries:
        K.try_add_all(tw.min_poly(sym.b, f_level)[:-1])
    comp = tower
    for name, b in K.gens:
        comp = tw.make_step(comp, "insep_root", name,
                            tw.Elem(comp, f_level, b.rep))
    lk_split = expr_is_split(expr.rebind(comp).lift_to(comp.depth),
                             degree_bound=cfg.norm_bound)
    if not lk_split.is_split:
        raise DriverError("class did not split over the compositum: %s"
                          % lk_split.reason)
    labels.append(CheckLabel(
        "class splits over the cyclic step joined with the inseparable tower",
        "oracle" if lk_split.vector is not None else "witness"))

    cyclic = _cyclic_presentation(K, c0, expr)
    out = reduce_to_cyclic_step(expr, K, cyclic, cfg)
    return out.total(), out.certificate, labels + out.labels, out.case


def _cyclic_presentation(K: InsepTower, c0: tw.Elem,
                         target_expr: BrauerExpr) -> Symbol:
    """A symbol [c0, b) over the tower top equivalent to the target class
    there: with constant c0 the local invariant at a place w is
    trace-multiplier(c0) * deg(w) * val_w(b), so b is assembled place by
    place from the class's invariants over the tower."""
    tower = K.tower
    top = K.top_level
    p = tower.p
    rz = backend_for(tower, top)
    v = expr_invariants(target_expr.rebind(tower).lift_to(top))
    c0_img = rz.forward(tw.lift(tw.rebind(c0, tower), top))
    if not c0_img.is_constant():
        raise DriverError("cyclic presentation needs a constant defining element")
    tau = rz.tower.base_field.trace_to_prime(c0_img.constant_value())
    if tau == 0:
        raise DriverError("defining constant has vanishing trace over the tower")
    b_img = rz.ring.one()
    for place in v.support():
        if place.is_infinite:
            continue
        value = v.entries[place]
        deg = place.degree % p
        if deg == 0:
            raise DriverError(
                "invariant survives at a place whose degree is divisible by p; "
                "no cyclic presentation with this constant")
        m = (value * pow(tau * deg, p - 2, p)) % p
        b_img = b_img * (place.pi ** m)
    from .poly import RatFunc
    b = rz.backward(RatFunc.from_poly(b_img))
    cyclic = Symbol(tw.lift(tw.rebind(c0, tower), top), b)
    check = expr_invariants(BrauerExpr(tower, top, [cyclic]))
    if check != v:
        raise AssertionError("cyclic presentation failed its invariant round-trip")
    return cyclic

