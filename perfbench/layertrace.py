"""Per-layer tracing of the charp package, installed from outside it.

The tracer replaces public names of the traced ``charp`` modules with
wrappers: module functions in every ``charp`` namespace that holds the same
object (so calls through ``from .poly import poly_gcd`` are seen as well as
calls through ``tw.norm``), and the public and arithmetic methods of the
modules' public classes.  Nothing under ``src/charp`` is edited.

A *spanned* name opens a span of its layer for the duration of the call.
Time is charged to the innermost open span, so a layer's self time is its
span time minus the child spans of other layers, and the self times of all
layers never add up to more than the traced wall time.  A call from a layer
into itself adds no span (its time stays with the layer), unless it is a
named operation.  A *counted* name only increments a counter: ``ffield``
runs at millions of calls per run, and spanning it would distort every
other layer.

A name the operation table expects but the package no longer has is
reported as absent with the reason; it never stops the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("ffield", "poly", "towers", "rationalize", "invariants", "symbols",
          "oracle", "certify", "descent", "drivers", "textform", "experiment")

# Layers whose public names are only counted, never spanned.
COUNT_ONLY_LAYERS = ("ffield",)

# Operator methods wrapped besides the public ones.
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")

# Value classes whose accessors (is_zero, degree_in, leading_coeff, ...) run
# at hundreds of thousands of calls per pass: only their operators and named
# methods are wrapped, and the accessors' time is charged to the caller.
OPERATORS_ONLY = ("poly.Poly", "poly.PolyRing")

# Named operations: (layer, public name, op key).  A dotted name is a method
# of a public class of the layer module.
OPS = (
    ("ffield", "FiniteField.mul", "ffield.mul"),
    ("ffield", "FiniteField.add", "ffield.add"),
    ("ffield", "FiniteField.inv", "ffield.inv"),
    ("poly", "poly_divmod_1var", "poly.divmod_1var"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "factor_univariate", "poly.factor"),
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "RatFunc.__init__", "poly.ratfunc"),
    ("towers", "solve_norm", "towers.solve_norm"),
    ("towers", "norm", "towers.norm"),
    ("towers", "make_step", "towers.make_step"),
    ("towers", "rebind", "towers.rebind"),
    ("towers", "pth_root_in_level", "towers.pth_root"),
    ("towers", "artin_schreier_preimage", "towers.as_preimage"),
    ("rationalize", "rationalize_level", "rationalize.level"),
    ("invariants", "local_invariant", "invariants.local_invariant"),
    ("invariants", "support_places", "invariants.support_places"),
    ("symbols", "normalize_symbol", "symbols.normalize"),
    ("symbols", "reduce_expr", "symbols.reduce_expr"),
    ("symbols", "norm_witness", "symbols.norm_witness"),
    ("oracle", "expr_invariants", "oracle.expr_invariants"),
    ("oracle", "is_split", "oracle.is_split"),
    ("certify", "verify_certificate", "certify.verify"),
    ("descent", "reduce_to_cyclic_step", "descent.reduce"),
    ("descent", "albert_decompose", "descent.albert"),
)

# Ops that cover every public function of a layer with a given prefix.
PREFIX_OPS = (
    ("textform", "parse_", "textform.parse"),
    ("textform", "format_", "textform.format"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _reduces(args, kwargs):
    """RatFunc(num, den, reduce=True) reduces unless told not to."""
    return kwargs.get("reduce", args[3] if len(args) > 3 else True)


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []            # frames: (layer, ops open in its run)
        self.last = 0.0
        self.calls = defaultdict(int)       # layer or op -> every call
        self.op_outer = defaultdict(int)    # op -> outermost calls
        self.layer_self = defaultdict(float)
        self.op_self = defaultdict(float)
        self.op_depth = defaultdict(int)
        self.events = defaultdict(int)      # outcome counters of hooks
        self.structures = set()
        self.absent = {}
        self.wrapped = []          # (namespace, name, original)
        self.outside_s = 0.0

    # -- accounting ---------------------------------------------------------

    def reset(self, now: float) -> None:
        """Forget everything counted before ``now`` (set-up is not measured)."""
        for table in (self.calls, self.op_outer, self.layer_self,
                      self.op_self, self.events):
            table.clear()
        self.structures.clear()
        self.outside_s = 0.0
        self.last = now

    def _charge(self, now: float) -> None:
        dt = now - self.last
        self.last = now
        if not self.stack:
            self.outside_s += dt
            return
        layer, ops = self.stack[-1]
        self.layer_self[layer] += dt
        for op in ops:
            self.op_self[op] += dt

    def enter(self, layer: str, op) -> None:
        self._charge(self.clock())
        ops = ()
        if self.stack and self.stack[-1][0] == layer:
            ops = self.stack[-1][1]
        if op is not None:
            if not self.op_depth[op]:
                self.op_outer[op] += 1
            self.op_depth[op] += 1
            if op not in ops:
                ops = ops + (op,)
        self.stack.append((layer, ops))

    def leave(self, op) -> None:
        self._charge(self.clock())
        self.stack.pop()
        if op is not None:
            self.op_depth[op] -= 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public names of every traced layer."""
        modules = {layer: importlib.import_module("charp." + layer)
                   for layer in LAYERS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == "charp" or name.startswith("charp."))]
        named = {(layer, name): op for layer, name, op in OPS}
        for layer, module in modules.items():
            span = layer not in COUNT_ONLY_LAYERS
            for name, fn in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                op = named.get((layer, name))
                for pl, prefix, pop in PREFIX_OPS:
                    if op is None and pl == layer and name.startswith(prefix):
                        op = pop
                wrapper = self._wrapper(layer, op, fn, span)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
            for cls_name, cls in sorted(vars(module).items()):
                if (cls_name.startswith("_") or not inspect.isclass(cls)
                        or cls.__module__ != module.__name__):
                    continue
                operators_only = "%s.%s" % (layer, cls_name) in OPERATORS_ONLY
                for name, fn in sorted(vars(cls).items()):
                    op = named.get((layer, "%s.%s" % (cls_name, name)))
                    public = name in ARITHMETIC or not (
                        name.startswith("_") or operators_only)
                    if inspect.isfunction(fn) and (public or op is not None):
                        self._patch(cls, name, self._wrapper(layer, op, fn, span))
        for layer, name, op in OPS:
            owner, _, attr = name.rpartition(".")
            holder = vars(modules[layer]).get(owner) if owner else modules[layer]
            if not (holder is not None and inspect.isfunction(vars(holder).get(attr))):
                self.absent[op] = "charp.%s has no public %s %s" % (
                    layer, "method" if owner else "function", name)

    def _patch(self, namespace, name, wrapper) -> None:
        self.wrapped.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self.wrapped):
            setattr(ns, name, original)
        self.wrapped.clear()

    def _wrapper(self, layer, op, fn, span):
        calls = self.calls
        count_if = _reduces if op == "poly.ratfunc" else None
        if inspect.isgeneratorfunction(fn):
            span = False           # a generator returns before its work is done
        if not span:
            def counted(*args, **kwargs):
                calls[layer] += 1
                if op is not None:
                    calls[op] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        hook = _HOOKS.get(op)
        stack, enter, leave = self.stack, self.enter, self.leave
        tracer = self

        def spanned(*args, **kwargs):
            calls[layer] += 1
            if op is None:
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
            elif count_if is None or count_if(args, kwargs):
                calls[op] += 1
            enter(layer, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if hook is not None:
                    hook(tracer, args, None, err)
                raise
            finally:
                leave(op)
            if hook is not None:
                hook(tracer, args, result, None)
            return result
        spanned.__wrapped__ = fn
        return spanned

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values, by name, for the traced interval."""
        c, e, outer, own = self.calls, self.events, self.op_outer, self.op_self
        m = {}
        for layer in LAYERS:
            m[layer + ".calls"] = c[layer]
            if layer not in COUNT_ONLY_LAYERS:
                m[layer + ".self_s"] = self.layer_self[layer]
        m.update({
            "ffield.mul.calls": c["ffield.mul"],
            "ffield.add.calls": c["ffield.add"],
            "ffield.inv.calls": c["ffield.inv"],
            "poly.divmod_1var.calls": c["poly.divmod_1var"],
            "poly.divmod_1var.self_s": own["poly.divmod_1var"],
            "poly.gcd.calls": outer["poly.gcd"],
            "poly.gcd.self_s": own["poly.gcd"],
            "poly.ratfunc.constructed": c["poly.ratfunc"],
            "poly.mul.calls": c["poly.mul"],
            "poly.factor.calls": c["poly.factor"],
            "poly.factor.self_s": own["poly.factor"],
            "towers.solve_norm.calls": c["towers.solve_norm"],
            "towers.solve_norm.self_s": own["towers.solve_norm"],
            "towers.solve_norm.found_ratio": _ratio(
                e["towers.solve_norm.found"], e["towers.solve_norm.returned"]),
            "towers.norm.calls": c["towers.norm"],
            "towers.make_step.calls": c["towers.make_step"],
            "towers.make_step.rejected_ratio": _ratio(
                e["towers.make_step.rejected"], e["towers.make_step.ended"]),
            "towers.rebind.calls": c["towers.rebind"],
            "towers.pth_root.calls": c["towers.pth_root"],
            "towers.as_preimage.calls": c["towers.as_preimage"],
            "rationalize.level.calls": c["rationalize.level"],
            "rationalize.level.distinct_structures": len(self.structures),
            "rationalize.level.calls_per_structure": _ratio(
                c["rationalize.level"], len(self.structures)),
            "invariants.local_invariant.calls": c["invariants.local_invariant"],
            "invariants.local_invariant.self_s": own["invariants.local_invariant"],
            "invariants.support_places.self_s": own["invariants.support_places"],
            "symbols.normalize.calls": c["symbols.normalize"],
            "symbols.reduce_expr.self_s": own["symbols.reduce_expr"],
            "symbols.norm_witness.found_ratio": _ratio(
                e["symbols.norm_witness.found"], e["symbols.norm_witness.returned"]),
            "oracle.expr_invariants.calls": c["oracle.expr_invariants"],
            "oracle.is_split.calls": c["oracle.is_split"],
            "certify.verify.calls": c["certify.verify"],
            "certify.verify.self_s": own["certify.verify"],
            "certify.steps_replayed": e["certify.steps"],
            "descent.reduce.self_s": own["descent.reduce"],
            "descent.albert.calls": c["descent.albert"],
            "descent.albert.self_s": own["descent.albert"],
            "textform.parse.self_s": own["textform.parse"],
            "textform.format.self_s": own["textform.format"],
        })
        return m

    def absent_metrics(self) -> dict:
        """Metric name -> reason, for metrics whose source name is gone."""
        return {name: reason for op, reason in self.absent.items()
                for name in self.metrics() if name.startswith(op + ".")}


# -- hooks that look at arguments and results ----------------------------------

def _found_hook(prefix):
    def hook(tracer, args, result, err):
        if err is None:
            tracer.events[prefix + ".returned"] += 1
            if result is not None:
                tracer.events[prefix + ".found"] += 1
    return hook


def _make_step_hook(tracer, args, result, err):
    from charp.towers import StepError
    if err is None or isinstance(err, StepError):
        tracer.events["towers.make_step.ended"] += 1
    if isinstance(err, StepError):
        tracer.events["towers.make_step.rejected"] += 1


def _rationalize_hook(tracer, args, result, err):
    started = tracer.clock()
    tower, level = args[0], args[1]
    signature = type(tower).signature
    signature = getattr(signature, "__wrapped__", signature)   # not a counted call
    tracer.structures.add((signature(tower, level), level))
    tracer.last += tracer.clock() - started   # nor charged to any layer


def _verify_hook(tracer, args, result, err):
    if err is None:
        tracer.events["certify.steps"] += len(args[0].steps)


_HOOKS = {
    "towers.solve_norm": _found_hook("towers.solve_norm"),
    "symbols.norm_witness": _found_hook("symbols.norm_witness"),
    "towers.make_step": _make_step_hook,
    "rationalize.level": _rationalize_hook,
    "certify.verify": _verify_hook,
}
