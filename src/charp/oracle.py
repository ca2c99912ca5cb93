"""The global verification oracle for symbols and expressions.

Works over tower levels that admit a rational presentation GF(Q)(w): the
expression's slots are mapped there, local invariants are summed per place,
and the answers feed three-valued splitting decisions:

* a nonzero local invariant certifies "nonsplit";
* an all-zero vector certifies "split" (local-global principle for this
  backend, an oracle assumption recorded in the report);
* norm-witness searches certify "split" constructively and never certify
  "nonsplit": exhausting a bound yields "unknown".

``realize`` inverts the invariant map: it builds an expression with a
prescribed vector, optionally through prescribed radical slots.
"""

from __future__ import annotations

from typing import List, Optional

from . import towers as tw
from .invariants import BackendError, InvariantVector, realize_pairs, symbol_vector
from .rationalize import Rationalization, rationalize_level
from .symbols import (BrauerExpr, Symbol, _norm_search_bound, norm_witness,
                      normalize_symbol, reduce_expr)
from .textform import format_place


def backend_for(tower: tw.FieldTower, level: int) -> Rationalization:
    rz = rationalize_level(tower, level)
    if rz is None:
        raise BackendError(
            "no rational presentation for this level; the invariant oracle "
            "needs a univariate global backend")
    return rz


def expr_invariants(expr: BrauerExpr) -> InvariantVector:
    """Entrywise sum of local invariants over the expression's support.

    Each entry's vector is memoized on the tower below the expression's
    level, per slot representations: it depends on nothing above."""
    rz = backend_for(expr.tower, expr.level)
    prefix = tw.truncate(expr.tower, expr.level)
    p = expr.p
    out = InvariantVector(p)
    for s in expr.entries:
        out = out + tw._memo(prefix, ("invariants", s.a.rep, s.b.rep),
                             lambda: symbol_vector(rz.forward(s.a), rz.forward(s.b), p))
    return out


class SplitResult:
    """Three-valued answer with its evidence."""

    def __init__(self, status: str, witness: Optional[tw.Elem] = None,
                 witness_tower: Optional[tw.FieldTower] = None, reason: str = "",
                 vector: Optional[InvariantVector] = None,
                 searched_bound: Optional[int] = None):
        self.status = status  # "split" | "nonsplit" | "unknown"
        self.witness = witness
        self.witness_tower = witness_tower
        self.reason = reason
        self.vector = vector
        self.searched_bound = searched_bound

    @property
    def is_split(self) -> bool:
        return self.status == "split"


class OracleDisagreement(AssertionError):
    """A norm witness and a nonzero invariant met; must never happen."""


def is_split(s: Symbol, strategy: str = "both", degree_bound: int = 4) -> SplitResult:
    """Decide splitting of one symbol.

    strategy "norm_search": bounded witness search, split or unknown;
    strategy "invariants": oracle decision, split or nonsplit;
    strategy "both": oracle decides, any found witness is cross-checked;
    strategy "auto": the oracle when the backend exists, else witness search.
    """
    if strategy not in ("norm_search", "invariants", "both", "auto"):
        raise ValueError("unknown strategy %r" % strategy)
    out = normalize_symbol(s)
    if out.symbol is None:
        one = tw.int_elem(s.tower, s.level, 1)
        return SplitResult("split", witness=one, reason=out.split_witness or "trivial")
    s = out.symbol

    if strategy == "auto":
        strategy = ("invariants" if rationalize_level(s.tower, s.level) is not None
                    else "norm_search")

    vector = None
    if strategy in ("invariants", "both"):
        vector = expr_invariants(BrauerExpr(s.tower, s.level, [s]))

    witness = None
    if strategy in ("norm_search", "both"):
        degree_bound = _norm_search_bound(s.tower, degree_bound)
        witness = norm_witness(s, degree_bound)

    if vector is not None and not vector.is_zero():
        if witness is not None:
            raise OracleDisagreement(
                "norm witness found for a class with a nonzero local invariant")
        return _nonsplit(vector)
    if witness is not None:
        return SplitResult("split", witness=witness, witness_tower=witness.tower,
                           reason="norm witness", vector=vector,
                           searched_bound=degree_bound)
    if vector is not None:
        return SplitResult("split", reason="all local invariants vanish",
                           vector=vector)
    return SplitResult("unknown", searched_bound=degree_bound,
                       reason="no witness within degree bound %d" % degree_bound)


def expr_is_split(expr: BrauerExpr, degree_bound: int = 4) -> SplitResult:
    """Splitting of a whole expression: by the oracle where available, else
    by elementary reduction to the empty expression."""
    if rationalize_level(expr.tower, expr.level) is None:
        reduced = reduce_expr(expr, norm_bound=degree_bound)
        if reduced.is_empty():
            return SplitResult("split", reason="reduces to the empty expression")
        return SplitResult("unknown",
                           reason="irreducible remainder of length %d" % reduced.length(),
                           searched_bound=degree_bound)
    vector = expr_invariants(expr)
    if vector.is_zero():
        return SplitResult("split", reason="all local invariants vanish", vector=vector)
    return _nonsplit(vector)


def _nonsplit(vector: InvariantVector) -> SplitResult:
    """The nonsplit answer for a nonzero vector, named by its first place."""
    place = vector.support()[0]
    return SplitResult("nonsplit", reason="invariant %d/%d at %s" % (
        vector.entries[place], vector.p, format_place(place)), vector=vector)


def realize(vector: InvariantVector, tower: tw.FieldTower, level: int = 0,
            b_slots: Optional[List[tw.Elem]] = None) -> BrauerExpr:
    """An expression over the given level whose invariant vector is exactly
    ``vector``.  Slots are optional; infeasibility raises RealizeError with
    the obstructing place."""
    rz = backend_for(tower, level)
    slot_fracs = None
    if b_slots is not None:
        slot_fracs = [rz.forward(b) for b in b_slots]
    pairs = realize_pairs(vector, rz.ring, slot_fracs)
    entries = []
    for a_frac, b_frac, idx in pairs:
        a = tw.lift(rz.backward(a_frac), level)
        if idx is None:
            b = tw.lift(rz.backward(b_frac), level)
        else:
            b = tw.lift(tw.rebind(b_slots[idx], tower), level)
        entries.append(Symbol(a, b))
    out = BrauerExpr(tower, level, entries)
    check = expr_invariants(out)
    if check != vector:
        raise AssertionError("realized expression failed its invariant round-trip")
    return out
