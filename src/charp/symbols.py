"""Degree-p symbols [a, b) and formal tensor expressions of them.

A symbol packs the two slots of a cyclic degree-p algebra presented by
i^p - i = a, j^p = b, ji = (i-1)j.  Expressions are ordered multisets of
symbols over a fixed tower level; the opposite algebra of a symbol is
rewritten on input as p-1 positive copies, so entries are internally
sign-free.

The rewrite relations implemented here only ever shorten or canonicalize:

* same-a merges: [a, b) (x) [a, b') ~ [a, b b');
* slot shifts: a -> a + (c^p - c) and b -> b w^p fix the class;
* visibly split entries (a in the image of c^p - c, b a norm) are dropped.

Each rewrite optionally reports a replayable step to a recorder so that
certificate chains can be assembled by callers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import towers as tw
from .towers import Elem, FieldTower


class LevelMismatch(ValueError):
    """Symbols or expressions combined across different levels."""


class Symbol:
    """One cyclic degree-p algebra [a, b) over a tower level.  Immutable:
    symbols are compared and hashed by their slots."""

    __slots__ = ("a", "b")

    def __init__(self, a: Elem, b: Elem):
        if a.tower is not b.tower:
            raise LevelMismatch("slots live in different towers")
        if a.level != b.level:
            raise LevelMismatch("slots live at different levels")
        if b.is_zero():
            raise ValueError("the radical slot of a symbol must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("a symbol is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    @property
    def tower(self) -> FieldTower:
        return self.a.tower

    @property
    def level(self) -> int:
        return self.a.level

    @property
    def p(self) -> int:
        return self.a.tower.p

    def lift_to(self, level: int) -> "Symbol":
        return Symbol(tw.lift(self.a, level), tw.lift(self.b, level))

    def __repr__(self) -> str:
        from .textform import format_symbol
        return format_symbol(self)


class BrauerExpr:
    """An ordered multiset of symbols over one tower level; the length of the
    expression is its number of entries."""

    def __init__(self, tower: FieldTower, level: int, entries: Sequence[Symbol] = ()):
        self.tower = tower
        self.level = level
        for s in entries:
            if s.tower is not tower or s.level != level:
                raise LevelMismatch("entry outside the expression's level")
        self.entries: Tuple[Symbol, ...] = tuple(entries)

    @property
    def p(self) -> int:
        return self.tower.p

    def length(self) -> int:
        return len(self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def tensor(self, other: "BrauerExpr") -> "BrauerExpr":
        if other.tower is not self.tower or other.level != self.level:
            raise LevelMismatch("tensor operands at different levels")
        return BrauerExpr(self.tower, self.level, self.entries + other.entries)

    def op(self) -> "BrauerExpr":
        """The opposite expression: each entry becomes p-1 copies of itself
        (the class has exponent dividing p)."""
        out: List[Symbol] = []
        for s in self.entries:
            out.extend([s] * (self.p - 1))
        return BrauerExpr(self.tower, self.level, out)

    def lift_to(self, level: int) -> "BrauerExpr":
        return BrauerExpr(self.tower, level, [s.lift_to(level) for s in self.entries])

    def rebind(self, tower: FieldTower) -> "BrauerExpr":
        """The same expression over another tower with the same steps up to
        its level (see ``towers.rebind``)."""
        return BrauerExpr(tower, self.level,
                          [Symbol(tw.rebind(s.a, tower), tw.rebind(s.b, tower))
                           for s in self.entries])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BrauerExpr) and self.level == other.level
                and self.entries == other.entries)

    def __repr__(self) -> str:
        from .textform import format_expr
        return format_expr(self)


# ---------------------------------------------------------------------------
# normalization of a single symbol
# ---------------------------------------------------------------------------

class NormalizeOutcome:
    """Result of canonicalizing one symbol.

    ``symbol`` is None when the input is split; ``as_shift`` is the c with
    new a = old a + (c^p - c); ``power_shift`` is the w with
    new b = old b * w^p; ``split_witness`` names the closing evidence
    ("norm one" or the trivializing c)."""

    def __init__(self, symbol: Optional[Symbol], as_shift: Optional[Elem],
                 power_shift: Optional[Elem], split_witness: Optional[str] = None):
        self.symbol = symbol
        self.as_shift = as_shift
        self.power_shift = power_shift
        self.split_witness = split_witness


def normalize_symbol(s: Symbol) -> NormalizeOutcome:
    """Canonical pole-order-reduced a and p-th-power-free b over the
    univariate base; exact triviality tests elsewhere.  Returns a split
    outcome when a lands in the image of c^p - c or b reduces to one.
    Memoized on the symbol's tower."""
    return tw._memo(s.tower, ("normalize", s.level, s.a.rep, s.b.rep),
                    lambda: _normalize_symbol_uncached(s))


def _normalize_symbol_uncached(s: Symbol) -> NormalizeOutcome:
    tower, level, p = s.tower, s.level, s.p
    as_shift = None
    power_shift = None
    a, b = s.a, s.b
    if level == 0 and tower.ring.nvars == 1:
        reduced, c = tw.reduce_artin_schreier_slot(a)
        if not c.is_zero():
            as_shift = tw.neg(c)
            a = reduced
        b_red, w = _reduce_radical_univariate(b)
        if b_red != b:
            power_shift = tw.div(tw.int_elem(tower, level, 1), w)
            b = b_red
    else:
        c = tw.artin_schreier_preimage(a)
        if c is not None and not c.is_zero():
            as_shift = tw.neg(c)
            a = tw.sub(a, tw.wp(c))
        root = tw.pth_root_in_level(b)
        if root is not None:
            power_shift = tw.div(tw.int_elem(tower, level, 1), root)
            b = tw.int_elem(tower, level, 1)
    if a.is_zero():
        return NormalizeOutcome(None, as_shift, power_shift, "a-slot is trivial")
    if b == tw.int_elem(tower, level, 1):
        return NormalizeOutcome(None, as_shift, power_shift, "b-slot is a norm of one")
    return NormalizeOutcome(Symbol(a, b), as_shift, power_shift)


def _as_shift_between(x: Elem, y: Elem) -> Optional[Elem]:
    """The c that ``artin_schreier_preimage`` gives for x - y, or None when
    x and y lie in different Artin-Schreier classes.  Memoized on the tower
    below the slots' level by the ordered pair of representations: the
    preimage of y - x may differ from -c by a constant of GF(p), so the pair
    is not sorted."""
    return tw._memo_on_prefix(
        "as_shift", lambda u, v: tw.artin_schreier_preimage(tw.sub(u, v)), x, y)


def _reduce_radical_univariate(b: Elem) -> Tuple[Elem, Elem]:
    """Write b = b_red * w^p with b_red the monic product of the places of b
    raised to their valuations modulo p.  Returns (b_red, w)."""
    from .poly import RatFunc, factor_univariate
    tower = b.tower
    p = tower.p
    ring = tower.ring
    parts = {}
    for part, sign in ((b.rep.num, 1), (b.rep.den, -1)):
        if part.is_constant():
            continue
        _, factors = factor_univariate(part)
        for pi, mult in factors.items():
            parts[pi] = parts.get(pi, 0) + sign * mult
    red = ring.one()
    for pi, mult in sorted(parts.items(), key=lambda kv: (kv[0].degree_in(0), str(kv[0]))):
        if mult % p:
            red = red * pi ** (mult % p)
    b_red = Elem(tower, 0, RatFunc.from_poly(red))
    ratio = tw.div(b, b_red)
    w = tw.pth_root_in_level(ratio)
    if w is None:
        raise AssertionError("radical reduction must leave a p-th power ratio")
    return b_red, w


# ---------------------------------------------------------------------------
# expression-level rewriting
# ---------------------------------------------------------------------------

def _record(recorder, kind, before, after, witness):
    if recorder is not None:
        recorder.record(kind, before, after, witness)


def _replace_entry(expr: BrauerExpr, idx: int, symbol: Optional[Symbol]) -> BrauerExpr:
    entries = list(expr.entries)
    if symbol is None:
        entries.pop(idx)
    else:
        entries[idx] = symbol
    return BrauerExpr(expr.tower, expr.level, entries)


def normalize_entries(expr: BrauerExpr, recorder=None) -> BrauerExpr:
    """Normalize every entry, dropping the ones that close as split."""
    i = 0
    cur = expr
    while i < cur.length():
        s = cur.entries[i]
        out = normalize_symbol(s)
        mid = s
        if out.as_shift is not None:
            shifted = Symbol(tw.add(mid.a, tw.wp(out.as_shift)), mid.b)
            nxt = _replace_entry(cur, i, shifted)
            _record(recorder, "ASShift", cur, nxt, {"c": out.as_shift, "index": i})
            cur, mid = nxt, shifted
        if out.power_shift is not None:
            shifted = Symbol(mid.a, tw.mul(mid.b, tw.power(out.power_shift, expr.p)))
            nxt = _replace_entry(cur, i, shifted)
            _record(recorder, "PthPowerShift", cur, nxt, {"w": out.power_shift, "index": i})
            cur, mid = nxt, shifted
        if out.symbol is None:
            nxt = _replace_entry(cur, i, None)
            witness: dict = {"index": i}
            if mid.a.is_zero():
                witness["kind"] = "zero-a"
            else:
                witness["z"] = tw.int_elem(cur.tower, cur.level, 1)
            _record(recorder, "SplitNormWitness", cur, nxt, witness)
            cur = nxt
            continue
        i += 1
    return cur


def merge_same_a(expr: BrauerExpr, recorder=None) -> BrauerExpr:
    """Greedy merge of entries with equal a slots; merged entries that become
    visibly split are normalized away.  Length never increases."""
    cur = expr
    changed = True
    while changed:
        changed = False
        for i in range(cur.length()):
            for j in range(i + 1, cur.length()):
                si, sj = cur.entries[i], cur.entries[j]
                if si.a == sj.a:
                    merged = Symbol(si.a, tw.mul(si.b, sj.b))
                    entries = list(cur.entries)
                    entries[i] = merged
                    entries.pop(j)
                    nxt = BrauerExpr(cur.tower, cur.level, entries)
                    _record(recorder, "MergeSameA", cur, nxt, {"i": i, "j": j})
                    cur = normalize_entries(nxt, recorder)
                    changed = True
                    break
            if changed:
                break
    return cur


def match_as_shifts(expr: BrauerExpr, recorder=None) -> BrauerExpr:
    """Shift entries whose a slots differ by c^p - c onto each other so that
    same-a merging can fire."""
    cur = expr
    changed = True
    while changed:
        changed = False
        for i in range(cur.length()):
            for j in range(i + 1, cur.length()):
                si, sj = cur.entries[i], cur.entries[j]
                if si.a == sj.a:
                    continue
                c = _as_shift_between(si.a, sj.a)
                if c is None:
                    continue
                shifted = Symbol(tw.add(sj.a, tw.wp(c)), sj.b)
                nxt = _replace_entry(cur, j, shifted)
                _record(recorder, "ASShift", cur, nxt, {"c": c, "index": j})
                cur = merge_same_a(nxt, recorder)
                changed = True
                break
            if changed:
                break
    return cur


def drop_norm_split_entries(expr: BrauerExpr, degree_bound: int,
                            recorder=None) -> BrauerExpr:
    """Remove entries whose radical slot is certified as a norm by a bounded
    search; sound and deterministic, never complete."""
    cur = expr
    i = 0
    while i < cur.length():
        s = cur.entries[i]
        z = norm_witness(s, degree_bound)
        if z is not None:
            nxt = _replace_entry(cur, i, None)
            _record(recorder, "SplitNormWitness", cur, nxt, {"index": i, "z": z})
            cur = nxt
            continue
        i += 1
    return cur


def splitting_extension(s: Symbol) -> Optional[tw.FieldTower]:
    """The tower extended by the Artin-Schreier step of the a slot, with a
    deterministic fresh generator name; None when the a slot is trivial."""
    base_tower = tw.truncate(s.tower, s.level)
    try:
        return tw.make_step(base_tower, "artin_schreier",
                            tw.fresh_gen_name(base_tower), s.a)
    except tw.StepError:
        return None


def _norm_search_bound(tower: FieldTower, degree_bound: int) -> int:
    """The bound a norm-witness search over this tower actually uses:
    multivariate bases clamp it to 1 to keep candidate pools tractable."""
    return min(degree_bound, 1) if tower.ring.nvars > 1 else degree_bound


def norm_witness(s: Symbol, degree_bound: int) -> Optional[Elem]:
    """A z in the Artin-Schreier extension by the a slot, one step above
    the symbol's level, whose norm is the b slot, or None within the bound,
    clamped by ``_norm_search_bound``; deeper searches are the callers'
    call.  ``solve_norm`` searches that one step and memoizes the search on
    the extension."""
    ext = splitting_extension(s)
    if ext is None:
        return None  # trivial a slot: handled by normalization instead
    return tw.solve_norm(tw.rebind(s.b, ext), _norm_search_bound(s.tower, degree_bound))


def reduce_expr(expr: BrauerExpr, recorder=None, norm_bound: int = 0) -> BrauerExpr:
    """Fixpoint of entry normalization, same-a merging, shift matching and
    (optionally, for norm_bound > 0) bounded norm-witness drops.  The length
    of the result is the certified upper bound this package reports."""
    cur = normalize_entries(expr, recorder)
    while True:
        before = cur.entries
        cur = merge_same_a(cur, recorder)
        cur = match_as_shifts(cur, recorder)
        if norm_bound > 0:
            cur = drop_norm_split_entries(cur, norm_bound, recorder)
        if cur.entries == before:
            return cur
