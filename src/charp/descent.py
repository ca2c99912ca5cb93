"""Descent along purely inseparable towers of exponent one.

The pushforward along x -> x^p turns symbols over K (with K^p inside F)
into symbols over F by raising both slots to the p-th power.  Combined with
norm equations and the decomposition of classes split by K into symbols
whose radical slots are the tower's radicands, this module implements the
constructive reduction of a class that becomes cyclic over K to a product
of at most n + p - 1 symbols over F.

Every result carries a certificate chaining expr (x) result^op to the empty
expression (elementary steps where possible, invariant-matched oracle
rewrites on the univariate backend), plus labels saying which claims were
oracle-checked, witness-checked, or assumed.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import towers as tw
from .certify import CertBuilder, Certificate, verify_certificate
from .invariants import RealizeError
from .oracle import expr_invariants, expr_is_split, is_split, realize
from .rationalize import rationalize_level
from .symbols import (BrauerExpr, LevelMismatch, Symbol, _as_shift_between,
                      reduce_expr)


class DescentError(RuntimeError):
    """A descent procedure could not complete; message carries the report."""


class SplitHypothesisError(DescentError):
    """A precondition 'this class is split' could not be established."""


# the degree bound of the norm-witness drops in elementary reduction, and
# the height of the left slots that the Albert search tries
ELEMENTARY_NORM_BOUND = 2
ALBERT_HEIGHT = 1


class SearchConfig:
    def __init__(self, norm_bound: int = 4):
        self.norm_bound = norm_bound


class CheckLabel:
    def __init__(self, claim: str, method: str):
        self.claim = claim
        self.method = method  # "oracle" | "witness" | "assumed"

    def to_json(self) -> dict:
        return {"claim": self.claim, "method": self.method}


# ---------------------------------------------------------------------------
# inseparable towers
# ---------------------------------------------------------------------------

class InsepTower:
    """F(b_1^(1/p), ..., b_n^(1/p)) over the level ``over_level`` of a tower.

    Construction enforces that each radicand is a unit outside the p-th
    powers of the previously built level, which is exactly p-independence;
    dependent radicands are rejected (add) or skipped (try_add_all)."""

    def __init__(self, base_tower: tw.FieldTower, over_level: Optional[int] = None):
        self.over_level = base_tower.depth if over_level is None else over_level
        if self.over_level != base_tower.depth:
            base_tower = tw.truncate(base_tower, self.over_level)
        self.tower = base_tower
        self.gens: List[Tuple[str, tw.Elem]] = []

    @property
    def top_level(self) -> int:
        return self.over_level + len(self.gens)

    @property
    def degree_log(self) -> int:
        return len(self.gens)

    def add(self, radicand: tw.Elem, name: Optional[str] = None) -> None:
        radicand = tw.rebind(radicand, self.tower)
        if tw.level_of_definition(radicand) > self.over_level:
            raise tw.StepError("radicand must live at the base of the inseparable tower")
        gen = name or tw.fresh_gen_name(self.tower, "r")
        self.tower = tw.make_step(self.tower, "insep_root", gen, radicand)
        self.gens.append((gen, tw.rebind(radicand, self.tower)))

    def try_add_all(self, radicands: Sequence[tw.Elem]) -> List[int]:
        """Add each nonzero radicand in turn, skipping dependent ones; the
        indices in ``gens`` of those added."""
        added = []
        for b in radicands:
            if b.is_zero():
                continue
            try:
                self.add(b)
            except tw.StepError:
                continue
            added.append(len(self.gens) - 1)
        return added

    def radicands(self) -> List[tw.Elem]:
        return [tw.rebind(b, self.tower) for _, b in self.gens]

    def __repr__(self) -> str:
        from .textform import format_tower
        return "InsepTower(%s)" % format_tower(self.tower)


# ---------------------------------------------------------------------------
# the pushforward
# ---------------------------------------------------------------------------

def check_exponent_one(tower: tw.FieldTower, low: int, high: int) -> None:
    """Every step in (low, high] must be an inseparable root with data at or
    below ``low``; then the p-th power of the top level lands in the low one."""
    for lvl in range(low + 1, high + 1):
        step = tower.step_at(lvl)
        if step.kind != "insep_root":
            raise DescentError(
                "pushforward needs a purely inseparable chain; level %d is %s"
                % (lvl, step.kind))
        data = tw.step_defining_elem(tower, lvl)
        if tw.level_of_definition(data) > low:
            raise DescentError(
                "pushforward chain has a radicand above the target level")


def frobenius_push(s: Symbol, down_level: int) -> Symbol:
    """[x, y) over K maps to [x^p, y^p) over F."""
    check_exponent_one(s.tower, down_level, s.level)
    p = s.p
    return Symbol(tw.descend(tw.power(s.a, p), down_level),
                  tw.descend(tw.power(s.b, p), down_level))


# ---------------------------------------------------------------------------
# certification helper
# ---------------------------------------------------------------------------

def certify_equivalence(start: BrauerExpr, result: BrauerExpr) -> Certificate:
    """A certificate chaining start (x) result^op to the empty expression:
    elementary rewriting first, and when a remainder survives, one
    invariant-matched rewrite on the univariate backend closes it."""
    tower = start.tower
    builder = CertBuilder(tower)
    combined = start.tensor(result.op())
    remainder = reduce_expr(combined, recorder=builder, norm_bound=ELEMENTARY_NORM_BOUND)
    if not remainder.is_empty():
        if rationalize_level(tower, remainder.level) is None:
            raise DescentError(
                "cannot certify: remainder of length %d and no oracle backend"
                % remainder.length())
        if not expr_invariants(remainder).is_zero():
            raise DescentError("certification failed: remainder has nonzero invariants")
        empty = BrauerExpr(tower, remainder.level, [])
        builder.record("AlbertDecomp", remainder, empty,
                       {"rule": "invariant-matched rewrite"})
    cert = builder.build()
    outcome = verify_certificate(cert)
    if not outcome:
        raise AssertionError("emitted certificate failed replay: %s" % outcome.reason)
    return cert


# ---------------------------------------------------------------------------
# Albert-style decomposition over an inseparable splitting tower
# ---------------------------------------------------------------------------

class DecompositionResult:
    def __init__(self, expr: BrauerExpr, certificate: Optional[Certificate],
                 reported_length: int, slots: Optional[List[Optional[int]]] = None,
                 labels: Optional[List[CheckLabel]] = None):
        self.expr = expr
        self.certificate = certificate  # None only before certification
        self.reported_length = reported_length
        self.slots = [] if slots is None else slots
        self.labels = [] if labels is None else labels

    def to_json(self) -> dict:
        from .textform import format_expr
        return {
            "expr": format_expr(self.expr),
            "length": self.reported_length,
            "labels": [l.to_json() for l in self.labels],
            "certificate": self.certificate.to_json(),
        }


def albert_decompose(e: BrauerExpr, K: InsepTower) -> DecompositionResult:
    """Decompose a class split by K into symbols with the tower's radicands
    in the radical slots; at most one symbol per radicand."""
    e, dec = _albert_uncertified(e, K)
    dec.certificate = certify_equivalence(e, dec.expr)
    return dec


def _albert_uncertified(e: BrauerExpr, K: InsepTower) -> Tuple[BrauerExpr, DecompositionResult]:
    """``albert_decompose`` with no certificate yet (None), and e over K's
    tower: for callers that certify a larger answer themselves."""
    tower = K.tower
    f_level = K.over_level
    if e.level != f_level:
        raise LevelMismatch("the class must live at the level below the tower")
    e = e.rebind(tower)
    labels: List[CheckLabel] = []
    verdict = expr_is_split(e.lift_to(K.top_level), degree_bound=ELEMENTARY_NORM_BOUND)
    if verdict.status == "nonsplit":
        raise SplitHypothesisError("the class is not split by the tower: %s"
                                   % verdict.reason)
    if verdict.status == "unknown":
        raise SplitHypothesisError("split hypothesis not established: %s"
                                   % verdict.reason)
    labels.append(CheckLabel("input class is split by the inseparable tower",
                             "oracle" if verdict.vector is not None else "witness"))
    if rationalize_level(tower, f_level) is not None:
        try:
            result = realize(expr_invariants(e), tower, f_level, b_slots=K.radicands())
        except RealizeError as err:
            raise DescentError("decomposition not found: %s" % err)
        slots = _match_slots(result, K)
        labels.append(CheckLabel("decomposition matches all local invariants", "oracle"))
    else:
        result, slots = _albert_search(e, K)
        labels.append(CheckLabel("decomposition verified by elementary reduction",
                                 "witness"))
    if result.length() > K.degree_log:
        raise AssertionError("decomposition length exceeded the radicand count")
    return e, DecompositionResult(result, None, result.length(), slots, labels)


def _match_slots(result: BrauerExpr, K: InsepTower) -> List[Optional[int]]:
    rads = K.radicands()
    out: List[Optional[int]] = []
    for s in result.entries:
        idx = next((i for i, b in enumerate(rads)
                    if tw.lift(b, s.level) == s.b), None)
        out.append(idx)
    return out


def _albert_search(e: BrauerExpr, K: InsepTower) -> Tuple[BrauerExpr, List[Optional[int]]]:
    """Bounded coefficient search for the left slots, one per radicand,
    verified by elementary reduction of e (x) candidate^op to empty, in
    ``product`` order; ``_ClassScreen`` skips choices that cannot close."""
    tower = K.tower
    f_level = K.over_level
    rads = [tw.lift(b, f_level) for b in K.radicands()]
    pool = [tw.lift(tw.Elem(tower, 0, rf), f_level) for h in range(ALBERT_HEIGHT + 1)
            for rf in tw._ratfuncs_of_height(tower, h)]
    screen = _ClassScreen(e, rads, pool)
    for size in range(0, len(rads) + 1):
        for subset in combinations(range(len(rads)), size):
            for choice in screen.choices(subset):
                cand = BrauerExpr(tower, f_level, [Symbol(pool[i], rads[k])
                                                   for k, i in zip(subset, choice)])
                # merges and shifts only: keeps candidate screening cheap
                test = reduce_expr(cand.op().tensor(e), norm_bound=0)
                if test.is_empty():
                    return cand, list(subset)
    raise DescentError("decomposition not found within the search bound "
                       "(left-slot height %d)" % ALBERT_HEIGHT)


class _ClassScreen:
    """The left-slot choices that ``reduce_expr(cand^op (x) e, norm_bound=0)``
    may empty.  Every rule of that reduction (slot shifts, drops of a trivial
    a or of b = 1, same-a merges, shift matching) keeps the map from each
    nonzero Artin-Schreier class of the a slots to the product of its b
    slots modulo p-th powers, and the empty expression maps all to 1.  A
    class of e with no p-th power product is *open*; as each slot joins one
    class, a prefix is cut when more open classes are uncovered than slots
    remain, and a full choice when a class of e it joins stays open."""

    def __init__(self, e: BrauerExpr, rads: List[tw.Elem], pool: List[tw.Elem]):
        self.rads, self.pool, self.p = rads, pool, e.p
        self.nonzero = [i for i, a in enumerate(pool) if not a.is_zero()]
        self.reps, self.prods, self.tags, self.open_at = [], [], {}, {}
        for s in e.entries:
            if tw.artin_schreier_preimage(s.a) is not None:
                continue  # a trivial a slot: dropped
            j = self._class(s.a)
            if j is None:
                self.reps.append(s.a)
                self.prods.append(s.b)
            else:
                self.prods[j] = tw.mul(self.prods[j], s.b)
        self.open = frozenset(j for j in range(len(self.reps)) if self._is_open(j, ()))

    def _class(self, a: tw.Elem) -> Optional[int]:
        """The index of a's class among e's, or None for none."""
        return next((j for j, rep in enumerate(self.reps)
                     if _as_shift_between(a, rep) is not None), None)

    def _tag(self, i: int):
        if i not in self.tags:
            self.tags[i] = self._class(self.pool[i])
        return self.tags[i]

    def _is_open(self, j: int, ks: Tuple[int, ...]) -> bool:
        """Whether e's class j plus cand^op's radicands ks is surely open."""
        if (j, ks) not in self.open_at:
            prod = self.prods[j]
            for k in ks:
                prod = tw.mul(prod, tw.power(self.rads[k], self.p - 1))
            self.open_at[j, ks] = tw.pth_root_in_level(prod) is None
        return self.open_at[j, ks]

    def choices(self, subset: Tuple[int, ...]):
        """The kept choices of pool indices for the radicands ``subset``."""
        def walk(prefix, uncovered):
            left = len(subset) - len(prefix)
            if len(uncovered) > left:
                return
            if left:
                for i in self.nonzero:
                    yield from walk(prefix + (i,), uncovered - {self._tag(i)})
            elif self._may_close(subset, prefix):
                yield prefix
        return walk((), self.open)

    def _may_close(self, subset, choice) -> bool:
        joined = {}
        for k, i in zip(subset, choice):
            if self.tags[i] is not None:
                joined.setdefault(self.tags[i], []).append(k)
        return not any(self._is_open(j, tuple(ks)) for j, ks in joined.items())


# ---------------------------------------------------------------------------
# inseparable splitting fields of cyclic algebras over a finite extension
# ---------------------------------------------------------------------------

def insep_splitting_field(C: Symbol, f_level: int = 0,
                          cfg: SearchConfig = SearchConfig()) -> InsepTower:
    """A purely inseparable tower K over level ``f_level`` such that C dies
    over the compositum of its own level and K.  The radicands are the
    coefficients of the minimal polynomial of the radical slot over the low
    level, with p-th powers and dependent ones discarded.  The guarantee is
    re-verified; failure is reported, never silently accepted."""
    tower = C.tower
    level = C.level
    K = InsepTower(tower, f_level)
    K.try_add_all(tw.min_poly(C.b, f_level)[:-1])
    # verify over the compositum: stack the new roots on top of C's level
    comp = tw.truncate(tower, level)
    for name, b in K.gens:
        b_src = tw.Elem(comp, K.over_level, b.rep)
        try:
            comp = tw.make_step(comp, "insep_root", name, b_src)
        except tw.StepError:
            continue  # absorbed by the separable part; contributes nothing
    lifted = Symbol(tw.lift(tw.rebind(C.a, comp), comp.depth),
                    tw.lift(tw.rebind(C.b, comp), comp.depth))
    verdict = is_split(lifted, strategy="auto", degree_bound=cfg.norm_bound)
    if verdict.status != "split":
        raise DescentError(
            "splitting-field verification failed (%s); refusing to accept the tower"
            % verdict.reason)
    return K


# ---------------------------------------------------------------------------
# reduction of a class that becomes cyclic over the tower
# ---------------------------------------------------------------------------

class ReduceOutcome:
    def __init__(self, split_part: BrauerExpr, cyclic_part: BrauerExpr,
                 certificate: Certificate, case: str, labels: List[CheckLabel],
                 norm_witness: Optional[tw.Elem] = None):
        self.split_part = split_part    # B: dies over the tower
        self.cyclic_part = cyclic_part  # B': at most p - 1 symbols
        self.certificate = certificate
        self.case = case
        self.labels = labels
        self.norm_witness = norm_witness

    def total(self) -> BrauerExpr:
        return self.split_part.tensor(self.cyclic_part)

    def total_length(self) -> int:
        return self.split_part.length() + self.cyclic_part.length()


def reduce_to_cyclic_step(A: BrauerExpr, K: InsepTower, cyclic_data: Symbol,
                          cfg: SearchConfig = SearchConfig()) -> ReduceOutcome:
    """Split A (given A over the tower is equivalent to the supplied cyclic
    symbol) as B (x) B' with B dying over the tower and B' of length at most
    p - 1; the total length never exceeds n + p - 1."""
    tower = K.tower
    f_level = K.over_level
    top = K.top_level
    p = tower.p
    n = K.degree_log
    if A.level != f_level:
        raise LevelMismatch("the class must live at the level below the tower")
    A = A.rebind(tower)
    cyclic = Symbol(tw.rebind(cyclic_data.a, tower), tw.rebind(cyclic_data.b, tower))
    if cyclic.level != top:
        raise ValueError("cyclic data must live at the top of the tower")
    labels = [_hypothesis_label(A, cyclic, top)]

    verdict = is_split(cyclic, strategy="auto", degree_bound=ELEMENTARY_NORM_BOUND)
    if verdict.is_split:
        dec = albert_decompose(A, K)
        empty = BrauerExpr(tower, f_level, [])
        return ReduceOutcome(dec.expr, empty, dec.certificate, "already-split",
                             labels + dec.labels)

    x, y = cyclic.a, cyclic.b
    x_p = tw.descend(tw.power(x, p), f_level)
    y_p = tw.descend(tw.power(y, p), f_level)
    base = tw.truncate(tower, f_level)
    ext = tw.make_step(base, "artin_schreier", tw.fresh_gen_name(base, "w"), x_p)
    z_prime = tw.solve_norm(tw.rebind(y_p, ext), cfg.norm_bound)
    if z_prime is None:
        raise DescentError(
            "no norm witness for the pushed radical slot within degree bound %d"
            % cfg.norm_bound)

    in_f = True
    try:
        z_f = tw.descend(z_prime, f_level)
    except ValueError:
        in_f = False

    if in_f:
        b_prime = Symbol(tw.rebind(x_p, tower), tw.rebind(z_f, tower))
        bp_expr = BrauerExpr(tower, f_level, [b_prime])
        dec = _albert_uncertified(A.tensor(bp_expr.op()), K)[1]
        result = dec.expr.tensor(bp_expr)
        if result.length() > n + p - 1:
            raise AssertionError("decomposition exceeded the n + p - 1 bound")
        cert = certify_equivalence(A, result)
        return ReduceOutcome(dec.expr, bp_expr, cert, "norm-witness-in-base",
                             labels + dec.labels, z_prime)

    # the witness generates the degree-p extension: adjoin p-th roots of its
    # minimal polynomial coefficients (independent, non-p-power ones only)
    M = InsepTower(tower, f_level)
    for name, b in K.gens:
        M.add(tw.Elem(tower, K.over_level, b.rep), name)
    added = M.try_add_all(tw.min_poly(z_prime, f_level)[1:-1])
    dec = _albert_uncertified(A, M)[1]
    b_entries, bp_entries = [], []
    for s, slot in zip(dec.expr.entries, dec.slots):
        if slot is not None and slot in added:
            bp_entries.append(s)
        else:
            b_entries.append(s)
    b_expr = BrauerExpr(M.tower, f_level, b_entries)
    bp_expr = BrauerExpr(M.tower, f_level, bp_entries)
    if bp_expr.length() > p - 1:
        raise AssertionError("cyclic remainder part exceeded p - 1 symbols")
    if b_expr.length() + bp_expr.length() > n + p - 1:
        raise AssertionError("decomposition exceeded the n + p - 1 bound")
    result = b_expr.tensor(bp_expr)
    cert = certify_equivalence(A.rebind(M.tower), result)
    case = "norm-witness-quadratic" if p == 2 else "norm-witness-extension"
    return ReduceOutcome(b_expr, bp_expr, cert, case, labels + dec.labels, z_prime)


def _hypothesis_label(A: BrauerExpr, cyclic: Symbol, top: int) -> CheckLabel:
    claim = "the class over the tower is equivalent to the supplied cyclic symbol"
    test = A.lift_to(top).tensor(BrauerExpr(cyclic.tower, top, [cyclic]).op())
    verdict = expr_is_split(test, degree_bound=ELEMENTARY_NORM_BOUND)
    if verdict.status == "nonsplit":
        raise SplitHypothesisError("cyclic data does not match the class over the tower")
    if verdict.is_split:
        return CheckLabel(claim, "oracle" if verdict.vector is not None else "witness")
    return CheckLabel(claim, "assumed")
