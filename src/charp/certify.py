"""Machine-checkable certificates for symbol-expression rewriting.

A certificate is an ordered chain of steps over one tower.  Each step names
its kind, the expressions before and after (as canonical text), and the
witness data that makes it independently re-checkable by field arithmetic:

* MergeSameA: two entries share their left slot and fuse multiplicatively;
* ASShift(c): one left slot moves by c^p - c;
* PthPowerShift(w): one radical slot moves by the p-th power of w;
* SplitNormWitness(z): a split entry is removed, justified by a norm
  computation in the extension defined by its left slot (or by that slot
  being zero);
* FrobeniusPush / ScalarExtend: slotwise p-th powers down an inseparable
  chain, and plain lifts up it;
* Reorder: a permutation of entries;
* AlbertDecomp: an oracle-checked rewrite, replayed by comparing invariant
  vectors on the univariate global backend.

Verification replays every step from its serialized form; acceptance means
each step checks and consecutive steps chain exactly.  Malformed input
(parse failures, level mismatches, bad indices, fields of the wrong JSON
type, arithmetic that fails over a tower whose step is reducible) is
reported distinctly from mathematical rejection.
"""

from __future__ import annotations

import json
from typing import List, Optional

from . import towers as tw
from .symbols import BrauerExpr, Symbol
from .textform import (ParseError, format_elem, format_symbol, format_tower,
                       parse_element, parse_tower)


class CertStep:
    def __init__(self, kind: str, level_before: int, level_after: int,
                 before: List[str], after: List[str], witness: Optional[dict] = None):
        self.kind = kind
        self.level_before = level_before
        self.level_after = level_after
        self.before = before
        self.after = after
        self.witness = {} if witness is None else witness

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "level_before": self.level_before,
            "level_after": self.level_after,
            "before": list(self.before),
            "after": list(self.after),
            "witnesses": self.witness,
        }

    @staticmethod
    def from_json(doc: dict) -> "CertStep":
        """The fields as given, a null ``witnesses`` too;
        ``verify_certificate`` checks their types."""
        step = CertStep(doc["kind"], doc["level_before"], doc["level_after"],
                        doc["before"], doc["after"])
        if "witnesses" in doc:
            step.witness = doc["witnesses"]
        return step


class Certificate:
    def __init__(self, tower_text: str, p: int, steps: List[CertStep]):
        self.tower_text = tower_text
        self.p = p
        self.steps = steps

    def to_json(self) -> str:
        doc = {
            "p": self.p,
            "tower": self.tower_text,
            "steps": [s.to_json() for s in self.steps],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Certificate":
        doc = json.loads(text)
        try:
            return Certificate(doc["tower"], doc["p"],
                               [CertStep.from_json(s) for s in doc["steps"]])
        except (KeyError, TypeError) as err:
            raise ValueError("malformed certificate: %s: %s"
                             % (type(err).__name__, err)) from None


class CertBuilder:
    """Recorder collecting rewrite steps into a certificate."""

    def __init__(self, tower: tw.FieldTower):
        self.tower = tower
        self.steps: List[CertStep] = []

    def record(self, kind: str, before: BrauerExpr, after: BrauerExpr, witness: dict):
        doc = {}
        for key, value in witness.items():
            if isinstance(value, tw.Elem):
                doc[key] = format_elem(value)
            else:
                doc[key] = value
        self.steps.append(CertStep(
            kind,
            before.level, after.level,
            [format_symbol(s) for s in before.entries],
            [format_symbol(s) for s in after.entries],
            doc,
        ))

    def build(self) -> Certificate:
        return Certificate(format_tower(self.tower), self.tower.p, self.steps)


class VerifyOutcome:
    def __init__(self, accepted: bool, failed_step: Optional[int] = None,
                 reason: str = "", malformed: bool = False):
        self.accepted = accepted
        self.failed_step = failed_step
        self.reason = reason
        self.malformed = malformed

    def __bool__(self) -> bool:
        return self.accepted


class _Malformed(Exception):
    pass


class _Rejected(Exception):
    pass


def verify_certificate(cert: Certificate) -> VerifyOutcome:
    """Replay every step; accept exactly when all of them check.  Each
    distinct entry text is parsed once per level and call: step k's
    ``after`` is step k+1's ``before``."""
    if not isinstance(cert.tower_text, str):
        return VerifyOutcome(False, None, "bad tower: not a tower text", malformed=True)
    try:
        tower = parse_tower(cert.tower_text)
    except (ParseError, tw.StepError, ArithmeticError) as err:
        return VerifyOutcome(False, None, "bad tower: %s" % err, malformed=True)
    if tower.p != cert.p:
        return VerifyOutcome(False, None, "prime does not match the tower", malformed=True)
    prev_after: Optional[BrauerExpr] = None
    parsed: dict = {}
    for idx, step in enumerate(cert.steps):
        try:
            _check_fields(step)
            before = _parse_entries(tower, step.level_before, step.before, parsed)
            after = _parse_entries(tower, step.level_after, step.after, parsed)
            if prev_after is not None and (
                    prev_after.level != before.level
                    or prev_after.entries != before.entries):
                raise _Malformed("step does not chain from the previous one")
            _replay(tower, step, before, after)
            prev_after = after
        except _Malformed as err:
            return VerifyOutcome(False, idx, str(err), malformed=True)
        except _Rejected as err:
            return VerifyOutcome(False, idx, str(err))
        except (ParseError, tw.StepError, ValueError, ArithmeticError) as err:
            # ArithmeticError: a division by a zero divisor over a reducible step
            return VerifyOutcome(False, idx, "malformed step: %s" % err, malformed=True)
    return VerifyOutcome(True)


def _is_index(value) -> bool:
    """An integer of JSON: ``bool`` is an ``int`` in Python, but no index."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_fields(step: CertStep) -> None:
    for name in ("level_before", "level_after"):
        if not _is_index(getattr(step, name)):
            raise _Malformed("%s must be an integer, not %r" % (name, getattr(step, name)))
    for name in ("before", "after"):
        texts = getattr(step, name)
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise _Malformed("%s must be a list of entry texts" % name)
    if not isinstance(step.witness, dict):
        raise _Malformed("witnesses must be an object")


def _parse_entries(tower, level: int, texts, parsed: dict) -> BrauerExpr:
    """The expression of ``texts`` at ``level``; ``parsed`` keeps the symbol
    of each (level, text) already read."""
    if level > tower.depth or level < 0:
        raise _Malformed("level %d outside the tower" % level)
    entries = []
    from .textform import parse_symbol
    for text in texts:
        sym = parsed.get((level, text))
        if sym is None:
            sym, is_op = parse_symbol(text, tower, level)
            if is_op:
                raise _Malformed("certificate entries must be sign-free")
            parsed[level, text] = sym
        entries.append(sym)
    return BrauerExpr(tower, level, entries)


def _entry(expr: BrauerExpr, idx) -> Symbol:
    if not _is_index(idx):
        raise _Malformed("entry index %r is not an integer" % (idx,))
    if idx < 0 or idx >= expr.length():
        raise _Malformed("entry index %r out of range" % (idx,))
    return expr.entries[idx]


def _witness_elem(w: dict, key: str, tower, level: int) -> tw.Elem:
    text = w.get(key, "")
    if not isinstance(text, str):
        raise _Malformed("witness %s must be an element text, not %r" % (key, text))
    return parse_element(text, tower, level)


def _expect(cond: bool, message: str):
    if not cond:
        raise _Rejected(message)


def _same_except(before: BrauerExpr, after: BrauerExpr, idx: int) -> None:
    if (len(after.entries) != len(before.entries)
            or any(b != a for k, (b, a) in
                   enumerate(zip(before.entries, after.entries)) if k != idx)):
        raise _Rejected("entries other than the rewritten one changed")


def _replay(tower, step: CertStep, before: BrauerExpr, after: BrauerExpr) -> None:
    kind = step.kind
    w = step.witness
    if kind == "MergeSameA":
        i, j = w.get("i"), w.get("j")
        si, sj = _entry(before, i), _entry(before, j)
        if i == j:
            raise _Malformed("a merge needs two distinct entries")
        _expect(si.a == sj.a, "merged entries do not share their left slot")
        merged = Symbol(si.a, tw.mul(si.b, sj.b))
        entries = list(before.entries)
        entries[i] = merged
        entries.pop(j)
        _expect(after.entries == tuple(entries) and after.level == before.level,
                "merge result does not match")
    elif kind == "ASShift":
        idx = w.get("index")
        c = _witness_elem(w, "c", tower, before.level)
        s = _entry(before, idx)
        t = _entry(after, idx)
        _same_except(before, after, idx)
        _expect(after.level == before.level, "level changed under a shift")
        _expect(t.b == s.b, "radical slot changed under a left-slot shift")
        _expect(t.a == tw.add(s.a, tw.wp(c)), "left slots do not differ by c^p - c")
    elif kind == "PthPowerShift":
        idx = w.get("index")
        ww = _witness_elem(w, "w", tower, before.level)
        _expect(not ww.is_zero(), "shift by the p-th power of zero")
        s = _entry(before, idx)
        t = _entry(after, idx)
        _same_except(before, after, idx)
        _expect(after.level == before.level, "level changed under a shift")
        _expect(t.a == s.a, "left slot changed under a radical shift")
        _expect(t.b == tw.mul(s.b, tw.power(ww, tower.p)),
                "radical slots do not differ by a p-th power")
    elif kind == "SplitNormWitness":
        idx = w.get("index")
        s = _entry(before, idx)
        entries = list(before.entries)
        entries.pop(idx)
        _expect(after.entries == tuple(entries) and after.level == before.level,
                "removal result does not match")
        if w.get("kind") == "zero-a":
            _expect(s.a.is_zero(), "left slot is not zero")
        else:
            from .symbols import splitting_extension
            ext = splitting_extension(s)
            _expect(ext is not None,
                    "left slot is trivial; use the zero-a form instead")
            z = _witness_elem(w, "z", ext, s.level + 1)
            _expect(not z.is_zero(), "zero norm witness")
            _expect(tw.norm(z, s.level) == tw.rebind(s.b, ext),
                    "witness norm does not equal the radical slot")
    elif kind == "FrobeniusPush":
        _expect(after.level < before.level, "push must lower the level")
        from .descent import DescentError, check_exponent_one
        try:
            check_exponent_one(tower, after.level, before.level)
        except DescentError as err:
            raise _Rejected(str(err)) from None
        _expect(len(after.entries) == len(before.entries), "entry count changed")
        p = tower.p
        for s, t in zip(before.entries, after.entries):
            _expect(tw.lift(t.a, before.level) == tw.power(s.a, p)
                    and tw.lift(t.b, before.level) == tw.power(s.b, p),
                    "pushed slots are not the p-th powers")
    elif kind == "ScalarExtend":
        _expect(after.level > before.level, "extension must raise the level")
        _expect(len(after.entries) == len(before.entries), "entry count changed")
        for s, t in zip(before.entries, after.entries):
            _expect(t == s.lift_to(after.level), "entries are not plain lifts")
    elif kind == "Reorder":
        perm = w.get("perm")
        if (not isinstance(perm, list) or not all(_is_index(k) for k in perm)
                or sorted(perm) != list(range(before.length()))):
            raise _Malformed("bad permutation")
        _expect(after.entries == tuple(before.entries[i] for i in perm)
                and after.level == before.level, "reorder result does not match")
    elif kind == "AlbertDecomp":
        _expect(after.level == before.level, "oracle rewrite must preserve the level")
        from .invariants import BackendError
        from .oracle import expr_invariants
        try:
            vb = expr_invariants(before)
            va = expr_invariants(after)
        except BackendError as err:
            raise _Rejected("oracle unavailable for this level: %s" % err)
        _expect(vb == va, "invariant vectors differ")
    else:
        raise _Malformed("unknown step kind %r" % kind)

