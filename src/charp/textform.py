"""Canonical text formats and parsers.

Element grammar (shared with the command line): integers, variable names,
``+ - * / ^`` and parentheses; constant-field elements are polynomials in
the generator symbol ``g``, a name no variable or generator may take over
GF(p^d), d > 1.  Symbols are written ``[a, b)_p`` with an
optional ``^op`` suffix; expressions join symbols with ``*``; towers are
``GF(q)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t``, Artin-Schreier and
root steps only.

Printing is canonical (graded lexicographic term order, normalized
fractions), so parse(print(x)) reproduces x and print is injective on
normal forms; serialized artifacts round-trip byte for byte.
"""

from __future__ import annotations

import operator
import re
from typing import List, Optional, Tuple

from .ffield import MAX_FIELD_SIZE, FFElem, FiniteField, _least_factor
from .poly import Poly, PolyRing, RatFunc


class ParseError(ValueError):
    """Syntax or semantic error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_ff(field: FiniteField, c: FFElem) -> str:
    if field.is_zero(c):
        return "0"
    parts = []
    for e in range(field.d - 1, -1, -1):
        digit = c[e]
        if not digit:
            continue
        if e == 0:
            parts.append(str(digit))
        else:
            head = "" if digit == 1 else "%d*" % digit
            parts.append(head + ("g" if e == 1 else "g^%d" % e))
    return "+".join(parts)


def _format_monomial(ring: PolyRing, mon) -> str:
    pieces = []
    for name, e in zip(ring.variables, mon):
        if e == 0:
            continue
        pieces.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(pieces)


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    ring = f.ring
    field = ring.field
    parts = []
    for mon, c in f.sorted_terms():
        mon_str = _format_monomial(ring, mon)
        c_str = format_ff(field, c)
        if not mon_str:
            parts.append(c_str if ("+" not in c_str) else "(%s)" % c_str)
        elif c == field.one:
            parts.append(mon_str)
        elif "+" in c_str or "*" in c_str:
            parts.append("(%s)*%s" % (c_str, mon_str))
        else:
            parts.append("%s*%s" % (c_str, mon_str))
    return "+".join(parts)


def _wrap(s: str) -> str:
    return s if re.fullmatch(r"[A-Za-z_]\w*(\^\d+)?|\d+", s) else "(%s)" % s


def format_ratfunc(x: RatFunc) -> str:
    num = format_poly(x.num)
    if x.den == x.ring.one():
        return num
    return "%s/%s" % (_wrap(num), _wrap(format_poly(x.den)))


def format_elem(x) -> str:
    """A tower element as a sum of coefficient * generator-monomial terms."""
    from . import towers as tw
    tower = x.tower
    coords = tw._coordinates(x, 0)
    gens = tower.generator_names(x.level)
    parts = []
    for key in sorted(coords, key=lambda k: (sum(k), k)):
        coeff = coords[key]
        if coeff.is_zero():
            continue
        mon = "*".join(
            (g if e == 1 else "%s^%d" % (g, e))
            for g, e in zip(gens, key) if e)
        c_str = format_ratfunc(coeff)
        if not mon:
            parts.append(c_str)
        elif c_str == "1":
            parts.append(mon)
        else:
            parts.append("%s*%s" % (_wrap(c_str), mon))
    if not parts:
        return "0"
    return "+".join(parts)


def format_symbol(s) -> str:
    return "[%s, %s)_%d" % (format_elem(s.a), format_elem(s.b), s.p)


def format_expr(e) -> str:
    if e.is_empty():
        return "1"
    return " * ".join(format_symbol(s) for s in e.entries)


def format_tower(t) -> str:
    head = "GF(%d)(%s)" % (t.base_field.order, ",".join(t.ring.variables))
    parts = [head]
    from . import towers as tw
    for level in range(1, t.depth + 1):
        step = t.steps[level - 1]
        rhs = format_elem(tw.step_defining_elem(t, level))
        if step.kind == "artin_schreier":
            parts.append("AS %s: %s = %s" % (step.gen, _as_lhs(step.gen, t.p), rhs))
        else:
            parts.append("ROOT %s: %s^%d = %s" % (step.gen, step.gen, t.p, rhs))
    return " ; ".join(parts)


def _as_lhs(gen: str, p: int) -> str:
    if p == 2:
        return "%s^2+%s" % (gen, gen)
    return "%s^%d+%d*%s" % (gen, p, p - 1, gen)


def format_place(place) -> str:
    if place.pi is None:
        return "inf"
    return "(%s)" % format_poly(place.pi)


def format_invariant_vector(v) -> str:
    if v.is_zero():
        return "{}"
    parts = ["%s: %d/%d" % (format_place(pl), v.entries[pl], v.p)
             for pl in v.support()]
    return "{%s}" % ", ".join(parts)


def invariant_vector_json(v) -> dict:
    return {
        "p": v.p,
        "entries": [{"place": format_place(pl), "value": v.entries[pl]}
                    for pl in v.support()],
    }


# ---------------------------------------------------------------------------
# element parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^|\+|\-|\*|/|\(|\)|\[|\]|,|\{|\}))")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._scanned = (None, None)

    def peek(self) -> Optional[Tuple[str, str, int]]:
        at, tok = self._scanned
        if at == self.pos:
            return tok
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].strip()
            if rest:
                raise ParseError("unrecognized input %r" % rest[:10], self.pos)
            tok = None
        elif m.group(1) is not None:
            tok = ("int", m.group(1), m.end())
        elif m.group(2) is not None:
            tok = ("name", m.group(2), m.end())
        else:
            tok = ("op", m.group(3), m.end())
        self._scanned = (self.pos, tok)
        return tok

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos = tok[2]
        return tok

    def accept(self, kind: str, value: Optional[str] = None):
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            return None
        self.pos = tok[2]
        return tok

    def expect(self, kind: str, value: Optional[str] = None):
        tok = self.accept(kind, value)
        if tok is None:
            raise ParseError("expected %s" % (value or kind), self.pos)
        return tok

    def at_end(self) -> bool:
        return self.peek() is None


_RING_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


class ElementParser:
    """Recursive-descent parser for level elements of a tower.

    A subexpression in the base variables, integers and the constant ``g``
    is read as a ``Poly`` with ring operations only.  It becomes a tower
    element at the first ``/`` between two polynomials (one reducing
    ``RatFunc`` construction per fraction), where it meets a generator or
    a tower element, and at the end of ``parse_cursor``.  The normal form
    is unique, so the result equals the tower arithmetic of the text.  A
    power whose exponent times its base's degree exceeds
    ``towers.MAX_POWER_DEGREE`` is a ``ParseError`` before it is computed."""

    def __init__(self, tower, level: int):
        from . import towers as tw
        self.tw = tw
        self.tower = tower
        self.level = level
        ring = tower.ring
        self.names = {name: ring.var(name) for name in ring.variables}
        for lvl in range(1, level + 1):
            gen = tower.steps[lvl - 1].gen
            self.names[gen] = tw.lift(tw.gen_elem(tower, lvl), level)
        if tower.base_field.d > 1:
            self.names["g"] = ring.constant(tower.base_field.gen)

    def parse(self, text: str):
        cur = _Cursor(text)
        out = self.parse_cursor(cur)
        if not cur.at_end():
            raise ParseError("trailing input", cur.pos)
        return out

    def parse_cursor(self, cur: _Cursor):
        return self._elem(self._sum(cur))

    def _elem(self, x):
        """A ``Poly``, ``RatFunc`` or element as an element of the parser's
        level."""
        if isinstance(x, Poly):
            x = RatFunc.from_poly(x)
        if isinstance(x, RatFunc):
            x = self.tw.lift(self.tw.Elem(self.tower, 0, x), self.level)
        return x

    def _apply(self, name: str, a, b):
        """``a name b`` in the ring while both are polynomials, in the tower
        otherwise."""
        if isinstance(a, Poly) and isinstance(b, Poly):
            if name == "div":
                return self._elem(RatFunc(a, b))
            return _RING_OPS[name](a, b)
        return getattr(self.tw, name)(self._elem(a), self._elem(b))

    def _sum(self, cur: _Cursor):
        neg = False
        while True:
            if cur.accept("op", "-"):
                neg = not neg
            elif cur.accept("op", "+"):
                pass
            else:
                break
        acc = self._product(cur)
        if neg:
            acc = -acc if isinstance(acc, Poly) else self.tw.neg(acc)
        while True:
            if cur.accept("op", "+"):
                acc = self._apply("add", acc, self._product(cur))
            elif cur.accept("op", "-"):
                acc = self._apply("sub", acc, self._product(cur))
            else:
                return acc

    def _product(self, cur: _Cursor):
        acc = self._factor(cur)
        while True:
            if cur.accept("op", "*"):
                acc = self._apply("mul", acc, self._factor(cur))
            elif cur.accept("op", "/"):
                pos = cur.pos
                rhs = self._factor(cur)
                if rhs.is_zero():
                    raise ParseError("division by zero", pos)
                acc = self._apply("div", acc, rhs)
            else:
                return acc

    def _factor(self, cur: _Cursor):
        base = self._atom(cur)
        if cur.accept("op", "^"):
            pos = cur.pos
            n = _int_token(*cur.expect("int")[1:])
            if isinstance(base, Poly):
                degree = base.total_degree()
            else:  # at least 1: a generator's coordinates are constants, its powers are not
                degree = max([1] + [max(c.num.total_degree(), c.den.total_degree())
                                    for c in self.tw._coordinates(base, 0).values()])
            _check_power_budget(n * degree, pos)
            return base ** n if isinstance(base, Poly) else self.tw.power(base, n)
        return base

    def _atom(self, cur: _Cursor):
        if cur.accept("op", "("):
            inner = self._sum(cur)
            cur.expect("op", ")")
            return inner
        tok = cur.peek()
        if tok is None:
            raise ParseError("unexpected end of input", cur.pos)
        if tok[0] == "int":
            cur.next()
            return self.tower.ring.from_int(_int_token(*tok[1:]))
        if tok[0] == "name":
            cur.next()
            el = self.names.get(tok[1])
            if el is None:
                raise ParseError("unknown variable %r" % tok[1], cur.pos)
            return el
        raise ParseError("expected a value", cur.pos)


def _int_token(digits: str, end: int) -> int:
    """The value of the digit run ``digits`` that ends at ``end``: a
    ``ParseError`` at its first digit when it has more digits than Python
    converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer of %d digits is too long" % len(digits),
                         end - len(digits)) from None


def _check_power_budget(degree: int, pos: int) -> None:
    """A ``ParseError`` at ``pos`` when a power of this degree (exponent times
    its base's degree) exceeds ``towers.MAX_POWER_DEGREE``."""
    from . import towers as tw
    if degree > tw.MAX_POWER_DEGREE:
        raise ParseError("power above the degree budget %d" % tw.MAX_POWER_DEGREE, pos)


def parse_element(text: str, tower, level: int = 0):
    return ElementParser(tower, level).parse(text)


# ---------------------------------------------------------------------------
# symbols and expressions
# ---------------------------------------------------------------------------

def parse_symbol_cursor(cur: _Cursor, parser: ElementParser, p: int):
    from .symbols import Symbol
    cur.expect("op", "[")
    a = parser.parse_cursor(cur)
    cur.expect("op", ",")
    b = parser.parse_cursor(cur)
    cur.expect("op", ")")
    pos = cur.pos
    if cur.text[cur.pos:cur.pos + 1] != "_":
        raise ParseError("expected _p after a symbol", pos)
    cur.pos += 1
    tok = cur.expect("int")
    if _int_token(*tok[1:]) != p:
        n = len(tok[1])
        shown = tok[1] if n <= len(str(MAX_FIELD_SIZE)) else "of %d digits" % n
        raise ParseError("symbol prime %s does not match the field" % shown, pos)
    is_op = False
    if cur.accept("op", "^"):
        name = cur.expect("name")
        if name[1] != "op":
            raise ParseError("only ^op is allowed on symbols", cur.pos)
        is_op = True
    if b.is_zero():
        raise ParseError("the radical slot must be nonzero", pos)
    return Symbol(a, b), is_op


def parse_symbol(text: str, tower, level: int = 0):
    parser = ElementParser(tower, level)
    cur = _Cursor(text)
    sym, is_op = parse_symbol_cursor(cur, parser, tower.p)
    if not cur.at_end():
        raise ParseError("trailing input after symbol", cur.pos)
    return sym, is_op


def parse_expr(text: str, tower, level: int = 0):
    """An expression: symbols joined by ``*``, or ``1`` for the empty one.
    ``^op`` entries expand into p-1 positive copies."""
    from .symbols import BrauerExpr
    parser = ElementParser(tower, level)
    cur = _Cursor(text)
    entries = []
    if cur.accept("int", "1"):
        if not cur.at_end():
            raise ParseError("trailing input after the empty expression", cur.pos)
        return BrauerExpr(tower, level, [])
    while True:
        sym, is_op = parse_symbol_cursor(cur, parser, tower.p)
        entries.extend([sym] * ((tower.p - 1) if is_op else 1))
        if cur.accept("op", "*"):
            continue
        if not cur.at_end():
            raise ParseError("expected * between symbols", cur.pos)
        return BrauerExpr(tower, level, entries)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _parse_gf(head: str) -> Tuple[FiniteField, List[str]]:
    m = re.fullmatch(r"\s*GF\((\d+)\)\(([^)]*)\)\s*", head)
    if m is None:
        raise ParseError("expected GF(q)(vars)", 0)
    digits = m.group(1).lstrip("0") or "0"
    if len(digits) > len(str(MAX_FIELD_SIZE)) or int(digits) > MAX_FIELD_SIZE:
        raise ParseError("constant field size above %d" % MAX_FIELD_SIZE, 0)
    q = int(digits)
    if q < 2:
        raise ParseError("constant field size must be a prime power", 0)
    p = _least_factor(q)
    d = next(k for k in range(1, q.bit_length() + 1) if p ** k >= q)
    if p ** d != q:
        raise ParseError("constant field size must be a prime power", 0)
    variables = [v.strip() for v in m.group(2).split(",") if v.strip()]
    if not variables:
        raise ParseError("at least one base variable is required", 0)
    return FiniteField(p, d), variables


def parse_tower(text: str):
    """A tower from its text: ``GF(q)(vars)`` and steps after ``;``.  Every
    ``ParseError`` position counts from the start of ``text``; errors in a
    step's shape sit at the start of that step."""
    from . import towers as tw
    chunks = []
    start = 0
    for raw in text.split(";"):
        chunks.append((start + len(raw) - len(raw.lstrip()), raw.strip()))
        start += len(raw) + 1
    at, head = chunks[0]
    field, variables = _at_offset(at, _parse_gf, head)
    try:
        tower = tw.FieldTower(field, variables)
    except ValueError as err:
        raise ParseError(str(err), at) from None
    p = field.p
    for at, chunk in chunks[1:]:
        if not chunk:
            continue
        m = re.match(r"(AS|ROOT)\s+([A-Za-z_]\w*)\s*:\s*(.*)$", chunk)
        if m is None:
            raise ParseError("expected 'AS g: ...' or 'ROOT g: ...'", at)
        kind_word, gen, body = m.group(1), m.group(2), m.group(3)
        lhs, _, rhs = body.partition("=")
        if not rhs:
            raise ParseError("missing '=' in step %r" % chunk, at)
        want = _as_lhs(gen, p) if kind_word == "AS" else "%s^%d" % (gen, p)
        if lhs.replace(" ", "") != want:
            raise ParseError("step left side must be %r" % want, at)
        rhs_at = at + m.start(3) + len(lhs) + 1
        data = _at_offset(rhs_at + len(rhs) - len(rhs.lstrip()), parse_element,
                          rhs.strip(), tower, tower.depth)
        kind = "artin_schreier" if kind_word == "AS" else "insep_root"
        tower = tw.make_step(tower, kind, gen, data)
    return tower


def _at_offset(offset: int, parse, text: str, *args):
    """``parse(text, *args)`` for a piece of a longer text that starts at
    ``offset``: a ``ParseError`` is raised again at its position there."""
    try:
        return parse(text, *args)
    except ParseError as err:
        raise ParseError(err.message, offset + err.pos) from None
