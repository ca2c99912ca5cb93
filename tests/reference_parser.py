"""The cursor parser of elements, symbols and expressions, frozen as the
reference for ``test_parse_differential.py``.

It scans one token at a time at the cursor, raises on unrecognized input at
the first look at it, and reads the ``_p`` of a symbol from the raw text.
The package's parser must give the same value, or the same ``ParseError``
message and position, on every text.  Do not change this file to follow
the package: it is the behaviour the package is held to.
"""

from __future__ import annotations

import operator
import re
from typing import Optional, Tuple

from charp import towers as tw
from charp.ffield import MAX_FIELD_SIZE
from charp.poly import Poly, RatFunc
from charp.symbols import BrauerExpr, Symbol
from charp.textform import ParseError

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
    if degree > tw.MAX_POWER_DEGREE:
        raise ParseError("power above the degree budget %d" % tw.MAX_POWER_DEGREE, pos)


def parse_element(text: str, tower, level: int = 0):
    return ElementParser(tower, level).parse(text)


def parse_symbol_cursor(cur: _Cursor, parser: ElementParser, p: int):
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
