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
from typing import List, Tuple

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
# element, symbol and expression parsing
# ---------------------------------------------------------------------------

# One match per token, in these groups: an integer, the subscript ``_`` right
# after a ``)`` (so ``)_p`` never scans as a name ``_p``), a name, an
# operator, or one character of unrecognized input.  ``findall`` gives each token as the tuple
# of the five groups, the token's own group nonempty.
_TOKEN = re.compile(r"\s*(?:(\d+)|(?<=\))(_)|([A-Za-z_]\w*)|([-+*/^()\[\],{}])|(\S))")
_INT, _SUB, _NAME, _OP, _BAD = range(5)
_END = ("",) * 5  # the token after the last one

_RING_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _name_table(tower, level: int) -> dict:
    """The values of a level's names: variables as polynomials, generators
    as level elements, and ``g`` over GF(p^d), d > 1."""
    from . import towers as tw
    ring = tower.ring
    names = {name: ring.var(name) for name in ring.variables}
    for lvl in range(1, level + 1):
        names[tower.steps[lvl - 1].gen] = tw.lift(tw.gen_elem(tower, lvl), level)
    if tower.base_field.d > 1:
        names["g"] = ring.constant(tower.base_field.gen)
    return names


class ElementParser:
    """Recursive-descent parser of one text: elements of a tower level,
    symbols and expressions.

    The text is scanned once into a token list; the grammar walks it by
    index and compares token values.  An error sits at the end of the last
    token read.  Unrecognized input is a token of its own, which fails at
    the grammar's first look at it, so an error found before that look
    keeps its place.

    A subexpression in the base variables, integers and the constant ``g``
    is read as a ``Poly`` with ring operations only.  It becomes a tower
    element at the first ``/`` between two polynomials (one reducing
    ``RatFunc`` construction per fraction), where it meets a generator or
    a tower element, and at the end of ``element``.  The normal form
    is unique, so the result equals the tower arithmetic of the text.  A
    power whose exponent times its base's degree exceeds
    ``towers.MAX_POWER_DEGREE`` is a ``ParseError`` before it is computed."""

    def __init__(self, tower, level: int, text: str):
        from . import towers as tw
        self.tw = tw
        self.tower = tower
        self.level = level
        self.names = tw._memo(tower, ("names", level), lambda: _name_table(tower, level))
        self.text = text
        self.toks = _TOKEN.findall(text) + [_END]
        self.i = 0

    def _pos(self, i: int) -> int:
        """Where token i is read from: the end of the token before it."""
        return [0, *(m.end() for m in _TOKEN.finditer(self.text))][i]

    def _error(self, message: str = "") -> ParseError:
        """``message`` at the current token, or the unrecognized input there."""
        pos = self._pos(self.i)
        if self.toks[self.i][_BAD]:
            message = "unrecognized input %r" % self.text[pos:].strip()[:10]
        return ParseError(message, pos)

    def _expect(self, group: int, value: str = "") -> str:
        """The current token, of ``group`` (and equal to ``value`` if given);
        steps past it."""
        v = self.toks[self.i][group]
        if not v or value and v != value:
            raise self._error("expected %s" % (value or ("int" if group == _INT else "name")))
        self.i += 1
        return v

    def _int(self, i: int) -> int:
        """The value of the integer token i: a ``ParseError`` at its first
        digit when it has more digits than Python converts
        (``sys.get_int_max_str_digits``)."""
        digits = self.toks[i][_INT]
        try:
            return int(digits)
        except ValueError:
            raise ParseError("integer of %d digits is too long" % len(digits),
                             self._pos(i + 1) - len(digits)) from None

    def _at_end(self, message: str) -> None:
        if self.toks[self.i] is not _END:
            raise self._error(message)

    def parse(self):
        """The whole text as an element."""
        out = self.element()
        self._at_end("trailing input")
        return out

    def element(self):
        return self._elem(self._sum())

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

    def _sum(self):
        toks = self.toks
        neg = False
        while toks[self.i][_OP] in ("-", "+"):
            neg ^= toks[self.i][_OP] == "-"
            self.i += 1
        acc = self._product()
        if neg:
            acc = -acc if isinstance(acc, Poly) else self.tw.neg(acc)
        while True:
            op = toks[self.i][_OP]
            if op != "+" and op != "-":
                return acc
            self.i += 1
            acc = self._apply("add" if op == "+" else "sub", acc, self._product())

    def _product(self):
        toks = self.toks
        acc = self._factor()
        while True:
            op = toks[self.i][_OP]
            if op == "*":
                self.i += 1
                acc = self._apply("mul", acc, self._factor())
            elif op == "/":
                self.i += 1
                at = self.i
                rhs = self._factor()
                if rhs.is_zero():
                    raise ParseError("division by zero", self._pos(at))
                acc = self._apply("div", acc, rhs)
            else:
                return acc

    def _factor(self):
        base = self._atom()
        tok = self.toks[self.i]
        if tok[_OP] != "^":
            if tok[_BAD]:  # the first look at unrecognized input
                raise self._error()
            return base
        self.i += 1
        at = self.i
        self._expect(_INT)
        n = self._int(at)
        if isinstance(base, Poly):
            degree = base.total_degree()
        else:  # at least 1: a generator's coordinates are constants, its powers are not
            degree = max([1] + [max(c.num.total_degree(), c.den.total_degree())
                                for c in self.tw._coordinates(base, 0).values()])
        if n * degree > self.tw.MAX_POWER_DEGREE:
            raise ParseError("power above the degree budget %d" % self.tw.MAX_POWER_DEGREE,
                             self._pos(at))
        return base ** n if isinstance(base, Poly) else self.tw.power(base, n)

    def _atom(self):
        tok = self.toks[self.i]
        if tok[_OP] == "(":
            self.i += 1
            inner = self._sum()
            self._expect(_OP, ")")
            return inner
        if tok[_INT]:
            self.i += 1
            return self.tower.ring.from_int(self._int(self.i - 1))
        if tok[_NAME]:
            self.i += 1
            el = self.names.get(tok[_NAME])
            if el is None:
                raise ParseError("unknown variable %r" % tok[_NAME], self._pos(self.i))
            return el
        raise self._error("unexpected end of input" if tok is _END else "expected a value")

    def symbol(self):
        """``[a, b)_p`` with an optional ``^op``: (symbol, is_op)."""
        from .symbols import Symbol
        self._expect(_OP, "[")
        a = self.element()
        self._expect(_OP, ",")
        b = self.element()
        self._expect(_OP, ")")
        at = self.i
        if not self.toks[at][_SUB]:
            raise ParseError("expected _p after a symbol", self._pos(at))
        self.i += 1
        digits = self._expect(_INT)
        if self._int(self.i - 1) != self.tower.p:
            n = len(digits)
            shown = digits if n <= len(str(MAX_FIELD_SIZE)) else "of %d digits" % n
            raise ParseError("symbol prime %s does not match the field" % shown, self._pos(at))
        tok = self.toks[self.i]
        is_op = tok[_OP] == "^"
        if is_op:
            self.i += 1
            if self._expect(_NAME) != "op":
                raise ParseError("only ^op is allowed on symbols", self._pos(self.i))
        elif tok[_BAD]:  # the first look at unrecognized input
            raise self._error()
        if b.is_zero():
            raise ParseError("the radical slot must be nonzero", self._pos(at))
        return Symbol(a, b), is_op


def parse_element(text: str, tower, level: int = 0):
    return ElementParser(tower, level, text).parse()


def parse_symbol(text: str, tower, level: int = 0):
    parser = ElementParser(tower, level, text)
    out = parser.symbol()
    parser._at_end("trailing input after symbol")
    return out


def parse_expr(text: str, tower, level: int = 0):
    """An expression: symbols joined by ``*``, or ``1`` for the empty one.
    ``^op`` entries expand into p-1 positive copies."""
    from .symbols import BrauerExpr
    parser = ElementParser(tower, level, text)
    if parser.toks[0][_INT] == "1":
        parser.i = 1
        parser._at_end("trailing input after the empty expression")
        return BrauerExpr(tower, level, [])
    entries = []
    while True:
        sym, is_op = parser.symbol()
        entries.extend([sym] * ((tower.p - 1) if is_op else 1))
        if parser.toks[parser.i][_OP] != "*":
            parser._at_end("expected * between symbols")
            return BrauerExpr(tower, level, entries)
        parser.i += 1


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
