"""Family-file parsing and canonical printing.

The input language is small: optional single-argument macros bound with `let`,
then assignments to g8 and g12. Statements are separated by newlines or
semicolons, `#` starts a line comment.

    let g4(u) = 3*(u^4 + 2*u)
    g8  = g4(s/t) * g4(1/(t*s)) * s^4
    g12 = ...

A g8 or g12 statement whose right side is a sum of monomials in the
printer's grammar, such as every line of a canonical text, is read term by
term: an optional leading '-', then terms joined by '+' or '-' (spaces
allowed around them), each a nonempty '*'-product, in this order, of an
ASCII integer c or c/d, t or t^b, and s or s^a. _read_terms matches one
whole term at a time and builds the value _eval would give it, and the
terms go to _monomial_sum as _eval's sum of them does. Every other
statement, macros and parentheses among them, is tokenized, parsed to a
tree by _Parser and evaluated by _eval.

Expressions are evaluated exactly in the fraction field of Q[s, t], on the
integer kernel of field.py: a value is s^a * t^b * (n/e) * P(t^d, s) / Q(t^d, s)
with P, Q in Z[u][s] primitive (integer content 1, first nonzero entry
positive) and free of factors s and u, and d the gcd of the gaps between its
t-exponents (0 when there are none), so t^100000000 is a single entry. The
kernel's shape/reduce pair normalizes it as it does a form: a value with
Q = 1 is the SForm t^b * (n/e) * P(t^d, s), its s^a a leading empty rows, so
_finalize wraps it as it stands. A monomial is P = Q = _ONE, the one shared
[[1]] that every value with a P or Q of [[1]] holds, so an identity test
tells it apart: _mul and _pow of monomials add or scale the exponents and
multiply or raise n and e, after the size checks the array route would run,
and a sum of monomials is collected by exponent in one pass, like terms
cancelling first, so a sum of monomials builds no array before its sum.
Other sums are added pairwise in a balanced tree. No evaluation builds an
array of s- or u-degree past MAX_SPAN, or runs a product whose coefficients
could pass MAX_BITS bits, no expression nests deeper than MAX_DEPTH, and no
statement expands more than MAX_CALLS macro calls; an input that would is a
ParseError. A result is accepted only if its reduced denominator is a
single monomial c*s^a*t^b, i.e. Q divides P; the s-part must then be a true
polynomial of degree at most the slot's formal degree, while negative (and
only integer) t-powers are fine.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from ..errors import DegreeError, NotPolynomialError, ParseError
from .field import (
    content, first, lead, reduce, sadd, sdiv_exact, shape, smul, snorm, spow, sscale, uspread,
)
from .forms import FamilyPair, SForm

# ---------------------------------------------------------------------------
# values s^a * t^b * (n/e) * P(t^d, s) / Q(t^d, s) as tuples (a, b, d, n, e, P, Q)
# ---------------------------------------------------------------------------

MAX_SPAN = 1 << 14  # largest s- or u-degree an evaluation may build (see forms.MAX_SPREAD)
MAX_BITS = 1 << 9  # largest coefficient size, in bits, a product may build
MAX_DEPTH = 64  # deepest nesting of an expression, macro calls included
MAX_CALLS = 1 << 10  # most macro calls one statement may expand

# P and Q are primitive, first nonzero entry positive, with no factor s or
# u, and gcd(n, e) = 1. A P or Q of one entry is _ONE itself, so the monomial
# c*s^a*t^b is (a, b, 0, n, e, _ONE, _ONE) with c = n/e; zero has n = 0 and
# P = []; e may be negative. The size bounds are stated for the numerator
# n*P and the denominator e*Q, the arrays with the scalars multiplied in.
_ONE = [[1]]
_ZERO = (0, 0, 0, 0, 1, [], _ONE)
_S = (1, 0, 0, 1, 1, _ONE, _ONE)
_T = (0, 1, 0, 1, 1, _ONE, _ONE)


def _fit(*spans: int, bits: int = 0) -> None:
    if max(spans) > MAX_SPAN or bits > MAX_BITS:
        raise ParseError("expression too large")


def _bits(c: int, p: list) -> int:
    """Bits of the 1-norm of c*p, rounded up. The 1-norm of a product is at
    most the product of its factors' 1-norms, and bounds every coefficient."""
    norm = 1 if p == _ONE else sum(abs(x) for row in p for x in row)
    return (abs(c) * norm - 1).bit_length()


def _uspan(p: list) -> int:
    return max(map(len, p), default=1) - 1


def _value(a: int, b: int, d: int, n: int, e: int, num: list, den: list) -> tuple:
    """s^a * t^b * (n/e) * num(t^d, s) / den(t^d, s) as a value: the s- and
    u-power factors of num and den moved into (a, b), d made the gcd of the
    u-exponent gaps of both, 0 when there are none, and the signed integer
    contents of num and den moved into n and e, which are then reduced."""
    num = snorm(num)
    if not num or not n:
        return _ZERO
    i, k = first(num), first(den)
    num, den = num[i:], den[k:]
    j, g, c = shape(num)
    l, g, f = shape(den, g)
    h = gcd(n * c, e * f)
    num, den = reduce(num, j, g, c), reduce(den, l, g, f)
    return (
        a + i - k, b + (j - l) * d, d * g, n * c // h, e * f // h,
        _ONE if num == _ONE else num, _ONE if den == _ONE else den,
    )


def _align(x: tuple, a: int, b: int, d: int) -> tuple[list, list]:
    """x's P times s^(xa - a) * t^(xb - b), and its Q, on the step d, which
    divides x's."""
    xa, xb, xd, _, _, p, q = x
    i, j, k = xa - a, (xb - b) // d if d else 0, xd // d if xd else 1
    if i == j == 0 and k == 1:  # every value's own arrays fit
        return p, q
    _fit(i + len(p) - 1, j + _uspan(p) * k, _uspan(q) * k)
    return [[]] * i + [uspread(c, j, k) for c in p], [uspread(c, 0, k) for c in q]


def _fit_product(c: int, p: list, k: int, q: list) -> None:
    """Unless c*p or k*q is [[1]], refuses their product if it could pass
    MAX_SPAN or MAX_BITS."""
    if not (c == 1 and p == _ONE or k == 1 and q == _ONE):
        _fit(len(p) + len(q) - 2, _uspan(p) + _uspan(q), bits=_bits(c, p) + _bits(k, q))


def _product(c: int, p: list, k: int, q: list) -> list:
    """p*q: the product of c*p and k*q, less its scalar c*k, refused by
    _fit_product before it runs."""
    _fit_product(c, p, k, q)
    return q if p == _ONE else p if q == _ONE else smul(p, q)


def _add(x: tuple, y: tuple) -> tuple:
    if not x[3] or not y[3]:
        return y if not x[3] else x
    a, b = min(x[0], y[0]), min(x[1], y[1])
    d = gcd(x[2], y[2], x[1] - b, y[1] - b)
    (p1, q1), (p2, q2) = _align(x, a, b, d), _align(y, a, b, d)
    n1, e1, n2, e2 = sscale(x[3], p1), sscale(x[4], q1), sscale(y[3], p2), sscale(y[4], q2)
    if e1 == e2:
        return _value(a, b, d, 1, 1, sadd(n1, n2), e1)
    return _value(
        a, b, d, 1, 1,
        sadd(_product(1, n1, 1, e2), _product(1, n2, 1, e1)), _product(1, e1, 1, e2),
    )


def _neg(x: tuple) -> tuple:
    a, b, d, n, e, p, q = x
    return a, b, d, -n, e, p, q


def _mul(x: tuple, y: tuple) -> tuple:
    if not x[3] or not y[3]:
        return _ZERO
    if x[5] is x[6] is y[5] is y[6] is _ONE:  # monomials: the exponents add
        _fit_product(x[3], _ONE, y[3], _ONE)
        _fit_product(x[4], _ONE, y[4], _ONE)
        n, e = x[3] * y[3], x[4] * y[4]
        g = gcd(n, e)
        return x[0] + y[0], x[1] + y[1], 0, n // g, e // g, _ONE, _ONE
    d = gcd(x[2], y[2])
    (p1, q1), (p2, q2) = _align(x, x[0], x[1], d), _align(y, y[0], y[1], d)
    return _value(
        x[0] + y[0], x[1] + y[1], d, x[3] * y[3], x[4] * y[4],
        _product(x[3], p1, y[3], p2), _product(x[4], q1, y[4], q2),
    )


def _inverse(x: tuple) -> tuple:
    a, b, d, n, e, p, q = x
    if not n:
        raise NotPolynomialError("division by zero in expression")
    return -a, -b, d, e, n, q, p


def _pow(x: tuple, k: int) -> tuple:
    if k < 0:
        x, k = _inverse(x), -k
    a, b, d, n, e, p, q = x
    if p is q is _ONE:  # a monomial: the exponents scale, n^k and e^k stay coprime
        _fit(0, bits=k * (max(abs(n), abs(e)) - 1).bit_length())
        return a * k, b * k, 0, n**k, e**k, _ONE, _ONE
    _fit(
        k * (len(p) - 1), k * _uspan(p), k * (len(q) - 1), k * _uspan(q),
        bits=k * max(_bits(n, p), _bits(e, q)),
    )
    return _value(a * k, b * k, d, n**k, e**k, spow(p, k), spow(q, k))


def _monomial_sum(terms: list) -> tuple:
    """A sum of monomials, added by exponent in one pass. Like terms cancel
    first; then the extent of what remains, and its common denominator as
    it grows, are checked before any array is built. The denominator is
    refused only once it exceeds every term's own and passes MAX_BITS bits:
    the balanced tree of _add, whose products are checked, refuses such a
    sum too."""
    coeffs: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b, _, n, e, _, _ in terms:
        if (a, b) in coeffs:  # over the lcm of the two denominators
            m, f = coeffs[a, b]
            g = gcd(e, f)
            n, e = m * (e // g) + n * (f // g), f // g * e
        coeffs[a, b] = (n, e) if n else (0, 1)  # cancelled: start afresh
    live = [(a, b, n // g, e // g) for (a, b), (n, e) in coeffs.items() if n for g in [gcd(n, e)]]
    if not live:
        return _ZERO
    a0, b0 = min(t[0] for t in live), min(t[1] for t in live)
    rows = max(t[0] for t in live) - a0 + 1
    step = gcd(*(t[1] - b0 for t in live))
    _fit(rows - 1, (max(t[1] for t in live) - b0) // (step or 1))
    largest = max(abs(x[4]) for x in terms)
    den = 1
    for *_, e in live:
        den = lcm(den, e)
        if den > largest:
            _fit(0, bits=(den - 1).bit_length())
    num: list[list[int]] = [[] for _ in range(rows)]
    for a, b, n, e in live:
        row, k = num[a - a0], (b - b0) // (step or 1)
        row.extend([0] * (k + 1 - len(row)))
        row[k] = n * (den // e)
    # s^a0 and t^b0 are the lowest powers and step the gap gcd, so only the
    # content, signed like the first entry, remains to be taken out
    c = content(num) if lead(num) > 0 else -content(num)
    h = gcd(c, den)
    return a0, b0, step, c // h, den // h, _ONE if len(live) == 1 else reduce(num, 0, 0, c), _ONE


# ---------------------------------------------------------------------------
# tokenizer and recursive-descent parser to a small tuple AST; a run of
# sums (or of products) is one flat "chain" node: a sum's terms are added by
# _sum, a product's factors left to right
# ---------------------------------------------------------------------------

_RESERVED = ("s", "t", "g8", "g12", "let")  # neither macro names nor parameters
# a literal, word, operator or other non-space character; finditer steps over
# space (a leading \s* would rescan a space run from each of its positions).
# Unicode \s, \d, \w are isspace, isdecimal, isalnum or '_'; a word that
# starts with neither a letter nor '_', such as '²', is an unexpected character
_TOKEN = re.compile(r"(\d+)|(\w+)|([-+*/^()=])|(\S)")


def _tokenize(stmt: str, offset: int = 0) -> list[tuple[str, object, int]]:
    """Tokens as (kind, value, column); columns are 1-based within the line,
    offset by the statement's position after semicolon splitting. The last
    token is ("end", None, column just past the statement's last character)."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(stmt):
        digits, word, op, other = m.groups()
        col = offset + m.start() + 1
        if digits:
            try:
                value = int(digits)
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    "column %d: integer literal of %d digits is too long" % (col, len(digits))
                ) from None
            toks.append(("int", value, col))
        elif op:
            toks.append((op, op, col))
        elif word and (word[0].isalpha() or word[0] == "_"):
            toks.append(("name", word, col))
        else:
            raise ParseError("column %d: unexpected character %r" % (col, (word or other)[0]))
    toks.append(("end", None, offset + len(stmt.rstrip()) + 1))
    return toks


class _Parser:
    """Parses one statement, checking each name as it is read against the
    macros defined so far; in a macro body, name and param are the macro's
    own name and parameter."""

    def __init__(self, toks: list[tuple[str, object, int]], macros: dict):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.macros = macros
        self.name = self.param = None

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def col(self) -> int:
        return self.toks[self.pos][2]

    def take(self, kind: str | None = None):
        k, v, c = self.toks[self.pos]
        if k == "end":
            raise ParseError("column %d: unexpected end of statement" % c)
        if kind is not None and k != kind:
            raise ParseError("column %d: expected %s but found %r" % (c, kind, v))
        self.pos += 1
        return v

    def done(self) -> bool:
        return self.peek() == "end"

    def nested(self, parse):
        """parse() one nesting level deeper."""
        if self.depth >= MAX_DEPTH:
            raise ParseError("expression nested too deeply")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def chain(self, operand, ops: tuple[str, str]):
        first = operand()
        rest = []
        while self.peek() in ops:
            op = self.take()
            rest.append((op, operand()))
        return ("chain", first, rest) if rest else first

    # expr := term {(+|-) term}
    def expr(self):
        return self.chain(self.term, ("+", "-"))

    # term := factor {(*|/) factor}
    def term(self):
        return self.chain(self.factor, ("*", "/"))

    # factor := ['-'] factor | power
    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.nested(self.factor))
        return self.power()

    # power := atom ['^' exponent]
    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            node = ("pow", node, self.exponent())
        return node

    def exponent(self) -> int:
        if self.peek() == "(":
            self.take()
            e = self.nested(self.exponent)
            self.take(")")
            return e
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return sign * int(self.take("int"))

    def atom(self):
        k = self.peek()
        if k == "int":
            return ("num", self.take())
        if k == "(":
            self.take()
            node = self.nested(self.expr)
            self.take(")")
            return node
        if k == "name":
            name = self.take()
            if self.peek() == "(":
                if name == self.name:
                    raise ParseError("macro %r may not call itself" % name)
                if name not in self.macros:
                    raise ParseError("macro %r is not defined (define before use)" % name)
                self.take()
                arg = self.nested(self.expr)
                self.take(")")
                return ("call", name, arg)
            if name not in ("s", "t") and name != self.param:
                if name in self.macros or name == self.name:
                    raise ParseError("macro %r used without an argument" % name)
                raise ParseError("unknown name %r" % name)
            return ("var", name)
        raise ParseError("column %d: unexpected %r" % (self.col(), self.take()))


def _sum(terms: list) -> tuple:
    """The terms added: monomials (zero included) in one pass, any other sum
    pairwise, neighbours first, in a balanced tree, so n terms cost O(n log n)
    where a left-to-right sum re-aligns and copies its growing total n times."""
    if all(x[5] is x[6] is _ONE or not x[3] for x in terms):
        return _monomial_sum(terms)
    while len(terms) > 1:
        pairs = [_add(x, y) for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[-1:] if len(terms) % 2 else pairs
    return terms[0]


def _eval(node, macros: dict, env: dict, calls, depth: int = 0) -> tuple:
    """The value of node; depth counts the nodes and macro calls above it, and
    calls numbers the statement's macro calls from 1."""
    if depth > MAX_DEPTH:
        raise ParseError("expression nested too deeply")
    kind = node[0]
    depth += 1
    if kind == "num":
        return (0, 0, 0, node[1], 1, _ONE, _ONE) if node[1] else _ZERO
    if kind == "var":
        return env[node[1]] if node[1] in env else _S if node[1] == "s" else _T
    if kind == "neg":
        return _neg(_eval(node[1], macros, env, calls, depth))
    if kind == "pow":
        return _pow(_eval(node[1], macros, env, calls, depth), node[2])
    if kind == "chain":
        value = _eval(node[1], macros, env, calls, depth)
        if node[2][0][0] in "+-":
            terms = [value]
            for op, operand in node[2]:
                y = _eval(operand, macros, env, calls, depth)
                terms.append(_neg(y) if op == "-" else y)
            return _sum(terms)
        for op, operand in node[2]:
            y = _eval(operand, macros, env, calls, depth)
            value = _mul(value, _inverse(y) if op == "/" else y)
        return value
    # call: eager single-argument application
    _, name, arg = node
    if next(calls) > MAX_CALLS:
        raise ParseError("expression expands more than %d macro calls" % MAX_CALLS)
    param, body = macros[name]
    return _eval(body, macros, {param: _eval(arg, macros, env, calls, depth)}, calls, depth)


# ---------------------------------------------------------------------------
# the term reader: a g8/g12 statement that is a sum of monomials, one match
# per term
# ---------------------------------------------------------------------------

_HEAD = re.compile(r" *(g8|g12) *= *")
# a nonempty product c[/d]*t[^b]*s[^a], its factors in this order, each
# followed by '*' and the next factor or by the end of the term, then the
# next ' + ' / ' - ' or the end of the statement
_TERM_END = r"(?= *(?:[-+]|\Z))"
_TERM = re.compile(
    r"([-+]?) *(?=[0-9st])"
    r"(?:([0-9]+)(?:/([0-9]+))?(?:\*(?=[st])|" + _TERM_END + "))?"
    r"(?:(t)(?:\^(-?[0-9]+))?(?:\*(?=s)|" + _TERM_END + "))?"
    r"(?:(s)(?:\^([0-9]+))?)?" + _TERM_END + " *"
)


def _read_terms(stmt: str) -> tuple[str, list] | None:
    """A statement `slot = ±term ± term ...` whose terms are monomials as
    (slot, the terms' values), each exactly the value _eval gives it, with
    '-' applied as _neg; None for any other statement, which the tokenizer
    and _Parser then read. A zero denominator, and a literal int() refuses,
    are left to them too, so the reader raises nothing."""
    head = _HEAD.match(stmt)
    if head is None:
        return None
    pos, end = head.end(), len(stmt.rstrip(" "))
    terms: list[tuple] = []
    while pos < end:
        m = _TERM.match(stmt, pos, end)
        # the first term may have a '-', every later one needs its operator
        if m is None or (m[1] == "+" if not terms else not m[1]):
            return None
        sign, c, d, t, b, s, a = m.groups()
        try:
            c, d = int(c) if c else 1, int(d) if d else 1
            b = (int(b) if b else 1) if t else 0
            a = (int(a) if a else 1) if s else 0
        except ValueError:  # past the interpreter's int-string limit
            return None
        if not d:
            return None
        if c:
            g = gcd(c, d)
            terms.append((a, b, 0, (-c if sign == "-" else c) // g, d // g, _ONE, _ONE))
        else:
            terms.append(_ZERO)
        pos = m.end()
    return (head[1], terms) if terms else None


# ---------------------------------------------------------------------------
# statements and finalization
# ---------------------------------------------------------------------------


def _finalize(value: tuple, degree: int, slot: str) -> SForm:
    """The slot's form. A value with Q = 1, every sum of monomials among
    them, is already an SForm's canonical value: _value and _monomial_sum
    leave P primitive with its first entry positive and no factor u, and d
    the gcd of P's gaps, so b is the lowest t-exponent and d the step. It is
    wrapped as it stands, the sign of e moved into n and P padded to the
    formal degree; only the quotient that sdiv_exact leaves is made
    canonical again."""
    a, b, d, n, e, num, den = value
    z, c = 0, 1
    if den is not _ONE:
        # den has no monomial factor, so value is Laurent only when den | num
        exact = sdiv_exact(num, den)
        if exact is None:
            raise NotPolynomialError("%s does not reduce to a monomial denominator" % slot)
        num, z, c = exact
    if a < 0:
        raise NotPolynomialError("%s has a pole in s (negative s-power remains)" % slot)
    if a + len(num) - 1 > degree:
        raise DegreeError(
            "%s has s-degree %d, limit is %d" % (slot, a + len(num) - 1, degree)
        )
    if den is not _ONE:
        return SForm._of(degree, Fraction(b - z * d), Fraction(d), n, e * c, [[]] * a + num)
    if e < 0:
        n, e = -n, -e
    poly = [[]] * a + num + [[]] * (degree + 1 - a - len(num))
    return SForm._new(degree, Fraction(b), Fraction(d), n, e, poly)


# the line breaks of text-mode open; str.splitlines also breaks at \v, \f,
# \x1c-\x1e, \x85, \u2028 and \u2029, which the tokenizer skips as space
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def parse_family(text: str) -> FamilyPair:
    macros: dict[str, tuple[str, tuple]] = {}
    slots: dict[str, tuple] = {}
    slot_lines: dict[str, int] = {}
    statements: list[tuple[int, int, str]] = []
    for lineno, line in enumerate(_LINE_BREAK.split(text), start=1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        offset = 0
        for stmt in line.split(";"):
            if stmt.strip():
                statements.append((lineno, offset, stmt))
            offset += len(stmt) + 1

    for lineno, offset, stmt in statements:
        try:
            read = _read_terms(stmt)
            if read is not None:
                head, terms = read
                if head in slots:
                    raise ParseError("%s assigned twice" % head)
                slots[head] = _monomial_sum(terms)
                slot_lines[head] = lineno
                continue
            p = _Parser(_tokenize(stmt, offset), macros)
            head = p.take("name")
            if head == "let":
                name = p.take("name")
                if name in _RESERVED:
                    raise ParseError("%r cannot be a macro name" % name)
                if name in macros:
                    raise ParseError("macro %r defined twice" % name)
                p.take("(")
                param = p.take("name")
                if param in _RESERVED:
                    raise ParseError("%r cannot be a macro parameter" % param)
                p.take(")")
                p.take("=")
                p.name, p.param = name, param
                body = p.expr()
                if not p.done():
                    raise ParseError(
                        "column %d: trailing input after %r definition" % (p.col(), name)
                    )
                macros[name] = (param, body)
            elif head in ("g8", "g12"):
                if head in slots:
                    raise ParseError("%s assigned twice" % head)
                p.take("=")
                node = p.expr()
                if not p.done():
                    raise ParseError(
                        "column %d: trailing input after %s assignment" % (p.col(), head)
                    )
                slots[head] = _eval(node, macros, {}, count(1))
                slot_lines[head] = lineno
            else:
                raise ParseError(
                    "statement must be a let or a g8/g12 assignment, got %r" % head
                )
        except (ParseError, NotPolynomialError) as err:
            raise type(err)("line %d: %s" % (lineno, err)) from None
        except RecursionError:
            raise ParseError("line %d: expression nested too deeply" % lineno) from None

    for slot in ("g8", "g12"):
        if slot not in slots:
            raise ParseError("missing %s assignment" % slot)

    forms = {}
    for slot, degree in (("g8", 8), ("g12", 12)):
        try:
            forms[slot] = _finalize(slots[slot], degree, slot)
        except (NotPolynomialError, DegreeError) as err:
            raise type(err)("line %d: %s" % (slot_lines[slot], err)) from None
    return FamilyPair(forms["g8"], forms["g12"], source_text=text)


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------


def _print_form(form: SForm) -> str:
    """The form in the file grammar: its terms by s-exponent descending,
    then t-exponent ascending, each t-exponent (low + k*step) and
    coefficient (num*x/den) read off the fields in integers."""
    low, step, num, den = form.low, form.step, form.num, form.den
    q = lcm(low.denominator, step.denominator)  # over which both are integers
    low, step = low.numerator * (q // low.denominator), step.numerator * (q // step.denominator)
    parts: list[str] = []
    for i in reversed(range(len(form.poly))):
        for k, x in enumerate(form.poly[i]):
            if not x:
                continue
            e, r = divmod(low + k * step, q)
            if r:
                raise ValueError(
                    "fractional t-exponent %s cannot be printed in the file grammar"
                    % Fraction(low + k * step, q)
                )
            c = num * x
            g = gcd(c, den)
            mag = "%d" % (abs(c) // g) if g == den else "%d/%d" % (abs(c) // g, den // g)
            factors: list[str] = []
            if e:
                factors.append("t" if e == 1 else "t^%d" % e)
            if i:
                factors.append("s" if i == 1 else "s^%d" % i)
            if mag != "1" or not factors:
                factors.insert(0, mag)
            body = "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


def canonical_text(pair: FamilyPair) -> str:
    return "g8 = %s\ng12 = %s\n" % (_print_form(pair.g8), _print_form(pair.g12))
