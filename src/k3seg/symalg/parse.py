"""Family-file parsing and canonical printing.

The input language is small: optional single-argument macros bound with `let`,
then assignments to g8 and g12. Statements are separated by newlines or
semicolons, `#` starts a line comment.

    let g4(u) = 3*(u^4 + 2*u)
    g8  = g4(s/t) * g4(1/(t*s)) * s^4
    g12 = ...

Expressions are evaluated exactly in the fraction field of Q[s, t]. A result
is accepted only if its reduced denominator is a single monomial c*s^a*t^b;
the s-part must then be a true polynomial of degree at most the slot's formal
degree, while negative (and only integer) t-powers are fine.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DegreeError, NotPolynomialError, ParseError
from .forms import FamilyPair, SForm
from .laurent import TLaurent

# ---------------------------------------------------------------------------
# bivariate polynomials as {(s_exp, t_exp): Fraction} with nonnegative exponents
# ---------------------------------------------------------------------------

BiPoly = dict


def _bp_const(c: Fraction) -> BiPoly:
    return {(0, 0): c} if c else {}

_BP_ONE = _bp_const(Fraction(1))


def _bp_add(a: BiPoly, b: BiPoly) -> BiPoly:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _bp_neg(a: BiPoly) -> BiPoly:
    return {k: -c for k, c in a.items()}


def _bp_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    out: BiPoly = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            key = (i + k, j + l)
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _bp_exact_div(num: BiPoly, den: BiPoly) -> BiPoly | None:
    """Exact quotient num/den in Q[s,t] or None. Lex order with s major."""
    num = dict(num)
    quo: BiPoly = {}
    dk = max(den, key=lambda k: (k[0], k[1]))
    dc = den[dk]
    while num:
        nk = max(num, key=lambda k: (k[0], k[1]))
        mi, mj = nk[0] - dk[0], nk[1] - dk[1]
        if mi < 0 or mj < 0:
            return None
        c = num[nk] / dc
        quo[(mi, mj)] = c
        for (i, j), cd in den.items():
            key = (i + mi, j + mj)
            v = num.get(key, 0) - c * cd
            if v:
                num[key] = v
            else:
                num.pop(key, None)
    return quo


class BiFrac:
    """Lazy fraction of two bivariate polynomials; common monomial content
    is stripped on construction to keep intermediate degrees down."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if not den:
            raise NotPolynomialError("division by zero in expression")
        if num:
            ds = min(min(k[0] for k in num), min(k[0] for k in den))
            dt = min(min(k[1] for k in num), min(k[1] for k in den))
            if ds or dt:
                num = {(i - ds, j - dt): c for (i, j), c in num.items()}
                den = {(i - ds, j - dt): c for (i, j), c in den.items()}
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "BiFrac":
        return cls(_bp_const(Fraction(c)), dict(_BP_ONE))

    def __add__(self, other: "BiFrac") -> "BiFrac":
        return BiFrac(
            _bp_add(_bp_mul(self.num, other.den), _bp_mul(other.num, self.den)),
            _bp_mul(self.den, other.den),
        )

    def __sub__(self, other: "BiFrac") -> "BiFrac":
        return BiFrac(
            _bp_add(_bp_mul(self.num, other.den), _bp_neg(_bp_mul(other.num, self.den))),
            _bp_mul(self.den, other.den),
        )

    def __neg__(self) -> "BiFrac":
        return BiFrac(_bp_neg(self.num), self.den)

    def __mul__(self, other: "BiFrac") -> "BiFrac":
        return BiFrac(_bp_mul(self.num, other.num), _bp_mul(self.den, other.den))

    def __truediv__(self, other: "BiFrac") -> "BiFrac":
        return BiFrac(_bp_mul(self.num, other.den), _bp_mul(self.den, other.num))

    def __pow__(self, n: int) -> "BiFrac":
        if n < 0:
            return BiFrac(dict(_BP_ONE), dict(_BP_ONE)) / (self ** (-n))
        acc = BiFrac(dict(_BP_ONE), dict(_BP_ONE))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc


_S = BiFrac({(1, 0): Fraction(1)}, dict(_BP_ONE))
_T = BiFrac({(0, 1): Fraction(1)}, dict(_BP_ONE))


# ---------------------------------------------------------------------------
# tokenizer and recursive-descent parser to a small tuple AST
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()=")


def _tokenize(stmt: str, offset: int = 0) -> list[tuple[str, object, int]]:
    """Tokens as (kind, value, column); columns are 1-based within the line,
    offset by the statement's position after semicolon splitting."""
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(stmt)
    while i < n:
        ch = stmt[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < n and stmt[j].isdecimal():
                j += 1
            try:
                value = int(stmt[i:j])
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    "column %d: integer literal of %d digits is too long"
                    % (offset + i + 1, j - i)
                ) from None
            toks.append(("int", value, offset + i + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (stmt[j].isalnum() or stmt[j] == "_"):
                j += 1
            toks.append(("name", stmt[i:j], offset + i + 1))
            i = j
        elif ch in _OPS:
            toks.append((ch, ch, offset + i + 1))
            i += 1
        else:
            raise ParseError("column %d: unexpected character %r" % (offset + i + 1, ch))
    return toks


class _Parser:
    def __init__(self, toks: list[tuple[str, object, int]], stmt: str, offset: int = 0):
        self.toks = toks
        self.pos = 0
        self.stmt = stmt.strip()
        self.end_col = offset + len(stmt.rstrip()) + 1

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def col(self) -> int:
        return self.toks[self.pos][2] if self.pos < len(self.toks) else self.end_col

    def take(self, kind: str | None = None):
        if self.pos >= len(self.toks):
            raise ParseError("column %d: unexpected end of statement" % self.end_col)
        k, v, c = self.toks[self.pos]
        if kind is not None and k != kind:
            raise ParseError("column %d: expected %s but found %r" % (c, kind, v))
        self.pos += 1
        return v

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    # expr := term {(+|-) term}
    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("bin", op, node, self.term())
        return node

    # term := factor {(*|/) factor}
    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("bin", op, node, self.factor())
        return node

    # factor := ['-'] factor | power
    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
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
            e = self.exponent()
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
            return ("num", Fraction(self.take()))
        if k == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if k == "name":
            name = self.take()
            if self.peek() == "(":
                self.take()
                arg = self.expr()
                self.take(")")
                return ("call", name, arg)
            return ("var", name)
        if self.pos < len(self.toks):
            raise ParseError(
                "column %d: unexpected %r" % (self.col(), self.toks[self.pos][1])
            )
        raise ParseError("column %d: unexpected end of statement" % self.end_col)


def _check_names(node, macros: dict, param: str | None, self_name: str | None):
    kind = node[0]
    if kind == "var":
        name = node[1]
        if name not in ("s", "t") and name != param:
            if name in macros or name == self_name:
                raise ParseError("macro %r used without an argument" % name)
            raise ParseError("unknown name %r" % name)
    elif kind == "call":
        name = node[1]
        if name == self_name:
            raise ParseError("macro %r may not call itself" % name)
        if name not in macros:
            raise ParseError("macro %r is not defined (define before use)" % name)
        _check_names(node[2], macros, param, self_name)
    elif kind == "neg":
        _check_names(node[1], macros, param, self_name)
    elif kind == "bin":
        _check_names(node[2], macros, param, self_name)
        _check_names(node[3], macros, param, self_name)
    elif kind == "pow":
        _check_names(node[1], macros, param, self_name)


def _eval(node, macros: dict, env: dict) -> BiFrac:
    kind = node[0]
    if kind == "num":
        return BiFrac.const(node[1])
    if kind == "var":
        name = node[1]
        if name == "s":
            return _S
        if name == "t":
            return _T
        return env[name]
    if kind == "neg":
        return -_eval(node[1], macros, env)
    if kind == "pow":
        return _eval(node[1], macros, env) ** node[2]
    if kind == "bin":
        a = _eval(node[2], macros, env)
        b = _eval(node[3], macros, env)
        op = node[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a / b
    # call: eager single-argument application
    _, name, arg = node
    param, body = macros[name]
    return _eval(body, macros, {param: _eval(arg, macros, env)})


# ---------------------------------------------------------------------------
# statements and finalization
# ---------------------------------------------------------------------------


def _finalize(value: BiFrac, degree: int, slot: str) -> SForm:
    num, den = value.num, value.den
    if len(den) != 1:
        # A monomial factor of the denominator is fine (it only shifts
        # exponents); the polynomial part left after stripping it must divide
        # the numerator exactly.
        ms = min(k[0] for k in den)
        mt = min(k[1] for k in den)
        dpoly = {(i - ms, j - mt): c for (i, j), c in den.items()}
        quo = _bp_exact_div(num, dpoly)
        if quo is None:
            raise NotPolynomialError(
                "%s does not reduce to a monomial denominator" % slot
            )
        num, den = quo, {(ms, mt): Fraction(1)}
    (a, b), dc = next(iter(den.items()))
    coeffs: dict[int, dict] = {}
    for (i, j), c in num.items():
        si = i - a
        if si < 0:
            raise NotPolynomialError("%s has a pole in s (negative s-power remains)" % slot)
        coeffs.setdefault(si, {})[Fraction(j - b)] = c / dc
    top = max(coeffs) if coeffs else 0
    if top > degree:
        raise DegreeError("%s has s-degree %d, limit is %d" % (slot, top, degree))
    return SForm(degree, [TLaurent(coeffs.get(i, {})) for i in range(degree + 1)])


def parse_family(text: str) -> FamilyPair:
    macros: dict[str, tuple[str, tuple]] = {}
    slots: dict[str, BiFrac] = {}
    slot_lines: dict[str, int] = {}
    statements: list[tuple[int, int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            toks = _tokenize(stmt, offset)
            p = _Parser(toks, stmt, offset)
            head = p.take("name")
            if head == "let":
                name = p.take("name")
                if name in ("s", "t", "g8", "g12", "let"):
                    raise ParseError("%r cannot be a macro name" % name)
                if name in macros:
                    raise ParseError("macro %r defined twice" % name)
                p.take("(")
                param = p.take("name")
                if param in ("s", "t", "let", "g8", "g12"):
                    raise ParseError("%r cannot be a macro parameter" % param)
                p.take(")")
                p.take("=")
                body = p.expr()
                if not p.done():
                    raise ParseError(
                        "column %d: trailing input after %r definition" % (p.col(), name)
                    )
                _check_names(body, macros, param, name)
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
                _check_names(node, macros, None, None)
                slots[head] = _eval(node, macros, {})
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
    monomials: list[tuple[Fraction, int, int]] = []
    for i in range(form.degree, -1, -1):
        c = form.coeffs[i]
        for e, coef in c.items():
            if e.denominator != 1:
                raise ValueError(
                    "fractional t-exponent %s cannot be printed in the file grammar" % e
                )
            monomials.append((coef, int(e), i))
    if not monomials:
        return "0"
    parts: list[str] = []
    for coef, e, i in monomials:
        factors: list[str] = []
        mag = abs(coef)
        if e:
            factors.append("t" if e == 1 else "t^%d" % e)
        if i:
            factors.append("s" if i == 1 else "s^%d" % i)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if coef < 0 else "") + body)
        else:
            parts.append((" - " if coef < 0 else " + ") + body)
    return "".join(parts)


def canonical_text(pair: FamilyPair) -> str:
    return "g8 = %s\ng12 = %s\n" % (_print_form(pair.g8), _print_form(pair.g12))
