"""The family-file grammar and its error reporting."""

import ast
import math
import operator
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NAMED, charts, coeff, count_calls, family_text
from k3seg.corpus import generate_corpus
from k3seg.errors import DegreeError, K3SegError, NotPolynomialError, ParseError
from k3seg.symalg import parse as parse_module
from k3seg.symalg import SForm, canonical_text, parse_family
from k3seg.symalg.parse import (
    _ONE, MAX_BITS, MAX_CALLS, MAX_DEPTH, MAX_SPAN, _add, _monomial_sum,
)


# ---------------------------------------------------------------------------
# accepted input
# ---------------------------------------------------------------------------


def test_minimal_file():
    f = parse_family("g8 = 3*s^4\ng12 = s^6\n")
    assert coeff(f.g8, 4, 0) == 3
    assert coeff(f.g12, 6, 0) == 1
    assert f.g8.degree == 8 and f.g12.degree == 12


def test_semicolons_and_comments():
    f = parse_family("# leading comment\ng8 = s^4; g12 = s^6  # trailing\n\n")
    assert coeff(f.g8, 4, 0) == 1
    assert coeff(f.g12, 6, 0) == 1


def test_rational_constants_via_division():
    f = parse_family("g8 = 3/2*s^4\ng12 = s^6/4\n")
    assert coeff(f.g8, 4, 0) == Fraction(3, 2)
    assert coeff(f.g12, 6, 0) == Fraction(1, 4)
    # products and powers of monomials: 1/(-3) carries its sign in the
    # denominator until the form is built, and 0^0 is 1
    f = parse_family("g8 = 3*s^4*1/(-3)*(-3)\ng12 = (2/4)^2*4\n")
    assert f.g8 == SForm.monomial(8, 4, 3) and f.g12 == SForm.monomial(12, 0, 1)
    assert parse_family("g8 = 0^0\ng12 = s^6\n").g8 == SForm.monomial(8, 0, 1)


def test_negative_and_parenthesized_exponents():
    f = parse_family("g8 = s^4*t^-2 + s^4*t^(-3)\ng12 = s^6\n")
    assert coeff(f.g8, 4, -2) == 1
    assert coeff(f.g8, 4, -3) == 1


def test_unary_minus_binds_tighter_than_addition():
    f = parse_family("g8 = -s^4 + s^3\ng12 = -(s^6 - s^5)\n")
    assert coeff(f.g8, 4, 0) == -1
    assert coeff(f.g8, 3, 0) == 1
    assert coeff(f.g12, 6, 0) == -1
    assert coeff(f.g12, 5, 0) == 1


def test_macro_definition_and_expansion():
    f = parse_family(
        "let sq(x) = x*x\n"
        "let quad(y) = sq(sq(y))\n"
        "g8 = quad(s)*t\n"
        "g12 = s^6\n"
    )
    assert coeff(f.g8, 4, 1) == 1


def test_macro_argument_may_mention_s_and_t():
    f = parse_family("let f(x) = x^2 + 1\ng8 = f(s*t)\ng12 = s^6\n")
    assert coeff(f.g8, 2, 2) == 1
    assert coeff(f.g8, 0, 0) == 1


def test_negative_t_powers_cancel_against_s_multiples():
    # the ds_circle shape: a pole in s hidden inside a macro argument is
    # cancelled by the polynomial factor outside
    f = parse_family(
        "let g4(u) = 3*(u^4 + 2*u)\n"
        "g8 = g4(s/(t*(s^2 + 1))) * (s^2 + 1)^4\n"
        "g12 = s^6\n"
    )
    assert coeff(f.g8, 4, -4) == 3
    assert coeff(f.g8, 1, -1) == 6  # 2u term against (s^2+1)^3


def test_pure_monomial_denominator():
    f = parse_family("g8 = (s^8 + t^2)/t\ng12 = s^6\n")
    assert coeff(f.g8, 8, -1) == 1
    assert coeff(f.g8, 0, 1) == 1


def test_zero_form_slot_is_allowed():
    f = parse_family("g8 = 3*s^4\ng12 = s^6 - s^6\n")
    assert not f.g12


def test_source_text_is_kept_verbatim():
    text = "g8 = s^4\ng12 = s^6\n"
    assert parse_family(text).source_text == text


# ---------------------------------------------------------------------------
# rejected input
# ---------------------------------------------------------------------------


def err_message(text, exc):
    with pytest.raises(exc) as info:
        parse_family(text)
    return str(info.value)


def test_unexpected_character_reports_line_and_column():
    msg = err_message("g8 = 3 @ s\ng12 = s^6", ParseError)
    assert msg == "line 1: column 8: unexpected character '@'"


def test_unexpected_end_of_statement():
    msg = err_message("g8 = 3 *\ng12 = s^6", ParseError)
    assert "line 1" in msg and "unexpected end of statement" in msg


@pytest.mark.parametrize(
    "statement, message",
    [
        ("g8", "line 1: column 3: unexpected end of statement"),
        ("let", "line 1: column 4: unexpected end of statement"),
        ("let f x) = x", "line 1: column 7: expected ( but found 'x'"),
        ("g8 = *s", "line 1: column 6: unexpected '*'"),
        ("let f(x) = x x", "line 1: column 14: trailing input after 'f' definition"),
        # a superscript continues a name but cannot start one
        ("g8 = x\xb2", "line 1: unknown name 'x\xb2'"),
        ("g8 = \xb2*s^4", "line 1: column 6: unexpected character '\xb2'"),
    ],
)
def test_statement_syntax_errors(statement, message):
    assert err_message(statement + "\ng12 = s^6", ParseError) == message


def test_columns_count_from_line_start_after_semicolons():
    msg = err_message("g8 = s^4; g12 = s^6 +", ParseError)
    assert "column 22" in msg


def test_trailing_input_after_assignment():
    msg = err_message("g8 = s^4 junk\ng12 = s^6", ParseError)
    assert "trailing input" in msg and "column 10" in msg


def test_deep_nesting_is_a_parse_error():
    # the limit is the parser's own, not the interpreter's recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100000)
    try:
        for depth in (3000, 5000):
            text = "g8 = s^4\ng12 = " + "(" * depth + "s^6" + ")" * depth
            assert err_message(text, ParseError) == "line 2: expression nested too deeply"
        # each macro is shallow; only evaluating the last one nests deeply
        chain = "".join("let f%d(x) = f%d(x)\n" % (i, i - 1) for i in range(1, 1500))
        text = "let f0(x) = x\n" + chain + "g8 = f1499(s^4)\ng12 = s^6"
        assert err_message(text, ParseError) == "line 1501: expression nested too deeply"
    finally:
        sys.setrecursionlimit(limit)
    assert parse_family("g8 = s^4 * " + "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH + "\ng12 = s^6")
    for text in ("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), "-" * (MAX_DEPTH + 1) + "1"):
        msg = err_message("g8 = s^4 * " + text + "\ng12 = s^6", ParseError)
        assert msg == "line 1: expression nested too deeply"


def doubling_chain(k: int, base: str) -> str:
    """Macros f1(u) = base, f_j(u) = f_(j-1)(f_(j-1)(u)): f_j(x) expands
    2^j - 1 macro calls, each line doubling the one before."""
    lines = ["let f1(u) = %s\n" % base]
    lines += ["let f%d(u) = f%d(f%d(u))\n" % (j, j - 1, j - 1) for j in range(2, k + 1)]
    return "".join(lines)


def test_macro_expansion_is_bounded_per_statement():
    # 2^31 - 1 calls would run for hours; the nesting stays under MAX_DEPTH
    for base in ("u + 1", "u"):
        text = doubling_chain(31, base) + "g8 = f31(s^4)\ng12 = s^6\n"
        start = time.perf_counter()
        msg = err_message(text, ParseError)
        assert time.perf_counter() - start < 1
        assert msg == "line 32: expression expands more than %d macro calls" % MAX_CALLS
    # f10 expands 2^10 - 1 calls: one more is the bound, which each statement has
    chain = doubling_chain(10, "u")
    f = parse_family(chain + "g8 = f1(f10(s^4))\ng12 = f1(f10(s^6))\n")
    assert f == parse_family("g8 = s^4\ng12 = s^6")
    msg = err_message(chain + "g8 = f2(f10(s^4))\ng12 = s^6\n", ParseError)
    assert msg == "line 11: expression expands more than %d macro calls" % MAX_CALLS


def test_named_families_expand_few_macro_calls(monkeypatch):
    expected = {name: parse_family(family_text(name)) for name in NAMED}
    monkeypatch.setattr(parse_module, "MAX_CALLS", 4)
    for name in NAMED:
        assert parse_family(family_text(name)) == expected[name]


def test_long_sums_and_products_do_not_nest():
    n = 3 * MAX_DEPTH
    f = parse_family("g8 = " + " + ".join("t^%d*s^4" % k for k in range(n)) + "\ng12 = s^6")
    assert coeff(f.g8, 4, n - 1) == 1
    f = parse_family("g8 = s^4" + "*(1 + t)" * n + "/(1 + t)" * n + "\ng12 = s^6")
    assert f.g8 == parse_family("g8 = s^4\ng12 = s^6").g8


def test_long_sum_parses_fast():
    # a sum's terms are not added into one growing total: monomials are
    # collected in one pass, other terms added in a balanced tree
    for term in ("%d*t^%d*s^%d", "%d*t^%d*(s^%d + t)"):
        terms = (term % (k + 1, k, k % 9) for k in range(3000))
        start = time.perf_counter()
        f = parse_family("g8 = " + " + ".join(terms) + "\ng12 = s^6")
        assert time.perf_counter() - start < 2
        assert coeff(f.g8, 2999 % 9, 2999) == 3000


def test_unknown_statement_head():
    msg = err_message("foo = 3\ng8 = s^4; g12 = s^6", ParseError)
    assert "must be a let or a g8/g12 assignment" in msg


def test_double_assignment():
    msg = err_message("g8 = s^4\ng8 = s^4\ng12 = s^6", ParseError)
    assert msg == "line 2: g8 assigned twice"


def test_missing_slot():
    msg = err_message("g12 = s^6", ParseError)
    assert msg == "missing g8 assignment"


def test_unknown_name():
    msg = err_message("g8 = bar\ng12 = s^6", ParseError)
    assert "unknown name 'bar'" in msg


def test_macro_must_be_defined_before_use():
    msg = err_message("let f(x) = g(x)\ng8 = s^4; g12 = s^6", ParseError)
    assert "define before use" in msg


def test_macro_may_not_call_itself():
    msg = err_message("let f(x) = f(x) + 1\ng8 = s^4; g12 = s^6", ParseError)
    assert "may not call itself" in msg


def test_macro_redefinition():
    msg = err_message("let f(x) = x; let f(y) = y\ng8 = s^4; g12 = s^6", ParseError)
    assert "defined twice" in msg


def test_macro_needs_argument():
    msg = err_message("let f(x) = x^2\ng8 = f\ng12 = s^6", ParseError)
    assert "used without an argument" in msg


def test_macro_parameter_may_share_a_macro_name():
    f = parse_family("let f(x) = x; let g(f) = f*2\ng8 = g(s^4); g12 = s^6")
    assert coeff(f.g8, 4, 0) == 2


def test_names_are_checked_as_they_are_read():
    # the unknown name comes before the unfinished parenthesis
    msg = err_message("g8 = foo + (\ng12 = s^6", ParseError)
    assert msg == "line 1: unknown name 'foo'"


def test_reserved_macro_names():
    assert "'s' cannot be a macro name" in err_message(
        "let s(x) = x\ng8 = s^4; g12 = s^6", ParseError
    )
    assert "'t' cannot be a macro parameter" in err_message(
        "let f(t) = 1\ng8 = s^4; g12 = s^6", ParseError
    )


def test_polynomial_denominator_is_rejected():
    msg = err_message("g8 = 1/(s + 1)\ng12 = s^6", NotPolynomialError)
    assert msg == "line 1: g8 does not reduce to a monomial denominator"


def test_pole_in_s_is_rejected():
    msg = err_message("g8 = s^4/s^6\ng12 = s^6", NotPolynomialError)
    assert "pole in s" in msg


def test_division_by_zero():
    msg = err_message("g8 = 1/(s - s); g12 = s^6", NotPolynomialError)
    assert "division by zero" in msg


def test_degree_overflow():
    msg = err_message("g8 = s^9\ng12 = s^6", DegreeError)
    assert msg == "line 1: g8 has s-degree 9, limit is 8"
    msg = err_message("g8 = s^4\ng12 = s^13", DegreeError)
    assert "g12 has s-degree 13" in msg


def test_oversized_expressions_are_parse_errors():
    wide_pair = "g8 = (s+t)^4*(s^4 + 1 + t^200001)\ng12 = (s+t)^6*(s^6 + 1 + t^200001)"
    # coefficients past MAX_BITS are refused before the product that would
    # build them runs
    long_coefficients = (
        "g8 = (1+t)^2000\ng12 = s^6",
        "g8 = (1+t)^4000\ng12 = s^6",
        "g8 = (1+t)^16384/(1+t)^16384\ng12 = s^6",
        "g8 = (1+t)" + "*(1+t)" * MAX_BITS + "\ng12 = s^6",
    )
    for text in (
        "g8 = (1+t)^100000\ng12 = s^6", "g8 = s^1000000000 + 1\ng12 = s^6", wide_pair,
        *long_coefficients,
    ):
        start = time.perf_counter()
        assert err_message(text, ParseError) == "line 1: expression too large"
        assert time.perf_counter() - start < 1
    # the bound sits exactly at MAX_SPAN in the u-degree
    text = "g8 = s^4*(1 + t + t^%d)\ng12 = s^6"
    assert coeff(parse_family(text % MAX_SPAN).g8, 4, MAX_SPAN) == 1
    assert err_message(text % (MAX_SPAN + 1), ParseError) == "line 1: expression too large"
    # (1+t)^n has 1-norm 2^n, so the bit bound sits exactly at n = MAX_BITS
    text = "g8 = s^4*(1 + t)^%d\ng12 = s^6"
    assert coeff(parse_family(text % MAX_BITS).g8, 4, 1) == MAX_BITS
    assert err_message(text % (MAX_BITS + 1), ParseError) == "line 1: expression too large"
    # a sum that cancels back to a monomial is a single entry again
    f = parse_family("g8 = s^4*((t + t^2) - t^2 + t^100000000)\ng12 = s^6")
    assert coeff(f.g8, 4, 100000000) == 1


def test_monomial_terms_cancel_before_the_size_bound():
    # the terms of a sum of monomials are added by exponent, so t^2 cancels
    # before the extent is checked; added pairwise, t + t^2 spans 10^8 steps
    f = parse_family("g8 = s^4*(t + t^2 - t^2 + t^100000000)\ng12 = s^6")
    assert coeff(f.g8, 4, 1) == coeff(f.g8, 4, 100000000) == 1
    assert f.g8.step == 100000000 - 1
    # one term that does not cancel still spans 10^8 steps
    text = "g8 = s^4*(t + t^2 - 2*t^2 + t^100000000)\ng12 = s^6"
    assert err_message(text, ParseError) == "line 1: expression too large"


def _primes_above(x, count):
    odd_primes = math.prod(sympy.primerange(3, 200))
    primes = []
    while len(primes) < count:
        x += 1
        if x % 2 and math.gcd(x, odd_primes) == 1 and sympy.isprime(x):
            primes.append(x)
    return primes


def test_products_powers_and_sums_refuse_as_the_bounds_say():
    # products and powers are checked on the integer sizes alone
    assert coeff(parse_family("g8 = s^4*2^512\ng12 = s^6").g8, 4, 0) == 2**512
    for body in ("s^4*2^513*t", "(2^300*t)*(2^300*t)", "(t/2^300)*(t/2^300)", "3^(-400)*3^(-400)"):
        assert err_message("g8 = %s\ng12 = s^6" % body, ParseError) == "line 1: expression too large"
    # a sum of monomials over distinct denominators > 2^63: their common
    # denominator passes MAX_BITS after nine of them
    primes = _primes_above(2**63, 3000)
    terms = ("1/%d*t^%d*s^%d" % (p, k, k % 9) for k, p in enumerate(primes))
    start = time.perf_counter()
    msg = err_message("g8 = " + " + ".join(terms) + "\ng12 = s^6", ParseError)
    assert time.perf_counter() - start < 1
    assert msg == "line 1: expression too large"
    # one shared denominator of 601 bits is no product: nothing to refuse
    d = 2**600 + 1
    terms = ("%d/%d*t^%d*s^%d" % (k + 1, d, k, k % 9) for k in range(50))
    f = parse_family("g8 = " + " + ".join(terms) + "\ng12 = s^6")
    assert coeff(f.g8, 49 % 9, 49) == Fraction(50, d)


# ---------------------------------------------------------------------------
# differential check against sympy
# ---------------------------------------------------------------------------

S, T = sympy.symbols("s t")


def _wrap(text):
    return text if text.isalnum() else "(%s)" % text


@st.composite
def _expressions(draw, names, macro, depth=4):
    """Statement texts over integer literals and names, with + - * /, ^ with
    exponents in -3..4, unary minus and, if macro, calls f(...). One kind
    writes A * B / B, which divides exactly unless B is zero."""
    if depth == 0 or draw(st.integers(0, 4)) == 4:
        return draw(st.sampled_from(names * 2 + ("2", "3", "1", "0", "7")))
    kind = draw(st.sampled_from("/*+^-f/n" if macro else "/*+^-*/n"))
    sub = _expressions(names, macro, depth - 1)
    a = draw(sub)
    if kind in "+-*":
        return "%s %s %s" % (_wrap(a), kind, _wrap(draw(sub)))
    if kind == "/":
        b = draw(sub)
        if draw(st.booleans()):
            return "%s * %s / %s" % (_wrap(a), _wrap(b), _wrap(b))
        return "%s / %s" % (_wrap(a), _wrap(b))
    if kind == "^":
        n = draw(st.integers(-3, 4))
        return "%s^%s" % (_wrap(a), draw(st.sampled_from(["%d" % n, "(%d)" % n])))
    if kind == "n":
        return "-" + _wrap(a)
    return "f(%s)" % a


def _sympy_value(node, env, body):
    """Evaluate a Python AST of the statement in sympy; a zero divisor raises
    ZeroDivisionError, as the parser refuses to divide by zero."""
    if isinstance(node, ast.Constant):
        return sympy.Integer(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_sympy_value(node.operand, env, body)
    if isinstance(node, ast.Call):
        arg = _sympy_value(node.args[0], env, body)
        return _sympy_value(body, {"s": S, "t": T, "x": arg}, body)
    left = _sympy_value(node.left, env, body)
    right = _sympy_value(node.right, env, body)
    if isinstance(node.op, ast.Pow):
        if right < 0 and sympy.cancel(left) == 0:
            raise ZeroDivisionError
        return left**right
    if isinstance(node.op, ast.Div):
        if sympy.cancel(right) == 0:
            raise ZeroDivisionError
        return left / right
    return {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}[
        type(node.op)
    ](left, right)


def _sympy_outcome(body, expr, degree):
    """The coefficients {(s_exp, t_exp): c} sympy gives, or the error class
    the parser must raise."""
    body_ast = ast.parse(body.replace("^", "**"), mode="eval").body
    expr_ast = ast.parse(expr.replace("^", "**"), mode="eval").body
    try:
        value = _sympy_value(expr_ast, {"s": S, "t": T}, body_ast)
    except ZeroDivisionError:
        return NotPolynomialError
    num, den = sympy.fraction(sympy.cancel(value))
    den_terms = sympy.Poly(den, S, T).terms()
    if len(den_terms) != 1:
        return NotPolynomialError
    (a, b), c = den_terms[0]
    terms = {
        (i - a, j - b): sympy.Rational(v) / c
        for (i, j), v in sympy.Poly(num, S, T).terms()
        if v
    }
    if any(i < 0 for i, _ in terms):
        return NotPolynomialError
    if any(i > degree for i, _ in terms):
        return DegreeError
    return {(i, Fraction(j)): Fraction(int(v.p), int(v.q)) for (i, j), v in terms.items()}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    body=_expressions(("s", "t", "x"), False),
    expr=_expressions(("s", "t"), True),
    slot=st.sampled_from(("g8", "g12")),
)
# the exact division, with leading coefficients that carry integer content
# and a power of t, before and after the parser strips monomial factors
@example(body="x", expr="(4*s^2 - t^2)/(2*s - t)", slot="g8")
@example(body="x", expr="(t*s^2 - t^3)/(t*s - t^2)", slot="g8")
@example(body="x", expr="(2*t*s + 3)*(s^2 + t)/(2*t*s + 3)", slot="g8")
@example(body="x^2 - t", expr="f(s + t)*(2*s)^(-1)/f(s - t)^-1", slot="g12")
@example(body="x^3 - t^3", expr="s*f(s)^3/(s - t)", slot="g8")
def test_parser_agrees_with_sympy(body, expr, slot):
    degree, other = (8, "g12") if slot == "g8" else (12, "g8")
    text = "let f(x) = %s\n%s = %s\n%s = 1\n" % (body, slot, expr, other)
    expected = _sympy_outcome(body, expr, degree)
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse_family(text)
        return
    form = getattr(parse_family(text), slot)
    got = {(i, e): c for i, e, c in form.terms()}
    assert got == expected


def _monomial_text(c, e, a, b, negative_den):
    """c/e*t^b*s^a with c > 0, in canonical_text's style; the denominator
    may be written (-e), and a negative t-exponent as t^-k or t^(-k)."""
    text = "%d" % c
    if negative_den:
        text += "/(-%d)" % e
    elif e != 1:
        text += "/%d" % e
    if b:
        text += "*t^" + ("%d" % b if b > 0 else "(%d)" % b if b % 2 else "%d" % b)
    if a:
        text += "*s^%d" % a
    return text


@st.composite
def _monomial_sums(draw, degree):
    """Sums of signed monomials c/e*t^b*s^a: repeated exponents, some of
    them cancelling (to zero, too), negative t-exponents and s-exponents
    past the slot degree."""
    keys = draw(st.lists(st.tuples(st.integers(0, degree + 2), st.integers(-4, 9)),
                         min_size=1, max_size=6))
    parts = []
    for a, b in keys:
        c = draw(st.integers(-12, 12).filter(bool))
        e = draw(st.sampled_from((1, 1, 2, 3, 7, 2187)))
        copies = [(c, e)]
        if draw(st.booleans()):  # a like term: its negative, or any
            copies.append((-c, e) if draw(st.booleans()) else (draw(st.integers(-5, 5)) or 1, 3))
        for c, e in copies:
            negative_den = draw(st.booleans())
            sign = -c if negative_den else c
            parts.append((sign < 0, _monomial_text(abs(c), e, a, b, negative_den)))
    parts = draw(st.permutations(parts))
    text = ("-" if parts[0][0] else "") + parts[0][1]
    return text + "".join((" - " if neg else " + ") + body for neg, body in parts[1:])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), slot=st.sampled_from(("g8", "g12")))
@example(data=None, slot="g8")
def test_monomial_sums_agree_with_sympy(data, slot):
    degree, other = (8, "g12") if slot == "g8" else (12, "g8")
    if data is None:
        # cancels to the zero form, s^9 included
        expr = "3/(-7)*t^-2*s^4 + 3/7*t^(-2)*s^4 + 2*t*s^9 - 2*t*s^9"
    else:
        expr = data.draw(_monomial_sums(degree))
    text = "%s = %s\n%s = 1\n" % (slot, expr, other)
    expected = _sympy_outcome("x", expr, degree)
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse_family(text)
        return
    form = getattr(parse_family(text), slot)
    assert {(i, e): c for i, e, c in form.terms()} == expected


def _tree_sum(terms):
    """The terms added pairwise, neighbours first, as _add's balanced tree."""
    while len(terms) > 1:
        pairs = [_add(x, y) for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[-1:] if len(terms) % 2 else pairs
    return terms[0]


def _outcome(add, terms):
    """The coefficients {(s_exp, t_exp): c} of a sum of monomials, or None
    when it is refused."""
    try:
        a, b, d, n, e, num, den = add(terms)
    except ParseError:
        return None
    assert den == _ONE
    return {
        (a + i, b + k * d): Fraction(n * x, e)
        for i, row in enumerate(num) for k, x in enumerate(row) if x
    }


# denominators around MAX_BITS bits, alone and as factors of one another
_BIG = (2**200 + 1, 2**300 + 7, 2**520 + 1, (2**200 + 1) * (2**300 + 7))
_SPAN = 6  # MAX_SPAN in this test, so that small exponents reach it


@st.composite
def _monomial_values(draw):
    n = draw(st.sampled_from((1, -1, 2, 3, -6, 2**300, -(2**511))))
    e = draw(st.sampled_from((1, 1, 3, -3, *_BIG, -_BIG[0])))
    g = math.gcd(n, e)
    a = draw(st.integers(0, _SPAN + 2))
    b = draw(st.one_of(st.integers(-_SPAN - 2, _SPAN + 2), st.sampled_from((10**8, 10**8 + 1))))
    return (a, b, 0, n // g, e // g, _ONE, _ONE)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(terms=st.lists(_monomial_values(), min_size=1, max_size=9), cancel=st.booleans())
def test_monomial_sum_accepts_what_the_balanced_tree_accepts(terms, cancel):
    if cancel:  # every term once more with the opposite sign, in between
        terms = [y for x in terms for y in (x, x[:3] + (-x[3],) + x[4:])]
    with mock.patch.object(parse_module, "MAX_SPAN", _SPAN):
        one_pass, tree = _outcome(_monomial_sum, terms), _outcome(_tree_sum, terms)
    if tree is not None:
        assert one_pass == tree


# ---------------------------------------------------------------------------
# the term reader against the tokenizer route
# ---------------------------------------------------------------------------


def _fields(text):
    """Every field of both forms with its type, or the error's type and message."""
    try:
        pair = parse_family(text)
    except K3SegError as err:
        return type(err), str(err)
    forms = (pair.g8, pair.g12)
    return [(k, type(getattr(f, k)), getattr(f, k)) for f in forms for k in SForm.__slots__]


def _tokenizer_fields(text):
    with mock.patch.object(parse_module, "_read_terms", lambda stmt: None):
        return _fields(text)


def _int_refuses(digits):
    try:
        int(digits)
    except ValueError:
        return True
    return False


# a literal past the interpreter's int-string limit, where it has one
_LONG = "7" * 5000
_INT_LIMIT = pytest.mark.skipif(not _int_refuses(_LONG), reason="int() takes 5000 digits here")
_COEFFS = st.one_of(st.integers(0, 24), st.sampled_from(_BIG))
_SEPARATORS = st.sampled_from((" + ", " - ", "+", "-", "  -   "))


@st.composite
def _term_sums(draw, degree):
    """Sums in the reader's grammar: c[/d]*t[^b]*s[^a], any factor left
    out but not all, with zero and reducible coefficients, denominators near
    MAX_BITS bits, t^0 and negative t-exponents, s-exponents past the degree
    and, at random, every term repeated with the other sign."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        factors = []
        if draw(st.booleans()):
            c = "%d" % draw(_COEFFS)
            factors.append(c + ("/%d" % draw(_COEFFS.filter(bool)) if draw(st.booleans()) else ""))
        if draw(st.booleans()):
            b = draw(st.one_of(st.none(), st.integers(-12, 12)))
            factors.append("t" if b is None else "t^%d" % b)
        if draw(st.booleans()) or not factors:
            a = draw(st.one_of(st.none(), st.integers(0, degree + 3)))
            factors.append("s" if a is None else "s^%d" % a)
        terms.append("*".join(factors))
    if draw(st.booleans()):
        terms += draw(st.permutations(terms))
    text = "-" if draw(st.booleans()) else ""
    for i, term in enumerate(terms):
        text += (draw(_SEPARATORS) if i else "") + term
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(g8=_term_sums(8), g12=_term_sums(12))
def test_term_reader_agrees_with_the_tokenizer(g8, g12):
    for stmt in ("g8 = " + g8, "g12 = " + g12):
        assert parse_module._read_terms(stmt) is not None, stmt
    text = "g8 = %s\ng12 = %s\n" % (g8, g12)
    assert _fields(text) == _tokenizer_fields(text)


@pytest.mark.parametrize("text", [
    pytest.param("let f(u) = u + 1\ng8 = f(s^4)\ng12 = s^6", id="macro"),
    pytest.param("g8 = 3*(s^4 + t)\ng12 = s^6", id="parentheses"),
    pytest.param("g8 = s^4*3\ng12 = s^6", id="s-before-c"),
    pytest.param("g8 = s*t\ng12 = s^6", id="s-before-t"),
    pytest.param("g8 = 3*s^4 + -t\ng12 = s^6", id="plus-minus"),
    pytest.param("g8 = +3*s^4\ng12 = s^6", id="leading-plus"),
    pytest.param("g8 = \u0663*s^4\ng12 = s^6", id="arabic-indic-digit"),
    pytest.param("g8 = 3*s^4\u00a0+ t\ng12 = s^6", id="no-break-space"),
    pytest.param("g8 = 3*s^4 +\tt\ng12 = s^6", id="tab"),
    pytest.param("g8 = 3 * s^4\ng12 = s^6", id="spaced-product"),
    pytest.param("g8 = 3s^4\ng12 = s^6", id="no-star"),
    pytest.param("g8 = 3/2/5*s^4\ng12 = s^6", id="two-divisions"),
    pytest.param("g8 = 3*s^-1\ng12 = s^6", id="negative-s-exponent"),
    pytest.param("g8 = 3*s^4 +\ng12 = s^6", id="trailing-plus"),
    pytest.param("g8 = 3/0*s^4\ng12 = s^6", id="zero-denominator"),
    pytest.param("g8 = 0/0\ng12 = s^6", id="zero-over-zero"),
    pytest.param("g8 = %s*s^4\ng12 = s^6" % _LONG, id="long-coefficient", marks=_INT_LIMIT),
    pytest.param("g8 = t^%s*s^4\ng12 = s^6" % _LONG, id="long-exponent", marks=_INT_LIMIT),
])
def test_term_reader_leaves_other_statements_to_the_tokenizer(text):
    assert parse_module._read_terms(text.splitlines()[0]) is None
    assert _fields(text) == _tokenizer_fields(text)


@pytest.mark.parametrize("text", [
    pytest.param("g8 = s^4\ng8 = 3*t\ng12 = s^6", id="assigned-twice"),
    # assigned twice is checked before the sum is refused
    pytest.param(
        "g8 = s^4\ng8 = 1/%d*t + 1/3*t^2\ng12 = s^6" % (2**520 + 1),
        id="assigned-twice-too-large",
    ),
    pytest.param("g8 = 1/%d*t + 1/3*t^2\ng12 = s^6" % (2**520 + 1), id="too-large"),
    # a zero term's denominator counts as the tokenizer route's 1 does
    pytest.param(
        "g8 = 0/%d + 1/%d*t + 1/%d*t^2\ng12 = s^6" % (2**600 + 1, 2**300 + 7, 2**260 + 1),
        id="zero-term-denominator",
    ),
    pytest.param("g8 = t^100000000 + 1 - t^100000000 + t\ng12 = s^6", id="cancelled-span"),
    pytest.param("g8 = s^9 - s^9 + 0*s^10\ng12 = s^6", id="cancelled-degree"),
    pytest.param("g8 = s^9\ng12 = s^6", id="degree"),
    pytest.param("g8 = -0\ng12 = 0", id="both-zero"),
])
def test_term_reader_keeps_the_shared_checks(text):
    assert all(parse_module._read_terms(stmt) is not None for stmt in text.splitlines())
    assert _fields(text) == _tokenizer_fields(text)


def test_term_reader_agrees_with_the_tokenizer_on_the_corpus(corpus):
    for families in (corpus, generate_corpus(100, 7)):
        for f in families:
            for h in charts(f):
                text = canonical_text(h)
                assert _fields(text) == _tokenizer_fields(text), text


def test_canonical_texts_skip_the_tokenizer(corpus):
    texts = [canonical_text(f) for f in corpus[:10]]
    counts = count_calls(lambda: [parse_family(text) for text in texts], parse_module._tokenize)
    assert counts == {"_tokenize": 0}
    for name in NAMED:  # a family file has parentheses or macros
        counts = count_calls(lambda: parse_family(family_text(name)), parse_module._tokenize)
        assert counts["_tokenize"] > 0, name


# Unicode \s, \d and \w, which _tokenize's pattern reads, are str.isspace,
# isdecimal and isalnum or '_'
@pytest.mark.parametrize("stmt, tokens", [
    pytest.param(
        "\u0663*s^4", [("int", 3, 1), ("*", "*", 2), ("name", "s", 3), ("^", "^", 4), ("int", 4, 5)],
        id="arabic-indic-digit",
    ),
    pytest.param(
        "\uff13\u3000+\xa0\tt", [("int", 3, 1), ("+", "+", 3), ("name", "t", 6)],
        id="fullwidth-digit-and-spaces",
    ),
    pytest.param(
        "x\xb2 - _\xe9\u03b1\u2167",
        [("name", "x\xb2", 1), ("-", "-", 4), ("name", "_\xe9\u03b1\u2167", 6)],
        id="names",
    ),
    pytest.param("12x3", [("int", 12, 1), ("name", "x3", 3)], id="literal-then-name"),
    pytest.param("\xb2", "column 1: unexpected character '\xb2'", id="leading-superscript"),
    pytest.param("3\xbd", "column 2: unexpected character '\xbd'", id="fraction-after-literal"),
    pytest.param("s + \u2167", "column 5: unexpected character '\u2167'", id="roman-numeral"),
    pytest.param("e\u0301", "column 2: unexpected character %r" % "\u0301", id="combining-accent"),
    pytest.param(
        "1 + " + "7" * 5000, "column 5: integer literal of 5000 digits is too long",
        id="long-literal", marks=_INT_LIMIT,
    ),
])
def test_tokenizer_corners(stmt, tokens):
    if isinstance(tokens, str):
        with pytest.raises(ParseError, match="^%s$" % re.escape(tokens)):
            parse_module._tokenize(stmt)
    else:
        end = ("end", None, len(stmt.rstrip()) + 1)
        assert parse_module._tokenize(stmt) == tokens + [end]
