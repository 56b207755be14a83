"""The family-file grammar and its error reporting."""

from fractions import Fraction

import pytest

from k3seg.errors import DegreeError, NotPolynomialError, ParseError
from k3seg.symalg import parse_family


def coeff(form, s_exp, t_exp):
    return form.coeffs[s_exp].coeff(Fraction(t_exp))


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
    assert f.g12.is_zero()


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


def test_columns_count_from_line_start_after_semicolons():
    msg = err_message("g8 = s^4; g12 = s^6 +", ParseError)
    assert "column 22" in msg


def test_trailing_input_after_assignment():
    msg = err_message("g8 = s^4 junk\ng12 = s^6", ParseError)
    assert "trailing input" in msg and "column 10" in msg


def test_deep_nesting_is_a_parse_error():
    msg = err_message("g8 = s^4\ng12 = " + "(" * 3000 + "s^6" + ")" * 3000, ParseError)
    assert msg == "line 2: expression nested too deeply"
    # each macro is shallow; only evaluating the last one recurses deeply
    chain = "".join("let f%d(x) = f%d(x)\n" % (i, i - 1) for i in range(1, 1500))
    msg = err_message("let f0(x) = x\n" + chain + "g8 = f1499(s^4)\ng12 = s^6", ParseError)
    assert msg == "line 1501: expression nested too deeply"


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
