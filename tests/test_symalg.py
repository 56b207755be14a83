"""Exact-arithmetic layer, cross-checked against sympy where that is possible.

sympy is a test-only dependency; the package itself never imports it. sympy's
expand gives a canonical form for integer t-exponents, so forms with
exponents in (1/m)Z are compared after substituting t = T^m.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import charts, coeff, count_calls, family_text, stretched
from fraction_reference import hull_points
from k3seg.errors import DegreeError, NotMinimalError, ParseError, ZeroFormError
from k3seg.report import analyze
from k3seg.symalg import (
    INF,
    FamilyPair,
    SForm,
    TLaurent,
    canonical_text,
    extract_cusp_quartic,
    minimality_check,
    parse_family,
)
from k3seg.symalg import field
from k3seg.symalg.field import sdiv_exact, sgcd, smul, spdivmod, spow
from k3seg.symalg.forms import MAX_SPREAD, _canonical, _qgcd
from k3seg.symalg.parse import MAX_BITS
from k3seg.tropics import newton_polygon

S, T = sympy.symbols("s t")


def to_sympy(form: SForm, m: int = 1):
    """The form as a sympy expression, with t = T^m."""
    expr = sympy.Integer(0)
    for i, e, coef in form.terms():
        expr += sympy.Rational(coef) * S**i * T ** sympy.Rational(e * m)
    return sympy.expand(expr)


def random_form(rng: random.Random, degree: int, terms: int) -> SForm:
    coeffs = [TLaurent.zero] * (degree + 1)
    for _ in range(terms):
        i = rng.randrange(degree + 1)
        c = rng.choice((-5, -3, -1, 1, 2, 4))
        e = rng.randint(-3, 6)
        coeffs[i] = coeffs[i] + TLaurent.term(Fraction(c), Fraction(e))
    return SForm(degree, coeffs)


# ---------------------------------------------------------------------------
# TLaurent: the constructors of degree-0 forms
# ---------------------------------------------------------------------------


def laurent(terms):
    """The degree-0 form sum of c * t^e over {e: c}."""
    return sum((TLaurent.term(c, e) for e, c in terms.items()), TLaurent.zero)


def test_tlaurent_zero_conventions():
    z = TLaurent.zero
    assert not z
    assert z.degree == 0
    assert z.min_coeff_val() == INF
    assert hull_points(z) == []
    assert coeff(z, 0) == 0


def test_tlaurent_cancellation_drops_terms():
    a = laurent({Fraction(1, 2): 3, 2: -1})
    b = laurent({Fraction(1, 2): -3, 0: 7})
    s = a + b
    assert coeff(s, 0, Fraction(1, 2)) == 0
    assert s == laurent({0: 7, 2: -1})
    assert not a - a


def test_tlaurent_limit0_requires_nonnegative_valuation():
    assert laurent({0: 5, 1: 1}).limit0() == TLaurent.const(5)
    assert laurent({2: 9}).limit0() == TLaurent.zero
    assert TLaurent.zero.limit0() == TLaurent.zero
    with pytest.raises(ValueError):
        laurent({-1: 1}).limit0()


def test_tlaurent_rescale_exponents():
    a = laurent({2: 1, -1: 3})
    assert a.rescale_exponents(Fraction(1, 2)) == laurent({1: 1, Fraction(-1, 2): 3})
    with pytest.raises(ValueError):
        a.rescale_exponents(0)


def test_tlaurent_shift_is_multiplication_by_power():
    a = laurent({0: 2, 3: -1})
    assert a.shift_t(Fraction(1, 2)) == laurent({Fraction(1, 2): 2, Fraction(7, 2): -1})


# ---------------------------------------------------------------------------
# SForm
# ---------------------------------------------------------------------------


def test_sform_degree_guard():
    # trailing zero coefficients beyond the formal degree are tolerated,
    # nonzero ones are not
    SForm(2, [1, 0, 1, 0, 0])
    with pytest.raises(DegreeError):
        SForm(2, [1, 0, 1, 5])


@pytest.mark.parametrize("i", [5, -1])
def test_sform_monomial_degree_guard(i):
    # the constructor's check: a nonzero coefficient outside s^0..s^degree
    with pytest.raises(DegreeError, match=r"^form of degree 2 has a nonzero coefficient at s\^%d$" % i):
        SForm.monomial(2, i)
    assert SForm.monomial(2, i, 0) == SForm.zero(2)


def test_sform_fields_are_canonical():
    # t^low * (num/den) * P(t^step, s): low the first exponent, step the gcd
    # of the gaps, P primitive with its first entry positive, padded to
    # degree 2, and num/den the rest, reduced with den > 0
    f = SForm(2, [laurent({Fraction(1, 2): -4, Fraction(5, 2): 8}), 0,
                  TLaurent.term(Fraction(2, 3), Fraction(3, 2))])
    fields = (f.low, f.step, f.num, f.den, f.poly)
    assert fields == (Fraction(1, 2), 1, -2, 3, [[6, 0, -12], [], [0, -1]])
    assert hull_points(f) == [(0, Fraction(1, 2)), (2, Fraction(3, 2))]
    assert coeff(f, 0, Fraction(5, 2)) == 8 and coeff(f, 2, 2) == 0
    wide = laurent({0: 1, 200000: 1})
    assert (wide.low, wide.step, wide.num, wide.poly) == (0, 200000, 1, [[1, 1]])
    z = SForm.zero(3)
    assert (z.low, z.step, z.num, z.den, z.poly) == (0, 0, 0, 1, [[], [], [], []])
    # the same form reached two ways has the same fields
    square = laurent({0: 1, 1: 1}) * laurent({0: 1, 1: -1})
    assert square == laurent({0: 1, 2: -1}) and (square.step, square.poly) == (2, [[1, -1]])
    assert hash(square) == hash(laurent({0: 1, 2: -1}))
    # scaling and negating change only the scalars
    half = f.scale(Fraction(-3, 2))
    assert (half.num, half.den) == (1, 1) and half.poly is f.poly
    assert (-f).num == 2 and (-f).poly is f.poly
    # reversed, P starts with -1: the sign moves into num
    flipped = f.inverted()
    assert (flipped.num, flipped.poly) == (2, [[0, 1], [], [-6, 0, 12]])
    assert coeff(flipped, 0, Fraction(3, 2)) == Fraction(2, 3)
    assert f.shift_t(1).low == Fraction(3, 2)


def test_sform_coeff_outside_the_rows_is_zero():
    f = SForm(2, [1, 2, 3])
    assert [coeff(f, i) for i in range(-1, 4)] == [0, 1, 2, 3, 0]


def reference_sform(degree: int, coeffs) -> tuple:
    """The construction the sum replaced, as (degree, low, step, num, den, P):
    every placed coefficient moved onto one grid that holds them all, its
    array set at its row, the whole then made canonical."""
    placed = []
    for i, c in enumerate(coeffs):
        if not isinstance(c, SForm):
            c = SForm.monomial(0, 0, c)
        elif c.degree:
            raise ValueError("a coefficient must be a scalar or a form of degree 0")
        if c:
            if i > degree:
                raise DegreeError(
                    "form of degree %d has a nonzero coefficient at s^%d" % (degree, i)
                )
            placed.append((i, c))
    poly = [[]] * (degree + 1)
    low, step, num, den = Fraction(0), Fraction(0), 0, 1
    if placed:
        forms = [c for _, c in placed]
        low = min(f.low for f in forms)
        step = _qgcd(*(f.step for f in forms), *(f.low - low for f in forms))
        den = math.lcm(*(f.den for f in forms))
        ms = [f.num * (den // f.den) for f in forms]
        num = math.gcd(*ms)
        for (i, f), m in zip(placed, ms):
            (poly[i],) = field.sscale(m // num, f._on(low, step))
    return (degree, *_canonical(low, step, num, den, poly))


_TERM_EXP = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_TERM_COEFF = st.integers(-4, 4) | st.fractions(min_value=-4, max_value=4, max_denominator=6)
# degree-0 forms with fractional low and step: terms and sums of terms
_LAURENT = st.lists(st.builds(TLaurent.term, _TERM_COEFF, _TERM_EXP), min_size=1, max_size=3).map(
    lambda terms: sum(terms[1:], terms[0])
)
# the refused coefficient: a form of positive degree
_POSITIVE_DEGREE = st.builds(
    SForm.monomial, st.integers(1, 2), st.just(1), _TERM_COEFF, _TERM_EXP
)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(
    st.integers(0, 5),
    st.lists(st.just(0) | _TERM_COEFF | _LAURENT | _LAURENT, max_size=8),
    # about one draw in four inserts a form of positive degree
    st.none() | st.none() | st.none() | st.tuples(st.integers(0, 7), _POSITIVE_DEGREE),
)
@example(2, [1, 0, 1, 0, 0], None)  # zeros past the degree
@example(2, [1, 0, 1, 5], None)  # a nonzero entry past it
@example(1, [TLaurent.term(2, Fraction(1, 2)), TLaurent.term(3, Fraction(5, 6))], None)
def test_sform_constructor_matches_the_reference(degree, coeffs, wide):
    if wide is not None:
        coeffs.insert(min(wide[0], len(coeffs)), wide[1])

    def outcome(build):
        try:
            return build()
        except (ValueError, DegreeError) as err:
            return type(err), str(err)

    built = outcome(lambda: SForm(degree, coeffs))
    if isinstance(built, SForm):
        built = tuple(getattr(built, k) for k in SForm.__slots__)
    assert built == outcome(lambda: reference_sform(degree, coeffs))


def test_sform_degree_and_valuation():
    f = SForm(8, [0, 0, 0, 0, 3])
    assert f.s_valuation() == 4
    assert f.s_degree() == 4
    z = SForm.zero(5)
    assert z.s_degree() == -1 and z.s_valuation() == -1
    assert z.min_coeff_val() == INF


def test_sform_product_matches_sympy():
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.randint(1, 6)
        a = random_form(rng, degree, rng.randint(1, 4))
        b = random_form(rng, degree, rng.randint(1, 4))
        assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))
        assert to_sympy(a + a.scale(-1) + b) == to_sympy(b)


def test_sform_cube_matches_sympy():
    rng = random.Random(23)
    f = random_form(rng, 4, 5)
    assert to_sympy(f**3) == sympy.expand(to_sympy(f) ** 3)


@st.composite
def grid_forms(draw, m: int) -> SForm:
    """A form of degree 0..4 with rational coefficients and exponents on one
    grid (offset + step*k) / m; all coefficients may be zero."""
    degree = draw(st.integers(0, 4))
    offset = draw(st.integers(-3, 3))
    step = draw(st.sampled_from((1, 2, 6)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = st.dictionaries(st.integers(0, 3), coeff, max_size=3)
    return SForm(degree, [
        laurent({Fraction(offset + step * k, m): c for k, c in draw(terms).items()})
        for _ in range(degree + 1)
    ])


_GRID_A = SForm(2, [laurent({0: 1, 6: Fraction(-2, 3)}), 0, laurent({6: 5})])
_GRID_B = SForm(1, [laurent({1: 3}), laurent({1: Fraction(1, 2), 7: -1})])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from((1, 2, 3)).flatmap(
    lambda m: st.tuples(st.just(m), grid_forms(m), grid_forms(m), st.integers(0, 3))
))
@example((1, _GRID_A, _GRID_B, 3))
@example((2, _GRID_A, SForm.zero(3), 2))
def test_sform_product_and_power_match_sympy(case):
    m, a, b, n = case
    product = a * b
    assert product.degree == a.degree + b.degree
    assert to_sympy(product, m) == sympy.expand(to_sympy(a, m) * to_sympy(b, m))
    power = a**n
    assert power.degree == a.degree * n
    assert to_sympy(power, m) == sympy.expand(to_sympy(a, m) ** n)


def _assert_canonical(f: SForm) -> None:
    """The fields of f obey the layout, checked without the kernel's helpers."""
    assert len(f.poly) == f.degree + 1
    assert all(not arr or arr[-1] for arr in f.poly)
    assert isinstance(f.low, Fraction) and isinstance(f.step, Fraction) and f.step >= 0
    if not f.num:
        assert (f.low, f.step, f.den, f.poly) == (0, 0, 1, [[]] * (f.degree + 1))
        assert not f
        return
    entries = [(k, x) for arr in f.poly for k, x in enumerate(arr) if x]
    assert entries and f.den > 0 and math.gcd(f.num, f.den) == 1
    assert math.gcd(*(x for _, x in entries)) == 1 and entries[0][1] > 0
    gaps = math.gcd(*(k for k, _ in entries))
    assert min(k for k, _ in entries) == 0
    assert gaps == 1 and f.step > 0 or gaps == 0 == f.step


def _as_text(f: SForm) -> str:
    """f in the file grammar, one term per monomial, each coefficient over -1
    so that the parser meets negative denominators; f has integer exponents."""
    terms = ("(%s)/(-1)*s^%d*t^(%d)" % (-c, i, e) for i, e, c in f.terms())
    return " + ".join(terms) or "0"


_SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=8).filter(bool)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.sampled_from((1, 2, 3)).flatmap(lambda m: st.tuples(grid_forms(m), grid_forms(m))),
    st.tuples(grid_forms(1), grid_forms(1)),
    _SCALARS,
    st.integers(0, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_sform_operations_keep_fields_canonical(forms, integral, c, n, e):
    f, g = forms
    if f.degree != g.degree:
        g = SForm(f.degree, list(g.coeffs[: f.degree + 1]))
    results = [f, g, f + g, f - g, f * g, f**n, f.scale(c), f.inverted(), f.shift_t(e)]
    if f:
        level = min(v + i * e for i, v in hull_points(f))
        results.append(f.stretched_limit(e, level, f.degree))
    a, b = integral
    pair = parse_family("g8 = (%s)*(%s)\ng12 = (%s) - (%s) + s^6\n" % (
        _as_text(a), _as_text(b), _as_text(a), _as_text(b)))
    assert pair.g8 == SForm(8, list((a * b).coeffs))
    for h in results + [pair.g8, pair.g12]:
        _assert_canonical(h)
        rebuilt = SForm(h.degree, h.coeffs)
        assert rebuilt == h and hash(rebuilt) == hash(h)
        assert h.scale(c).scale(1 / c) == h
        assert h.inverted().inverted() == h
        diff = h - h
        zero = SForm.zero(h.degree)
        assert (diff.degree, diff.low, diff.step, diff.num, diff.den, diff.poly) == (
            zero.degree, zero.low, zero.step, zero.num, zero.den, zero.poly)


def _trimmed(xs: list) -> list:
    while xs and not xs[-1]:
        xs.pop()
    return xs


def schoolbook(a: list, b: list) -> list:
    """Reference product in Z[u][s]: every pair of slots, zero or not, then
    trimmed to the kernel layout."""
    width = max(map(len, a + b), default=0)
    out = [[0] * (2 * width) for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, x in enumerate(ca):
            for k, cb in enumerate(b):
                for m, y in enumerate(cb):
                    out[i + k][j + m] += x * y
    return _trimmed([_trimmed(row) for row in out])


# small coefficients of both signs (zeros inside arrays included) and 600-bit ones
_COEFF = st.integers(-3, 3) | st.integers(-(1 << 600), 1 << 600)
_ARRAY = st.lists(_COEFF, max_size=6).map(_trimmed)  # [] is an empty row
_SPOLY = st.lists(_ARRAY, max_size=6).map(_trimmed)
_WIDE = [[5], [], [-1] + [0] * ((1 << 12) - 2) + [3], [2]]


def _in_layout(p: list) -> bool:
    return (not p or bool(p[-1])) and all(not row or row[-1] for row in p)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_SPOLY, _SPOLY)
@example(_WIDE, [[1], [7]])
@example([[1], [-1]], _WIDE)
@example([[], [0, 0, 1]], [[1, 1], [], [-(1 << 600)]])
@example([[1], [1]], [[1], [-1]])
@example([[-3]], [[1, 0, 2], [], [4]])  # a constant a is a scaling
@example([[1]], [[], [7]])
def test_sparse_product_matches_schoolbook(a, b):
    product = smul(a, b)
    assert product == schoolbook(a, b)
    assert _in_layout(product)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_SPOLY, st.integers(0, 6))
def test_power_starts_from_the_base(a, n):
    expected = [[1]]
    for _ in range(n):
        expected = schoolbook(expected, a)
    counts = count_calls(lambda: spow(a, n), smul)
    assert spow(a, n) == expected
    if len(a) > 1 or a and len(a[0]) > 1:
        # squarings plus one product per further set bit: g8**3 is two
        assert counts == {"smul": max(0, n.bit_length() - 1 + bin(n).count("1") - 1)}


def reference_spdivmod(a: list, b: list) -> tuple:
    """Reference pseudo-division in Z[u][s]: rows scaled one by one with a
    schoolbook Z[u] product, the leading term subtracted slot by slot."""

    def umul(x: list, y: list) -> list:
        out = [0] * (len(x) + len(y) - 1)
        for i, cx in enumerate(x):
            for k, cy in enumerate(y):
                out[i + k] += cx * cy
        return _trimmed(out)

    r = [list(c) for c in a]
    q = [[] for _ in range(len(a) - len(b) + 1)]
    lb = b[-1]
    j = 0
    while len(r) >= len(b):
        la = r[-1]
        shift = len(r) - len(b)
        r = [umul(c, lb) if c else [] for c in r]
        q = [umul(c, lb) if c else [] for c in q]
        q[shift] = la
        for i, cb in enumerate(b):
            if cb:
                row = r[shift + i] + [0] * max(0, len(la) + len(cb) - 1 - len(r[shift + i]))
                for k, x in enumerate(umul(la, cb)):
                    row[k] -= x
                r[shift + i] = _trimmed(row)
        _trimmed(r)
        j += 1
    return q, r, j


# up to 40-bit coefficients; empty rows and inner zeros as in _SPOLY
_COEFF40 = st.integers(-3, 3) | st.integers(-(1 << 40), 1 << 40)
_SPOLY40 = st.lists(st.lists(_COEFF40, max_size=5).map(_trimmed), max_size=5).map(_trimmed)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_SPOLY40, _SPOLY40.filter(bool), _SPOLY40, st.booleans())
@example([[1], [2]], [[1], [], [3]], [], False)  # len(a) < len(b)
@example([], [[0, 1], [], [0, 0, 2]], [], False)
@example([[1, 0, -1], [], [0, 5]], [[], [7, 0, 3]], [[0, 0, 1 << 40]], True)
def test_pseudo_division_matches_the_reference(a, b, c, exact):
    if exact:  # a = c * b: sdiv_exact finds a quotient
        a = smul(c, b)
    q, r, j = spdivmod(a, b)
    assert (q, r, j) == reference_spdivmod(a, b)
    assert _in_layout(q) and _in_layout(r)
    # sgcd's operands share the factor c, so the modular screen rarely settles them
    g_a, g_b = smul(a, c), smul(b, c)
    found = sdiv_exact(a, b), sgcd(g_a, g_b), sgcd(a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(field, "spdivmod", reference_spdivmod)
        assert found == (sdiv_exact(a, b), sgcd(g_a, g_b), sgcd(a, b))
    # a nonzero gcd has its first entry positive
    assert all(not g or field.lead(g) > 0 for g in found[1:])
    if exact and c:
        assert found[0] is not None


def _u_roots(*roots):
    """The u-array of the product of the factors u - r."""
    out = [1]
    for r in roots:
        out = smul([out], [[-r, 1]])[0]
    return out


def test_sgcd_of_a_coprime_pair_is_one():
    # 1 + L(u)*s and u + s are coprime; with L vanishing at every screen
    # point the screen skips them all and the PRS result must be made positive
    b = [[0, 1], [1]]
    assert sgcd([[1], _u_roots(*field._SCREEN_POINTS)], b) == [[1]]
    # L vanishing at the first screen point alone: the screen skips it and
    # proves coprimality at the next one, so no pseudo-division runs
    a = [[1], _u_roots(field._SCREEN_POINTS[0])]
    assert field._ueval_mod(a[-1], field._SCREEN_POINTS[0], field._SCREEN_PRIME) == 0
    assert count_calls(lambda: sgcd(a, b), field.spdivmod) == {"spdivmod": 0}
    assert sgcd(a, b) == [[1]]


_ROW40 = st.lists(_COEFF40, max_size=5).map(_trimmed).filter(bool)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_SPOLY40, _SPOLY40, _SPOLY40, _SPOLY40, _ROW40)
def test_sgcd_of_a_set_is_the_pairwise_fold(a, b, c, d, unit):
    # the shared factor d keeps the screen from settling most of these sets
    a, b, c = smul(a, d), smul(b, d), smul(c, d)
    assert sgcd(a, b, c) == sgcd(sgcd(a, b), c)
    assert sgcd([], a, [], b, []) == sgcd(a, b)
    # a nonzero polynomial constant in s is a unit over Q(u)
    assert sgcd(a, [unit], b) == sgcd([unit]) == [[1]]


def test_sgcd_screen_needs_the_first_leading_coefficient():
    assert sgcd() == sgcd([], []) == []
    # 1 + L(u)*s is coprime to (u + s)*(2 + s) and (u + s)*(3 + s), whose gcd
    # is u + s, and L vanishes at every screen point: first in the set, it
    # leaves the screen nothing to read, and the PRS proves the gcd constant
    spread = [[1], _u_roots(*field._SCREEN_POINTS)]
    others = [[[0, 2], [2, 1], [1]], [[0, 3], [3, 1], [1]]]
    counts = count_calls(lambda: sgcd(spread, *others), field.spdivmod)
    assert sgcd(spread, *others) == [[1]] and counts["spdivmod"] > 0
    # last in the set, its image 1 ends the fold at the first screen point
    counts = count_calls(lambda: sgcd(*others, spread), field.spdivmod)
    assert sgcd(*others, spread) == [[1]] and counts == {"spdivmod": 0}
    assert sgcd(*others) == [[0, 1], [1]]
    # a shared 1 + L*s drops to 1 at every screen point, where the images of
    # (1 + L*s)*(2 + s) and (1 + L*s)*(3 + s) are coprime: no screen point
    # may be read, and the PRS finds the factor
    shared = [smul(spread, [[k], [1]]) for k in (2, 3)]
    assert sgcd(*shared) == spread


def reference_sgcd(*polys: list) -> list:
    """Reference gcd over Q(u), primitive with its first entry positive: the
    primitive pseudo-remainder sequence in s, each remainder made primitive
    by a second primitive sequence in Z[u] over its coefficient arrays. No
    modular screen, so every set runs the sequence."""

    def zprim(p: list) -> list:
        c = math.gcd(*p)
        return p if c < 2 else [x // c for x in p]

    def ziprem(a: list, b: list) -> list:
        a, lb = list(a), b[-1]
        while len(a) >= len(b):
            la, shift = a[-1], len(a) - len(b)
            a = [c * lb for c in a]
            for i, cb in enumerate(b):
                a[shift + i] -= la * cb
            _trimmed(a)
        return a

    def zugcd(a: list, b: list) -> list:
        a, b = zprim(list(a)), zprim(list(b))
        if len(a) < len(b):
            a, b = b, a
        while b:
            if len(b) == 1:
                return [1]
            a, b = b, zprim(ziprem(a, b))
        return a if a[-1] > 0 else [-c for c in a]

    def spp_z(p: list) -> list:
        if not _trimmed(p):
            return p
        cont = []
        for c in p:
            if c:
                cont = zugcd(cont, c)
            if cont == [1]:
                break
        if len(cont) > 1:
            p = [field._zdiv_exact(c, cont) if c else [] for c in p]
        return field.reduce(p, 0, 0, field.content(p))

    polys = [p for p in polys if p]
    if any(len(p) == 1 for p in polys):
        return [[1]]
    g = spp_z(list(polys[0])) if polys else []
    for b in polys[1:]:
        b = spp_z(list(b))
        while b:
            g, b = b, spp_z(spdivmod(g, b)[1])
        if len(g) == 1:
            break
    return g if not g or field.lead(g) > 0 else field.sscale(-1, g)


# 2*s^3 and 2 + 3*s^2, each times s + u: the first pseudo-division drops the
# s^4 and s^3 rows at once, so it stops after j = 1 < d + 1 = 2 steps with
# lb = 3, and the next remainder is divided by g*h = 9, exactly only when the
# first one was scaled up to the standard pseudo-remainder
_DROPS_TWO_ROWS = ([[], [], [], [2]], [[2], [], [3]], [[0, 1], [1]])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_SPOLY40, min_size=2, max_size=4), _SPOLY40)
# every coefficient array a multiple of u^2 with a negative leading entry
@example([[[0, 0, -3], [0, 0, 0, -6]], [[0, 0, 4, -2], [], [0, 0, -1]]], [[0, 0, -5], [0, 0, 1, -7]])
@example([[[], [0, 0, -(1 << 40)]], [[0, 0, -1], [0, 0, 0, -3]]], [[3, -1], [-2]])
def test_sgcd_matches_the_primitive_sequence(polys, shared):
    # the shared factor keeps the screen from settling most of these sets
    polys = [smul(p, shared) for p in polys]
    assert sgcd(*polys) == reference_sgcd(*polys)


def test_subresultant_steps_that_drop_several_rows():
    a, b = (smul(p, _DROPS_TWO_ROWS[2]) for p in _DROPS_TWO_ROWS[:2])
    assert spdivmod(a, b)[2] == 1 < len(a) - len(b) + 1
    assert sgcd(a, b) == reference_sgcd(a, b) == [[0, 1], [1]]


def test_sres_is_the_last_subresultant():
    # fixed up to sign, unlike the gcd's primitive part: a wrong divisor
    # g * h^d could still divide exactly and leave sgcd unchanged. The first
    # pair's first step has d = 3 and stops after j = 2, so it reads both the
    # rescale and h = g^d / h^(d - 1) past d = 1
    U = sympy.Symbol("u")

    def expr(p: list):
        return sympy.expand(sum(x * U**k * S**i for i, row in enumerate(p) for k, x in enumerate(row)))

    pairs = [
        ([[], [], [], [], [], [], [1, 1]], [[], [-1], [], [0, 3]]),
        tuple(smul(p, _DROPS_TWO_ROWS[2]) for p in _DROPS_TWO_ROWS[:2]),
        (smul([[1, -2], [], [0, 3], [5]], [[0, 4], [-1, 0, 1]]), smul([[0, 0, -1], [2]], [[0, 4], [-1, 0, 1]])),
    ]
    for a, b in pairs:
        last = sympy.expand(sympy.subresultants(expr(a), expr(b), S)[-1])
        assert expr(field._sres(a, b)) in (last, -last)


def test_sgcd_of_one_polynomial_is_its_primitive_part():
    # -6*u*(1 + 2*u*s): the content -6*u over Z[u] goes
    p = [[0, -6], [0, 0, -12]]
    assert sgcd(p) == reference_sgcd(p) == [[1], [0, 2]]
    assert sgcd([[0, 0, -2], [], [0, 0, 0, 4]]) == [[1], [], [0, -2]]


def test_parser_power_takes_two_products_for_a_cube():
    counts = count_calls(lambda: parse_family("g8 = (1 + t*s^2)^3\ng12 = s^6\n"), smul)
    assert counts == {"smul": 2}


def test_parser_takes_no_product_on_sums_of_monomials(corpus):
    # a canonical text is a sum of terms c*t^b*s^a: its products and powers
    # add and scale exponents, without a product or power of arrays
    texts = [canonical_text(f) for f in corpus[:10]]
    counts = count_calls(lambda: [parse_family(text) for text in texts], spow, smul)
    assert counts == {"spow": 0, "smul": 0}


def test_sform_stretched_limit_reads_the_shifted_coefficients():
    # the sigma^i coefficient of f(t^a * sigma) is f's s^i coefficient times
    # t^(i*a); stretched_limit reads the t^level term of each of them
    rng = random.Random(5)
    for _ in range(30):
        f = random_form(rng, rng.randint(1, 6), rng.randint(1, 5))
        if not f:
            continue
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        full = stretched(f, a)
        level = full.min_coeff_val()
        assert f.stretched_limit(a, level, f.degree) == full.shift_t(-level).limit0()
    f = SForm(3, [TLaurent.one, TLaurent.term(2, 1), TLaurent.zero, TLaurent.one])
    assert f.stretched_limit(Fraction(-1, 3), Fraction(-1), 3) == SForm(3, [0, 0, 0, 1])
    with pytest.raises(DegreeError):
        f.stretched_limit(Fraction(-1, 3), Fraction(-1), 2)


def test_sform_inverted_reverses_and_is_involutive():
    f = SForm(4, [1, 2, 0, 0, 5])
    assert f.inverted().coeffs == tuple(reversed(f.coeffs))
    assert f.inverted().inverted() == f


def test_sform_hull_points_skip_zero_coefficients():
    f = SForm(4, [TLaurent.term(1, 2), TLaurent.zero, TLaurent.zero, TLaurent.zero, TLaurent.one])
    assert hull_points(f) == [(0, Fraction(2)), (4, Fraction(0))]


# ---------------------------------------------------------------------------
# FamilyPair
# ---------------------------------------------------------------------------


def test_family_pair_rejects_bad_degrees_and_zero():
    with pytest.raises(ValueError):
        FamilyPair(SForm(4, [1]), SForm(12, [1]))
    with pytest.raises(ZeroFormError):
        FamilyPair(SForm.zero(8), SForm.zero(12))


def test_discriminant_matches_sympy(named):
    for name in ("tent", "d_mixed"):
        f = named[name]
        expected = sympy.expand(to_sympy(f.g8) ** 3 - 27 * to_sympy(f.g12) ** 2)
        assert to_sympy(f.discriminant24()) == expected


def test_discriminant_is_cached(named):
    f = named["tent"]
    assert f.discriminant_rows() is f.discriminant_rows()


def _fields(f: SForm) -> list:
    return [(type(v), v) for v in (getattr(f, k) for k in SForm.__slots__)]


def _assert_rows_match_the_product(g8: SForm, g12: SForm) -> None:
    """The discriminant decoded from its rows equals the product, field by
    field and type by type, and its zero test, its points and its polygon
    read off the rows (on a fresh pair, which decodes nothing) equal the
    product's."""
    reference = g8**3 - (g12 * g12).scale(27)
    assert _fields(FamilyPair(g8, g12).discriminant24()) == _fields(reference)
    rows = FamilyPair(g8, g12).discriminant_rows()
    assert bool(rows) == bool(reference)
    points = [(i, rows.low + k * rows.step) for i, k in rows.index_points()]
    assert points == hull_points(reference)
    if reference:
        assert newton_polygon(rows) == newton_polygon(reference)


# small coefficients, whose slots borrow from each other, and ones past 64 bits
_DISC_COEFF = (
    st.integers(-3, 3) | st.integers(-(2**90), 2**90)
    | st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def _grid_pair_form(draw, degree: int) -> SForm:
    """A form with exponents (offset + step*k) / m: a fractional or negative
    low, and a step of 0 (one exponent), 1, or 2 and 3, which meet on 1."""
    m = draw(st.sampled_from((1, 2, 3)))
    offset = draw(st.integers(-4, 4))
    step = draw(st.sampled_from((0, 1, 2, 3)))
    terms = st.dictionaries(st.integers(0, 3), _DISC_COEFF, max_size=3)
    rows = [draw(terms) if draw(st.booleans()) else {} for _ in range(degree + 1)]
    return SForm(degree, [
        laurent({Fraction(offset + step * k, m): c for k, c in row.items()}) for row in rows
    ])


@st.composite
def _discriminant_pairs(draw) -> tuple:
    """(g8, g12): a random pair; a tent-like pair whose s^12 coefficient
    cancels at its lowest exponent (c1^3 = 27*c2^2); a pair (3G^2, G^3),
    whose discriminant vanishes; any of them with one form zero."""
    kind = draw(st.sampled_from(("random", "tent", "cusp")))
    if kind == "cusp":
        quartic = draw(_grid_pair_form(4))
        g8, g12 = (quartic * quartic).scale(3), quartic**3
    else:
        g8, g12 = draw(_grid_pair_form(8)), draw(_grid_pair_form(12))
        if kind == "tent":
            a, e = draw(_SCALARS), draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
            g8 += SForm.monomial(8, 4, 3 * a * a, 2 * e)
            g12 += SForm.monomial(12, 6, a**3, 3 * e)
    zero = draw(st.sampled_from((None, None, None, "g8", "g12")))
    if zero == "g8":
        g8 = SForm.zero(8)
    elif zero == "g12":
        g12 = SForm.zero(12)
    assume(g8 or g12)
    return g8, g12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_discriminant_pairs())
# -s^12 - 243*s^12: the coefficient is the whole slot bound, 244, of 8 bits
@example((SForm.monomial(8, 4, -1), SForm.monomial(12, 6, 3)))
def test_discriminant_rows_match_the_product(pair):
    _assert_rows_match_the_product(*pair)


def test_discriminant_rows_match_the_product_on_corpus_and_families(named, corpus):
    for f in corpus + list(named.values()):
        for g in charts(f):
            _assert_rows_match_the_product(g.g8, g.g12)


def _uunpack_slot_by_slot(v: int, bits: int) -> list[int]:
    """field.uunpack as it read every slot: v's two's-complement bytes one
    signed slot at a time, each slot one more when the slot below it is
    negative."""
    n = bits // 8
    data = v.to_bytes((v.bit_length() // bits + 1) * n, "little", signed=True)
    out, borrow = [], 0
    for i in range(0, len(data), n):
        x = int.from_bytes(data[i : i + n], "little", signed=True)
        out.append(x + borrow)
        borrow = x < 0
    return field.snorm(out)


def test_uunpack_matches_the_slot_by_slot_decoder():
    rng = random.Random(35)
    # one slot, the first halvings, and odd lengths whose halves differ
    lengths = (1, 2, 3, 256, 257, 1283)
    # 136-bit slots hold coefficients past 2^64
    for bits in (8, 64, 136):
        top = (1 << (bits - 1)) - 1
        arrays = [[rng.randint(-top, top) for _ in range(n)] for n in lengths]
        # mixed signs: runs of extreme, unit and zero entries, whose borrows
        # run across slots and across the halves
        pattern = (-top, top, -1, 1, 0, 0, -1)
        arrays += [[rng.choice(pattern) for _ in range(n)] for n in lengths]
        # sparse and wide: a few entries over 100000 slots, at both ends too
        for signs in ((1, 1, 1), (-1, 1, -1), (-1, -1, -1)):
            wide = [0] * 100_000
            for k, sign in zip((0, rng.randrange(1, 99_999), 99_999), signs):
                wide[k] = sign * rng.randint(1, top)
            arrays.append(wide)
        for c in arrays:
            v = field.upack(c, bits)
            assert field.uunpack(v, bits) == _uunpack_slot_by_slot(v, bits) == field.snorm(c)
    assert field.uunpack(0, 8) == []


def test_normalized_gauge(named):
    f = named["ds_split"]
    g = f.normalized()
    assert g.shift == 4
    v8 = g.g8.min_coeff_val()
    v12 = g.g12.min_coeff_val()
    assert v8 >= 0 and v12 >= 0
    assert min(v8 / 2, v12 / 3) == 0
    assert g.normalized() is g
    assert named["ds_circle"].normalized().shift == 2
    assert named["tent"].normalized() is named["tent"]


def test_normalized_scales_discriminant_by_t_power(named):
    f = named["ds_split"]
    g = f.normalized()
    assert g.discriminant24() == f.discriminant24().shift_t(6 * (g.shift - f.shift))


def test_pair_inverted_involution(named):
    for f in named.values():
        assert f.inverted().inverted() == f


def test_ramification_of_base_changed_pair():
    g8 = SForm(8, [0, 0, 0, 0, TLaurent.term(3, Fraction(1, 2))])
    g12 = SForm(12, [TLaurent.one] + [0] * 5 + [TLaurent.one])
    assert FamilyPair(g8, g12).ramification() == 2
    # exponent 1/2 + 1/3 = 5/6, and the integral g12 contributes nothing
    assert FamilyPair(g8.shift_t(Fraction(1, 3)), g12).ramification() == 6


# ---------------------------------------------------------------------------
# parsed families against an independent expansion
# ---------------------------------------------------------------------------


def _g4u(x):
    return 3 * (x**4 + 2 * x)


def _g6u(x):
    return x**6 + 3 * x**3 + sympy.Rational(3, 2)


def test_ds_split_coefficients_match_independent_expansion(named):
    f = named["ds_split"]
    g8 = _g4u(S / T) * _g4u(1 / (T * S)) * S**4 / 3
    g12 = _g6u(S / T) * _g6u(1 / (T * S)) * S**6
    assert sympy.expand(g8) == to_sympy(f.g8)
    assert sympy.expand(g12) == to_sympy(f.g12)


def test_ds_circle_coefficients_match_independent_expansion(named):
    f = named["ds_circle"]
    w = S / (T * (S**2 + 1))
    g8 = _g4u(w) * (S**2 + 1) ** 4
    g12 = _g6u(w) * (S**2 + 1) ** 6
    assert sympy.cancel(to_sympy(f.g8) - g8) == 0
    assert sympy.cancel(to_sympy(f.g12) - g12) == 0


def test_d_families_share_the_quartic(named):
    # both d_* files build on the same q; their g8 forms agree
    assert named["d_mixed"].g8 == named["d_constant"].g8


# ---------------------------------------------------------------------------
# minimality
# ---------------------------------------------------------------------------


def test_named_families_are_minimal(named):
    for f in named.values():
        minimality_check(f)


def test_minimality_rejects_affine_common_factor():
    f = parse_family("g8 = s^4*(s^4 + t)\ng12 = s^6*(s^6 + t)\n")
    with pytest.raises(NotMinimalError):
        minimality_check(f)


def test_minimality_rejects_factor_at_infinity():
    # degree drop of (4, 6) puts the common factor at s = infinity
    f = parse_family("g8 = s^4 + t\ng12 = s^6 + t\n")
    assert f.g8.s_degree() == 4 and f.g12.s_degree() == 6
    with pytest.raises(NotMinimalError):
        minimality_check(f)


def test_minimality_rejects_cuspidal_pair_with_multiple_root():
    # (3G^2, G^3) with G = 2s^4: the quadruple root of G makes s^4 | g8 and
    # s^6 | g12, so the plain affine test fires even though the discriminant
    # vanishes identically
    f = parse_family("g8 = 12*s^8\ng12 = 8*s^12\n")
    assert not f.discriminant24()
    with pytest.raises(NotMinimalError):
        minimality_check(f)


def _sympy_nonminimal(f: FamilyPair) -> bool:
    """Independent verdict: some chart has a nonconstant common factor of g12,
    its first five s-derivatives, g8 and its first three, in Q[s, t]; each
    form is taken times t^-low, a unit over Q(t), so no exponent is negative."""
    for pair in (f, f.inverted()):
        common = sympy.Poly(0, S, T)
        for form, order in ((pair.g12, 6), (pair.g8, 4)):
            terms = {(i, int(e - form.low)): c for i, e, c in form.terms()}
            poly = sympy.Poly.from_dict(terms, S, T, domain=sympy.QQ)
            for _ in range(order):
                common = sympy.gcd(common, poly)
                poly = poly.diff(S)
        if common.degree(S) >= 1:
            return True
    return False


def _random_sform(rng: random.Random, degree: int, dense: bool) -> SForm:
    """Random form with integer t-exponents in [0, 2] and nonzero top and
    bottom coefficients; every coefficient is nonzero when dense."""
    coeffs = [TLaurent.zero] * (degree + 1)
    slots = range(degree + 1) if dense else [0, degree, rng.randrange(degree + 1)]
    for i in slots:
        while True:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            coeffs[i] = coeffs[i] + TLaurent.term(c, rng.randint(0, 2))
            if coeffs[i]:
                break
    return SForm(degree, coeffs)


def test_minimality_agrees_with_sympy_on_constructed_pairs():
    # (P^4*h4, P^6*h6) is not minimal; the near miss (P^4*h4, P^5*h6) is.
    # P(0) = 0 puts the factor at s = infinity in the inverted pair, where
    # it shows up as a degree drop.
    rng = random.Random(7)
    for p_degree, through_zero in ((1, False), (1, True), (2, False), (2, True)):
        p = _random_sform(rng, p_degree, dense=True)
        if through_zero:
            p = SForm(p_degree, (TLaurent.zero,) + p.coeffs[1:])
        h4 = _random_sform(rng, 8 - 4 * p_degree, dense=False)
        h6 = _random_sform(rng, 12 - 6 * p_degree, dense=False)
        h6_near = _random_sform(rng, 12 - 5 * p_degree, dense=False)
        bad = FamilyPair(p**4 * h4, p**6 * h6)
        near = FamilyPair(p**4 * h4, p**5 * h6_near)
        for pair in (bad, bad.inverted()):
            assert _sympy_nonminimal(pair)
            with pytest.raises(NotMinimalError):
                minimality_check(pair)
        for pair in (near, near.inverted()):
            assert not _sympy_nonminimal(pair)
            minimality_check(pair)


def _rejected(pair: FamilyPair) -> bool:
    try:
        minimality_check(pair)
    except NotMinimalError:
        return True
    return False


def test_minimal_pairs_run_no_pseudo_remainder_sequence(corpus):
    # the end orders and the modular screen over all ten parts settle every
    # corpus pair in both charts, and a minimal pair whose forms share a power
    # of p; a pair that shares p^4 and p^6 still reaches the PRS
    pairs = [g for f in corpus[:10] for g in (f, f.inverted())]
    counts = count_calls(lambda: [minimality_check(f) for f in pairs], spdivmod)
    assert counts == {"spdivmod": 0}
    shared = "let p(x) = x^2 + t*x + 1\ng8 = p(s)^4\ng12 = %s\n"
    for g12, nonminimal in (("p(s)^6", True), ("(1 + t*s)*(s - 2)*p(s)^5", False)):
        pair = parse_family(shared % g12)
        verdicts = []
        counts = count_calls(lambda: verdicts.append(_rejected(pair)), spdivmod)
        assert verdicts == [nonminimal] and (counts["spdivmod"] > 0) == nonminimal


# g8 = 0 and a g12 that repeats a quadratic with wide t-exponents: g12's gcds
# with its first two derivatives are powers of that quadratic, which a gcd of
# two parts could reach only through the PRS, on u-arrays hundreds of entries
# long
_REPEATED_CUBE = "g8 = 0\ng12 = (s^6 + t^4*s^3 + 1 + t^9*s^5)*(s^2 + t^5*s + t^-3)^3\n"


def test_minimality_of_repeated_factors_is_settled_by_the_screen(named):
    for f in (parse_family(_REPEATED_CUBE), named["d_constant"]):
        for pair in (f, f.inverted()):
            verdicts = []
            counts = count_calls(lambda: verdicts.append(_rejected(pair)), spdivmod)
            assert verdicts == [False] and counts == {"spdivmod": 0}


_T_POLY = st.dictionaries(st.integers(0, 2), st.integers(-3, 3), max_size=3)
_T_LAURENT = st.dictionaries(st.integers(-12, 12), st.integers(-3, 3), max_size=3)


@st.composite
def _t_forms(draw, degree: int, coeffs=_T_POLY) -> SForm:
    """A form whose coefficients are drawn from coeffs, by default polynomials
    in t of degree <= 2; any of them, the top and bottom ones included, may
    vanish."""
    return SForm(degree, [laurent(draw(coeffs)) for _ in range(degree + 1)])


@st.composite
def _minimality_pairs(draw) -> FamilyPair:
    """(P^a h8, P^b h12) with (a, b) = (4, 6), a near miss (4, 5) or (3, 6),
    g12 alone repeating P (0, 2), (0, 3) or (0, 6), or a random pair; either
    form may be replaced by 0. P is s, a general linear or quadratic form with
    t-coefficients, or the factor at s = infinity: the pair built with P = s
    and then inverted. When g12 alone repeats P twice or three times, P's
    t-exponents run from -12 to 12, so the repeated factor spreads over wide
    u-arrays; a sixth power keeps them from 0 to 2, since with wide exponents
    a sextic power takes seconds per pair."""
    kind = draw(st.sampled_from(("s", "infinity", "linear", "quadratic")))
    a, b = draw(st.sampled_from(((4, 6), (4, 5), (3, 6), (0, 2), (0, 3), (0, 6), (0, 0))))
    if kind in ("s", "infinity"):
        p = SForm.monomial(1, 1)
    else:
        coeffs = _T_LAURENT if (a, b) in ((0, 2), (0, 3)) else _T_POLY
        p = draw(_t_forms(1 if kind == "linear" else 2, coeffs))
        assume(p)
    g8 = p**a * draw(_t_forms(8 - a * p.degree))
    g12 = p**b * draw(_t_forms(12 - b * p.degree))
    zero = draw(st.sampled_from((None, None, "g8", "g12")))
    if zero == "g8":
        g8 = SForm.zero(8)
    elif zero == "g12":
        g12 = SForm.zero(12)
    assume(g8 or g12)
    pair = FamilyPair(g8, g12)
    return pair.inverted() if kind == "infinity" else pair


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_minimality_pairs())
# g8 = 0 and a sextic power in g12: no screen point settles the ten parts
@example(parse_family("g8 = 0\ng12 = (2*t^2*s - 1 + t)^6*(s^3 - t*s^5 + 2 + t^2*s^6)\n"))
def test_minimality_agrees_with_sympy_on_random_pairs(pair):
    assert _rejected(pair) == _sympy_nonminimal(pair)


def test_sparse_regular_exponents_cost_what_dense_ones_do():
    text = "g8 = 3*s^4 + t^%s*(1 + s^8)\ng12 = s^6 + t^%s*(1 + s^12)\n"
    base = analyze(parse_family(text % (1, 1)))
    pair = parse_family(text % (200000, 200000))
    # each form is stored in u = t^200000: every u-array has length <= 2
    assert pair.g8.step == pair.g12.step == 200000
    assert max(len(arr) for form in (pair.g8, pair.g12) for arr in form.poly) == 2
    # parsing included: the parser keeps its own values in the same step
    for e in ("200000", "100000000", "100000000*t"):
        start = time.perf_counter()
        wide = analyze(parse_family(text % (e, e)))
        assert time.perf_counter() - start < 2
        assert wide.stable.label() == base.stable.label() == "E3 A11 E3"
        assert wide.density.breakpoints == base.density.breakpoints


def test_forms_on_mismatched_grids_are_refused_before_they_spread():
    # each form is two entries in its own step, but the two meet on step 1
    # (or 1/3, after the gauge), where an exponent of 10^6 takes a million
    # entries per array
    for text in (
        "g8 = 3*s^4 + t^1000000*(1 + s^8)\ng12 = s^6 + t^1000001*(1 + s^12)\n",
        "g8 = t*(3*s^4 + t^1000000*(1 + s^8))\ng12 = t*(s^6 + t^1000000*(1 + s^12))\n",
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="^expression too large$"):
            analyze(parse_family(text))
        assert time.perf_counter() - start < 1
    # the discriminant spreads g8^3, three steps of e each, to e*3 entries
    text = "g8 = 3*s^4 + t^%d*(1 + s^8)\ng12 = s^6 + t^%d*(1 + s^12)\n"
    e = MAX_SPREAD // 3
    assert analyze(parse_family(text % (e, e + 1))).stable.label() == "E3 A1 A7 A1 E3"
    with pytest.raises(ParseError):
        analyze(parse_family(text % (e + 1, e + 2)))


# ---------------------------------------------------------------------------
# cusp quartic
# ---------------------------------------------------------------------------


def test_extract_cusp_quartic_recovers_generator(named):
    f = named["d_constant"]
    q = extract_cusp_quartic(f)
    assert q.degree == 4
    assert (q * q).scale(3) == f.g8
    assert q**3 == f.g12


def test_sform_products_are_not_bounded_like_the_parsers(named):
    # the parser refuses a product whose coefficients could pass MAX_BITS
    # bits; SForm's operations are the unbounded algebra that
    # extract_cusp_quartic checks its G with, so a cuspidal pair whose G*G
    # passes that bound parses as canonical text and still analyzes
    quartic = extract_cusp_quartic(named["d_constant"]).scale(2**300)
    square = quartic * quartic
    assert max(abs(c) for _, _, c in square.terms()) > 2**MAX_BITS
    pair = parse_family(canonical_text(FamilyPair(square.scale(3), quartic**3)))
    assert analyze(pair).stable.label() == "D8 D8"


def test_extract_cusp_quartic_needs_zero_discriminant(named):
    with pytest.raises(ValueError):
        extract_cusp_quartic(named["tent"])


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def test_canonical_text_round_trips(named, corpus):
    families = [named[name] for name in ("tent", "d_mixed", "d_constant")]
    families += [h for f in corpus for h in charts(f)]
    for f in families:
        assert parse_family(canonical_text(f)) == f


def test_canonical_text_of_tent(named):
    assert canonical_text(named["tent"]) == "g8 = 3*s^4\ng12 = t*s^12 + s^6 + t\n"


def test_canonical_text_prints_a_zero_form():
    assert canonical_text(parse_family("g8 = 0\ng12 = s^6")) == "g8 = 0\ng12 = s^6\n"


def test_canonical_text_rejects_fractional_exponents():
    g8 = SForm(8, [0, 0, 0, 0, TLaurent.term(3, Fraction(1, 2))])
    g12 = SForm(12, [0] * 6 + [TLaurent.one])
    with pytest.raises(ValueError):
        canonical_text(FamilyPair(g8, g12))


def test_parse_preserves_source_text():
    text = family_text("tent")
    assert parse_family(text).source_text == text


def test_inverted_pair_reports_its_own_text():
    # the file describes the pair before s -> 1/s; the inverted pair is
    # reported by its canonical text, which parses back to it
    inverted = parse_family(family_text("ds_split")).inverted()
    assert inverted.source_text == ""
    assert parse_family(analyze(inverted).to_dict()["input"]) == inverted
    # a regauged pair is still the same family
    pair = parse_family(family_text("ds_split"))
    assert pair.normalized().source_text == pair.source_text
