"""Forms on the projective line with t-Laurent coefficients, and the (g8, g12)
pairs that define a degenerating Weierstrass family.

An SForm of formal degree d is a binary form of degree d written in the affine
chart s. Keeping the formal degree around (instead of trimming to the actual
s-degree) is what lets a degree drop at the top encode zeros at s = infinity.

A form is stored as one canonical value of the integer kernel (field.py), the
parser's value with denominator Q = 1:

    t^low * (num/den) * P(t^step, s),  P in Z[u][s],

with P listing one integer u-array per s-degree up to the formal degree, so
reversing P gives the form in the chart at s = infinity. P is primitive (its
integer content is 1 and its first nonzero entry, lowest in s and then in u,
is positive), low is the smallest t-exponent present, step the gcd of the
gaps between the exponents (0 when there are none), gcd(num, den) = 1 and
den > 0; the zero form alone has num = 0, and low = step = 0, den = 1. So
equal forms have equal fields, scaling or negating a form changes only num
and den, the valuation of the s^i coefficient is low + step * (first nonzero
index of P[i]), and t^200000 + 1 is [1, 1] in u = t^200000. A Laurent
polynomial in t is a form of degree 0; TLaurent holds its constructors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from ..errors import DegreeError, InternalError, NotMinimalError, ParseError, ZeroFormError
from .field import (
    first, lead, reduce, sadd, sderiv, sdiv_exact, sgcd, shape, skmul, slot_bits, smul, snorm,
    spow, sscale, upack, uspread, uunpack,
)

Scalar = Union[int, Fraction]

INF = math.inf
NEG_INF = -math.inf

_ZERO = Fraction(0)

# Longest u-array, less one, that moving a form onto a finer grid may build:
# two forms on steps of gcd 1 meet on step 1, where an exponent of 10^6
# would cost a million entries per array. The parser bounds each form alone
# (MAX_SPAN = 2^14 steps of its own), and the discriminant of a legitimate
# pair reaches 3 * 2^14 on a common step; past MAX_SPREAD the input is
# refused as ParseError "expression too large".
MAX_SPREAD = 1 << 18


def _numerators(xs, *dens: int) -> tuple[int, list[int]]:
    """Rationals xs over one denominator m, the lcm of theirs and dens: (m, m * xs)."""
    m = math.lcm(*dens, *(x.denominator for x in xs))
    return m, [x.numerator * (m // x.denominator) for x in xs]


def _qgcd(*xs: Fraction) -> Fraction:
    """gcd of rationals: the generator of the group they span (0 for none)."""
    m, ns = _numerators(xs)
    return Fraction(math.gcd(*ns), m)


class SForm:
    __slots__ = ("degree", "low", "step", "num", "den", "poly")

    def __init__(self, degree: int, coeffs: Iterable = ()):
        """The form with the given coefficients from s^0 upward: forms of
        degree 0 or scalars. Entries past the formal degree must vanish."""
        form = SForm.zero(degree)
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
                # c's one row placed at s^i is still primitive: canonical
                poly = [[]] * i + c.poly + [[]] * (degree - i)
                form += SForm._new(degree, c.low, c.step, c.num, c.den, poly)
        self.degree, self.low, self.step = degree, form.low, form.step
        self.num, self.den, self.poly = form.num, form.den, form.poly

    @classmethod
    def _new(cls, degree: int, low, step, num: int, den: int, poly: list) -> "SForm":
        """Wrap fields that are already canonical."""
        out = cls.__new__(cls)
        out.degree, out.low, out.step, out.num, out.den, out.poly = degree, low, step, num, den, poly
        return out

    @classmethod
    def _of(cls, degree: int, low, step, num: int, den: int, poly: list) -> "SForm":
        """The form t^low * (num/den) * P(t^step, s), den != 0; P's arrays
        are trimmed and P is at most degree + 1 long."""
        poly = poly + [[]] * (degree + 1 - len(poly))
        return cls._new(degree, *_canonical(low, step, num, den, poly))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "SForm":
        return cls._new(degree, _ZERO, _ZERO, 0, 1, [[]] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, i: int, c: Scalar = 1, e: Scalar = 0) -> "SForm":
        c = Fraction(c)
        if not c:
            return cls.zero(degree)
        if not 0 <= i <= degree:
            raise DegreeError("form of degree %d has a nonzero coefficient at s^%d" % (degree, i))
        poly = [[]] * i + [[1]] + [[]] * (degree - i)
        return cls._new(degree, Fraction(e), _ZERO, c.numerator, c.denominator, poly)

    # -- inspection ----------------------------------------------------------

    def __bool__(self) -> bool:
        return self.num != 0

    def is_zero(self) -> bool:
        return not self

    def s_degree(self) -> int:
        """Largest s-exponent with a nonzero coefficient; -1 for the zero form."""
        return self.degree - first(self.poly[::-1]) if self else -1

    def s_valuation(self) -> int:
        """Smallest s-exponent with a nonzero coefficient; -1 for the zero form."""
        return first(self.poly) if self else -1

    def min_coeff_val(self):
        return self.low if self else INF

    def index_points(self) -> list[tuple[int, int]]:
        """(i, k) for every nonzero coefficient: the s^i coefficient has
        valuation low + k * step."""
        return [(i, first(arr)) for i, arr in enumerate(self.poly) if arr]

    def hull_points(self) -> list[tuple[int, Fraction]]:
        """(i, valuation of the s^i coefficient) for every nonzero coefficient."""
        low, step = self.low, self.step
        return [(i, low + k * step) for i, k in self.index_points()]

    def coeff(self, i: int, e: Scalar = 0) -> Fraction:
        """The coefficient of s^i * t^e."""
        return next((c for j, x, c in self.terms() if j == i and x == e), _ZERO)

    def terms(self):
        """(s-exponent, t-exponent, coefficient) of every nonzero term, by
        s-exponent and then t-exponent."""
        for i, arr in enumerate(self.poly):
            for k, x in enumerate(arr):
                if x:
                    yield i, self.low + k * self.step, Fraction(self.num * x, self.den)

    @property
    def coeffs(self) -> tuple["SForm", ...]:
        """The coefficients from s^0 upward, as forms of degree 0."""
        low, step, num, den = self.low, self.step, self.num, self.den
        return tuple(SForm._of(0, low, step, num, den, [arr]) for arr in self.poly)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SForm):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in SForm.__slots__)

    def __hash__(self):
        return hash((self.degree, self.low, self.step, self.num, tuple(map(tuple, self.poly))))

    def __repr__(self):
        parts = ["(%s)*s^%d*t^%s" % (c, i, e) for i, e, c in self.terms()]
        return "SForm(%d: %s)" % (self.degree, " + ".join(parts) or "0")

    # -- ring operations -----------------------------------------------------

    def _on(self, low: Fraction, step: Fraction) -> list:
        """P rewritten on a coarser grid: t^low * Q(t^step, s) is
        t^self.low * P(t^self.step, s), for low <= self.low and step dividing
        self.step and self.low - low. A Q of u-degree past MAX_SPREAD is
        refused before it is built."""
        j = int((self.low - low) / step) if step else 0
        k = int(self.step / step) if self.step else 1
        if j == 0 and k == 1:
            return self.poly
        if j + (max(map(len, self.poly)) - 1) * k > MAX_SPREAD:
            raise ParseError("expression too large")
        return [uspread(arr, j, k) for arr in self.poly]

    def __add__(self, other: "SForm") -> "SForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        if not other:
            return self
        if not self:
            return other
        low = min(self.low, other.low)
        step = _qgcd(self.step, other.step, self.low - low, other.low - low)
        den = math.lcm(self.den, other.den)
        m, n = self.num * (den // self.den), other.num * (den // other.den)
        num = math.gcd(m, n)
        p, q = sscale(m // num, self._on(low, step)), sscale(n // num, other._on(low, step))
        return SForm._of(self.degree, low, step, num, den, sadd(p, q))

    def __neg__(self) -> "SForm":
        return SForm._new(self.degree, self.low, self.step, -self.num, self.den, self.poly)

    def __sub__(self, other: "SForm") -> "SForm":
        return self + (-other)

    def __mul__(self, other: "SForm") -> "SForm":
        step, p, q = _on_common_step(self, other)
        return SForm._of(
            self.degree + other.degree, self.low + other.low, step,
            self.num * other.num, self.den * other.den, smul(p, q),
        )

    def __pow__(self, n: int) -> "SForm":
        if n < 0:
            raise ValueError("negative power of a form")
        return SForm._of(
            self.degree * n, self.low * n, self.step, self.num**n, self.den**n,
            spow(self.poly, n),
        )

    def scale(self, c: Scalar) -> "SForm":
        q = Fraction(self.num, self.den) * c
        if not q:
            return SForm.zero(self.degree)
        return SForm._new(self.degree, self.low, self.step, q.numerator, q.denominator, self.poly)

    def shift_t(self, e: Scalar) -> "SForm":
        """Multiply the whole form by t^e."""
        if not self:
            return self
        return SForm._new(self.degree, self.low + e, self.step, self.num, self.den, self.poly)

    def inverted(self) -> "SForm":
        """The form pulled back along s -> 1/s (coefficient list reversed; P
        is negated, and num with it, only when the reversed P starts negative)."""
        poly, num = self.poly[::-1], self.num
        if num and lead(poly) < 0:
            poly, num = sscale(-1, poly), -num
        return SForm._new(self.degree, self.low, self.step, num, self.den, poly)

    def rescale_exponents(self, r: Scalar) -> "SForm":
        """Substitute t -> t^r (base change), r a positive rational."""
        if r <= 0:
            raise ValueError("exponent rescale factor must be positive")
        return SForm._new(self.degree, self.low * r, self.step * r, self.num, self.den, self.poly)

    def stretched_limit(self, e: Fraction, level: Fraction, degree: int) -> "SForm":
        """The t = 0 limit of t^-level * self(t^e * sigma), a form in sigma of
        formal degree `degree` (DegreeError if a coefficient past it survives).
        Its sigma^i coefficient is the coefficient of s^i * t^(level - i*e);
        level must not exceed any stretched valuation val_i + i*e."""
        # that exponent sits at index (level - low - i*e) / step = (a - i*b) / m
        step = self.step or 1  # one exponent only: index 0 is the one entry
        q, (lv, lw, ev) = _numerators((level, self.low, e))
        a, b, m = (lv - lw) * step.denominator, ev * step.denominator, q * step.numerator
        column: list[list[int]] = []
        for i, arr in enumerate(self.poly):
            k, r = divmod(a - i * b, m)
            column.append([arr[k]] if not r and 0 <= k < len(arr) and arr[k] else [])
        if any(column[degree + 1 :]):
            raise DegreeError("the limit has a nonzero coefficient past s^%d" % degree)
        return SForm._of(degree, _ZERO, _ZERO, self.num, self.den, column[: degree + 1])

    def limit0(self) -> "SForm":
        """The value at t = 0, coefficientwise. Requires every valuation >= 0."""
        if self.low < 0:
            raise ValueError("no t=0 limit, valuation %s is negative" % self.low)
        return self.stretched_limit(_ZERO, _ZERO, self.degree)


def _canonical(low: Fraction, step: Fraction, num: int, den: int, poly: list) -> tuple:
    """(low, step, num, den, P) made canonical: the first exponent present
    moved into low, the gcd of the exponent gaps into step and P's signed
    content into num, then num/den reduced with den > 0."""
    if not num or not any(poly):
        return _ZERO, _ZERO, 0, 1, poly
    j, g, c = shape(poly)
    num *= c
    h = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    # most calls change neither exponent: j = 0, and g = 1 or (one exponent) 0
    if j:
        low += j * step
    if g != 1:
        step = step * g if g else _ZERO
    return low, step, num // h, den // h, reduce(poly, j, g, c)


class TLaurent:
    """Constructors of the Laurent polynomials in t, the forms of degree 0:
    the constant c and the term c * t^e."""

    zero = SForm.zero(0)
    one = SForm.monomial(0, 0)
    const = staticmethod(lambda c: SForm.monomial(0, 0, c))
    term = staticmethod(lambda c, e: SForm.monomial(0, 0, c, e))


class FamilyPair:
    """A pair (g8, g12) of forms over the Laurent base, plus bookkeeping.

    shift records the gauge exponent c applied by normalized(): the stored pair
    is (t^(2c) g8_in, t^(3c) g12_in) relative to the parsed input.
    """

    __slots__ = ("g8", "g12", "shift", "source_text", "_rows")

    def __init__(self, g8: SForm, g12: SForm, shift: Scalar = 0, source_text: str = ""):
        if g8.degree != 8 or g12.degree != 12:
            raise ValueError("family forms must have formal degrees 8 and 12")
        if not g8 and not g12:
            raise ZeroFormError("g8 and g12 both vanish identically")
        self.g8 = g8
        self.g12 = g12
        self.shift = Fraction(shift)
        self.source_text = source_text
        self._rows: Discriminant | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FamilyPair):
            return NotImplemented
        return self.g8 == other.g8 and self.g12 == other.g12

    def __repr__(self):
        return "FamilyPair(g8=%r, g12=%r, shift=%s)" % (self.g8, self.g12, self.shift)

    def discriminant_rows(self) -> "Discriminant":
        """The discriminant g8^3 - 27*g12^2 as its rows at u = 2^bits,
        computed once per pair."""
        if self._rows is None:
            self._rows = _discriminant_rows(self.g8, self.g12)
        return self._rows

    def discriminant24(self) -> SForm:
        """The discriminant g8^3 - 27*g12^2 as a form of degree 24, decoded
        from discriminant_rows on every call. No pipeline stage asks for it:
        the zero test, the Newton polygon and the oracle's coefficients are
        all read off the rows."""
        return self.discriminant_rows().form()

    def normalized(self) -> "FamilyPair":
        """Gauge the pair so every coefficient valuation is >= 0 with one hitting 0."""
        v8 = self.g8.min_coeff_val()
        v12 = self.g12.min_coeff_val()
        c = -min(v8 / 2, v12 / 3)
        if c == 0:
            return self
        return FamilyPair(
            self.g8.shift_t(2 * c),
            self.g12.shift_t(3 * c),
            shift=self.shift + c,
            source_text=self.source_text,
        )

    def inverted(self) -> "FamilyPair":
        """The pair under s -> 1/s, without the source text, which describes the pair before."""
        return FamilyPair(self.g8.inverted(), self.g12.inverted(), self.shift)

    def ramification(self) -> int:
        """lcm of the t-exponent denominators: every exponent of a form is
        low + k * step, and the gaps have gcd step."""
        return math.lcm(*(x.denominator for g in (self.g8, self.g12) for x in (g.low, g.step)))


class Discriminant(NamedTuple):
    """The discriminant t^low / den * sum of s^k * D_k(t^step), each row D_k
    in Z[u] held as the one integer D_k(2^bits). Every coefficient fits a
    signed slot of bits bits, so a nonzero row's u-valuation is its lowest
    set bit over bits, and `form` decodes the coefficients themselves.
    Like a form of degree 24 it has degree, low, step, a truth value and
    index points, so a Newton polygon reads it where it is."""

    low: Fraction
    step: Fraction
    den: int
    bits: int
    rows: list[int]

    degree = 24

    def __bool__(self) -> bool:
        return any(self.rows)

    def index_points(self) -> list[tuple[int, int]]:
        """(k, j) for every nonzero row: the s^k coefficient has valuation
        low + j * step, j the row's lowest set bit over bits."""
        bits = self.bits
        return [(k, ((v & -v).bit_length() - 1) // bits) for k, v in enumerate(self.rows) if v]

    def form(self) -> SForm:
        poly = [uunpack(v, self.bits) for v in self.rows]
        return SForm._of(24, self.low, self.step, 1, self.den, poly)


def _discriminant_rows(g8: SForm, g12: SForm) -> Discriminant:
    """g8^3 - 27*g12^2 by Kronecker substitution (Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", JSC 44, 2009),
    one s-row at a time.

    Each nonzero power g^n, n = 3 for g8 and 2 for g12, has low n * g.low,
    step g.step and top u-index n times g's: the extreme u-parts of a nonzero
    P stay nonzero in P^n. So the powers meet on the grid (low, step) below
    and are refused there, before anything is packed, exactly where their
    difference would spread one past MAX_SPREAD; with one form zero nothing
    is spread. Over one denominator each power is m * t^(low + j*step) *
    P^n(t^(k*step), s) with m an integer, and its coefficients are at most
    |m| * |P|_1^n, so slots of `slot_bits` of the sum of those bounds hold
    every coefficient of the difference. The products run on each form's own
    step, where its arrays are dense; only the power's rows are spread k
    slots apart and shifted j slots up.
    """
    terms = [(g, n, c) for g, n, c in ((g8, 3, 1), (g12, 2, -27)) if g]
    # exponents as integers over one denominator q
    q, exps = _numerators([x for g, _, _ in terms for x in (g.low, g.step)])
    lows = [n * e for (_, n, _), e in zip(terms, exps[::2])]
    low = min(lows)
    step = math.gcd(*exps[1::2], *(e - low for e in lows))
    den = math.lcm(*(g.den**n for g, n, _ in terms))
    placed, bound = [], 0
    for (g, n, c), e, g_step in zip(terms, lows, exps[1::2]):
        j = (e - low) // step if step else 0
        k = g_step // step if g_step else 1
        if (j, k) != (0, 1) and j + n * (max(map(len, g.poly)) - 1) * k > MAX_SPREAD:
            raise ParseError("expression too large")
        m = c * g.num**n * (den // g.den**n)
        bound += abs(m) * sum(sum(map(abs, arr)) for arr in g.poly) ** n
        placed.append((g.poly, n, m, j, k))
    bits = slot_bits(bound)
    rows = [0] * 25
    for poly, n, m, j, k in placed:
        p = [upack(arr, bits) if arr else 0 for arr in poly]
        power = skmul(p, p) if n == 2 else skmul(skmul(p, p), p)
        for i, x in enumerate(power):
            if x:
                if k > 1:
                    x = upack(uunpack(x, bits), bits, k)
                rows[i] += m * x << bits * j
    return Discriminant(Fraction(low, q), Fraction(step, q), den, bits, rows)


# ---------------------------------------------------------------------------
# minimality and the cusp-quartic extraction
# ---------------------------------------------------------------------------


def _on_common_step(f: SForm, g: SForm) -> tuple[Fraction, list, list]:
    """Both P on one step, each over its own low, num and den: the factors
    of a product, and units for every divisibility question over Q(u)."""
    step = _qgcd(f.step, g.step)
    return step, f._on(f.low, step), g._on(g.low, step)


def _derivatives(p: list, count: int):
    """p and its first count - 1 s-derivatives."""
    for _ in range(count):
        yield p
        p = sderiv(p)


def _nonminimal(g8: SForm, g12: SForm) -> bool:
    """True when a nonconstant form P has P^4 | g8 and P^6 | g12.

    P = s and the factor at s = infinity show as orders of vanishing at the
    two ends of the coefficient lists, at least 4 in g8 and 6 in g12 (a zero
    form vanishes to every order). Any other P divides the parts with both
    ends stripped, and in characteristic 0 an irreducible P has P^k | f
    exactly when P divides f, f', ..., f^(k-1). So one gcd over the stripped
    g8, g12 and their derivatives up to the third and the fifth decides the
    rest; sgcd's modular screen settles most minimal pairs without a
    pseudo-remainder sequence.
    """
    _, p8, p12 = _on_common_step(g8, g12)
    if not any(p8[:4] + p12[:6]) or not any(p8[-4:] + p12[-6:]):
        return True
    core8, core12 = (p[f.s_valuation() : f.s_degree() + 1] for f, p in ((g8, p8), (g12, p12)))
    return len(sgcd(*_derivatives(core8, 4), *_derivatives(core12, 6))) > 1


def minimality_check(f: FamilyPair) -> None:
    """Reject pairs with a common quartic/sextic power factor, at any point of
    P^1: orders at s = 0 and s = infinity, then one gcd (_nonminimal).

    A degenerate pair (identically vanishing discriminant) needs no further
    test here: g8^3 = 27 g12^2 over the UFD Q(u)[s] forces (g8, g12) =
    (3 G^2, G^3), and G has Laurent coefficients because G^2 does and
    Q[u, 1/u][s] is integrally closed. extract_cusp_quartic recovers that G.
    """
    if _nonminimal(f.g8, f.g12):
        raise NotMinimalError("a nonconstant form P has P^4 | g8 and P^6 | g12")


def extract_cusp_quartic(f: FamilyPair) -> SForm:
    """For a pair with identically zero discriminant, recover G with
    (g8, g12) = (3 G^2, G^3) via G = 3 g12 / g8, verifying both identities
    exactly. The discriminant forces them (see minimality_check), so a failed
    identity is an InternalError."""
    if f.discriminant_rows():
        raise ValueError("discriminant is not identically zero")
    g8, g12 = f.g8, f.g12
    step, p8, p12 = _on_common_step(g8, g12)
    # g8 != 0 (else g12 = 0) and 3*g12 = G*g8 with G Laurent, so the division
    # is exact over Q[u, 1/u]
    parts, z, c = sdiv_exact(snorm(list(p12)), snorm(list(p8)))
    quartic = SForm._of(
        4, g12.low - g8.low - z * step, step, 3 * g12.num * g8.den, g12.den * g8.num * c, parts
    )
    if (quartic * quartic).scale(3) != g8:
        raise InternalError("3*G^2 differs from g8")
    if quartic ** 3 != g12:
        raise InternalError("G^3 differs from g12")
    return quartic
