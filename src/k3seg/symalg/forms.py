"""Forms on the projective line with t-Laurent coefficients, and the (g8, g12)
pairs that define a degenerating Weierstrass family.

An SForm of formal degree d is a binary form of degree d written in the affine
chart s: a list of d+1 TLaurent coefficients. Keeping the formal degree around
(instead of trimming to the actual s-degree) is what lets a degree drop at the
top encode zeros at s = infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from ..errors import DegreeError, NotMinimalError, UnrecognizedCuspError, ZeroFormError
from .field import sdeg, sderiv, sdiv_exact, sgcd, smul, snorm, spow
from .laurent import INF, Scalar, TLaurent, _frac


class SForm:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable = ()):
        entries = [c if isinstance(c, TLaurent) else TLaurent.const(c) for c in coeffs]
        if len(entries) > degree + 1:
            for i in range(degree + 1, len(entries)):
                if entries[i]:
                    raise DegreeError(
                        "form of degree %d has a nonzero coefficient at s^%d" % (degree, i)
                    )
            entries = entries[: degree + 1]
        entries.extend([TLaurent.zero] * (degree + 1 - len(entries)))
        self.degree = degree
        self.coeffs = tuple(entries)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "SForm":
        return cls(degree)

    @classmethod
    def monomial(cls, degree: int, i: int, c: Scalar = 1, e: Scalar = 0) -> "SForm":
        coeffs = [TLaurent.zero] * (degree + 1)
        coeffs[i] = TLaurent.term(c, e)
        return cls(degree, coeffs)

    # -- inspection ----------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not self

    def s_degree(self) -> int:
        """Largest s-exponent with a nonzero coefficient; -1 for the zero form."""
        for i in range(self.degree, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def s_valuation(self) -> int:
        """Smallest s-exponent with a nonzero coefficient; -1 for the zero form."""
        for i in range(self.degree + 1):
            if self.coeffs[i]:
                return i
        return -1

    def min_coeff_val(self):
        vals = [c.val() for c in self.coeffs if c]
        return min(vals) if vals else INF

    def hull_points(self) -> list[tuple[int, Fraction]]:
        return [(i, c.val()) for i, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        parts = ["(%r)*s^%d" % (c, i) for i, c in enumerate(self.coeffs) if c]
        return "SForm(%d: %s)" % (self.degree, " + ".join(parts) or "0")

    # -- ring operations -----------------------------------------------------

    def _map(self, fn) -> "SForm":
        out = SForm.__new__(SForm)
        out.degree = self.degree
        out.coeffs = tuple(fn(c) for c in self.coeffs)
        return out

    def __add__(self, other: "SForm") -> "SForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        out = SForm.__new__(SForm)
        out.degree = self.degree
        out.coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        return out

    def __neg__(self) -> "SForm":
        return self._map(lambda c: -c)

    def __sub__(self, other: "SForm") -> "SForm":
        return self + (-other)

    def __mul__(self, other: "SForm") -> "SForm":
        step, ((p, low, den), (q, low2, den2)) = _integer_polys(self, other)
        return _integer_form(
            self.degree + other.degree, smul(p, q), low + low2, step, Fraction(1, den * den2)
        )

    def __pow__(self, n: int) -> "SForm":
        if n < 0:
            raise ValueError("negative power of a form")
        step, ((p, low, den),) = _integer_polys(self)
        return _integer_form(self.degree * n, spow(p, n), low * n, step, Fraction(1, den**n))

    def scale(self, c: Scalar) -> "SForm":
        c = _frac(c)
        return self._map(lambda x: x.scale(c))

    def shift_t(self, e: Scalar) -> "SForm":
        """Multiply the whole form by t^e."""
        e = _frac(e)
        return self._map(lambda c: c.shift(e))

    def substitute_scaled(self, e: Fraction) -> "SForm":
        """Rewrite in the stretched coordinate sigma = s / t^e.

        The coefficient of sigma^i picks up a factor t^(i*e).
        """
        out = SForm.__new__(SForm)
        out.degree = self.degree
        out.coeffs = tuple(c.shift(i * e) for i, c in enumerate(self.coeffs))
        return out

    def inverted(self) -> "SForm":
        """The form pulled back along s -> 1/s (coefficient list reversed)."""
        out = SForm.__new__(SForm)
        out.degree = self.degree
        out.coeffs = tuple(reversed(self.coeffs))
        return out

    def rescale_exponents(self, r: Scalar) -> "SForm":
        r = _frac(r)
        return self._map(lambda c: c.rescale_exponents(r))

    # -- limits and numerics ---------------------------------------------------

    def limit0_coeffs(self) -> list[Fraction]:
        """Coefficientwise value at t = 0; only valid when no valuation is negative."""
        return [c.limit0() for c in self.coeffs]

    def exponent_denominators(self) -> set[int]:
        dens: set[int] = set()
        for c in self.coeffs:
            dens |= c.exponent_denominators()
        return dens


class FamilyPair:
    """A pair (g8, g12) of forms over the Laurent base, plus bookkeeping.

    shift records the gauge exponent c applied by normalized(): the stored pair
    is (t^(2c) g8_in, t^(3c) g12_in) relative to the parsed input.
    """

    __slots__ = ("g8", "g12", "shift", "source_text", "_disc24")

    def __init__(self, g8: SForm, g12: SForm, shift: Scalar = 0, source_text: str = ""):
        if g8.degree != 8 or g12.degree != 12:
            raise ValueError("family forms must have formal degrees 8 and 12")
        if not g8 and not g12:
            raise ZeroFormError("g8 and g12 both vanish identically")
        self.g8 = g8
        self.g12 = g12
        self.shift = _frac(shift)
        self.source_text = source_text
        self._disc24: SForm | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FamilyPair):
            return NotImplemented
        return self.g8 == other.g8 and self.g12 == other.g12

    def __repr__(self):
        return "FamilyPair(g8=%r, g12=%r, shift=%s)" % (self.g8, self.g12, self.shift)

    def discriminant24(self) -> SForm:
        if self._disc24 is None:
            cube = self.g8 ** 3 if self.g8 else SForm.zero(24)
            square = (self.g12 * self.g12).scale(27) if self.g12 else SForm.zero(24)
            self._disc24 = cube - square
        return self._disc24

    def normalized(self) -> "FamilyPair":
        """Gauge the pair so every coefficient valuation is >= 0 with one hitting 0."""
        v8 = self.g8.min_coeff_val()
        v12 = self.g12.min_coeff_val()
        c = -min(v8 / 2 if v8 is not INF else INF, v12 / 3 if v12 is not INF else INF)
        if c == 0:
            return self
        return FamilyPair(
            self.g8.shift_t(2 * c),
            self.g12.shift_t(3 * c),
            shift=self.shift + c,
            source_text=self.source_text,
        )

    def inverted(self) -> "FamilyPair":
        return FamilyPair(
            self.g8.inverted(), self.g12.inverted(), self.shift, self.source_text
        )

    def ramification(self) -> int:
        dens = self.g8.exponent_denominators() | self.g12.exponent_denominators()
        return math.lcm(*dens)


# ---------------------------------------------------------------------------
# conversion to and from the integer kernel: s-polynomials over Z[u], u = t^step
# ---------------------------------------------------------------------------


def _integer_polys(*forms: SForm) -> tuple[Fraction, list[tuple[list, Fraction, int]]]:
    """Write each form as t^low / den * P(t^step, s), P in Z[u][s].

    Returns step and one (P, low, den) per form. P lists one integer u-array
    per s-degree up to the formal degree, untrimmed, so reversing it gives the
    form in the chart at s = infinity. step is shared by all the forms: the
    gcd of every exponent difference inside a form, so u-arrays are as short
    as the exponents allow.
    """
    terms = [
        [(i, e, c) for i, coeff in enumerate(form.coeffs) for e, c in coeff.items()]
        for form in forms
    ]
    m = math.lcm(*(e.denominator for ts in terms for _, e, _ in ts))
    ints = [[(i, e.numerator * (m // e.denominator), c) for i, e, c in ts] for ts in terms]
    lows = [min((k for _, k, _ in ts), default=0) for ts in ints]
    d = math.gcd(*(k - low for ts, low in zip(ints, lows) for _, k, _ in ts)) or 1
    out = []
    for form, ts, low in zip(forms, ints, lows):
        den = math.lcm(*(c.denominator for _, _, c in ts))
        poly: list[list[int]] = [[] for _ in range(form.degree + 1)]
        for i, k, c in ts:
            k = (k - low) // d
            arr = poly[i]
            if len(arr) <= k:
                arr.extend([0] * (k + 1 - len(arr)))
            arr[k] = c.numerator * (den // c.denominator)
        out.append((poly, Fraction(low, m), den))
    return Fraction(d, m), out


def _integer_form(
    degree: int, poly: list, low: Fraction, step: Fraction, scale: Fraction
) -> SForm:
    """The form scale * t^low * P(t^step, s) of the given formal degree, P in
    Z[u][s]: the way back from _integer_polys."""
    exps = [low + k * step for k in range(max(map(len, poly), default=0))]
    num, den = scale.numerator, scale.denominator
    return SForm(degree, [
        TLaurent._of({exps[k]: Fraction(num * x, den) for k, x in enumerate(arr) if x})
        for arr in poly
    ])


# ---------------------------------------------------------------------------
# minimality and the cusp-quartic extraction
# ---------------------------------------------------------------------------


def _repeated_factor_gcd(p: list, order: int) -> list:
    """gcd of p with its first (order-1) derivatives.

    A nonconstant common divisor here is exactly a factor of multiplicity
    >= order in p (characteristic zero).
    """
    g = list(p)
    d = list(p)
    for _ in range(order - 1):
        d = sderiv(d)
        g = sgcd(g, d)
        if sdeg(g) < 1:
            break
    return g


def _affine_nonminimal(g8p: list, g12p: list) -> bool:
    if not g8p and not g12p:
        return False
    if not g8p:
        return sdeg(_repeated_factor_gcd(g12p, 6)) >= 1
    if not g12p:
        return sdeg(_repeated_factor_gcd(g8p, 4)) >= 1
    g4 = _repeated_factor_gcd(g8p, 4)
    if sdeg(g4) < 1:
        return False
    g6 = _repeated_factor_gcd(g12p, 6)
    if sdeg(g6) < 1:
        return False
    return sdeg(sgcd(g4, g6)) >= 1


def _nonminimal(g8: SForm, g12: SForm) -> bool:
    """True when a nonconstant form P has P^4 | g8 and P^6 | g12.

    The affine test catches factors P(s); running it again on the reversed
    coefficient lists catches the factor supported at s = infinity.
    """
    _, ((p8, _, _), (p12, _, _)) = _integer_polys(g8, g12)
    charts = ((list(p8), list(p12)), (p8[::-1], p12[::-1]))
    return any(_affine_nonminimal(snorm(a), snorm(b)) for a, b in charts)


def minimality_check(f: FamilyPair) -> None:
    """Reject pairs with a common quartic/sextic power factor, at any point of P^1.

    A degenerate pair (identically vanishing discriminant) needs no further
    test here: g8^3 = 27 g12^2 over the UFD Q(u)[s] forces (g8, g12) =
    (3 G^2, G^3), and G has Laurent coefficients because G^2 does and
    Q[u, 1/u][s] is integrally closed. extract_cusp_quartic recovers that G.
    """
    if _nonminimal(f.g8, f.g12):
        raise NotMinimalError("a nonconstant form P has P^4 | g8 and P^6 | g12")


def extract_cusp_quartic(f: FamilyPair) -> SForm:
    """For a pair with identically zero discriminant, recover G with
    (g8, g12) = (3 G^2, G^3) via G = 3 g12 / g8, verifying both identities exactly."""
    if f.discriminant24():
        raise ValueError("discriminant is not identically zero")
    step, ((p8, low8, den8), (p12, low12, den12)) = _integer_polys(f.g8, f.g12)
    # g8 != 0 (else g12 = 0) and 3*g12 = G*g8 with G Laurent, so the division
    # is exact over Q[u, 1/u]
    parts, z, c = sdiv_exact(snorm(p12), snorm(p8))
    scale = Fraction(3 * den8, den12 * c)
    quartic = _integer_form(4, parts, low12 - low8 - z * step, step, scale)
    if (quartic * quartic).scale(3) != f.g8:
        raise UnrecognizedCuspError("3*G^2 differs from g8")
    if quartic ** 3 != f.g12:
        raise UnrecognizedCuspError("G^3 differs from g12")
    return quartic
