"""Floating-point cross-check of the exact pipeline.

At a few small positive values of t the 24 discriminant roots are located
numerically, their moduli are turned into empirical cut positions on the
[-1, w+] axis, and the worst mismatch against the exact positions is required
to shrink as t decreases.

The discriminant's coefficients at the smallest samples spread over t^-12 and
more, far beyond a double, so everything here runs on built-in integers.
Each complex value is a Gaussian-integer mantissa with one binary exponent, a
triple (re, im, exp) for (re + i im) * 2^exp whose larger part is cut to
_WORK_BITS = 232 bits (60 decimal digits are 203).

The float t0 is an exact dyadic, so t0^(p/q) is an integer q-th root and the
coefficients at t0 come from Horner's rule on triples. The elementary
functions (Brent, JACM 23, 1976) run in fixed point with _FIX_BITS fraction
bits: ln by an atanh series after a few square roots, the complex exp by its
Taylor series after halving the argument. They place the starting points on
the circles of the coefficient-size hull and give each root's position as an
exact Fraction, ln|root| / (e0 |ln t0|), so the deviations are exact
differences rounded to a float once.

The root refinement runs Horner's rule on fixed-point integers in
w = z / 2^k, |w| near 1, with _GUARD_BITS = 64 bits below the largest term.
That alignment depends only on the polynomial and k, so one refinement makes
it once per exponent. The iteration, its order and its stop rule
|p(z)| <= 1e-12 * sum |c_k| |z|^k are those of the same refinement on mpmath
complex numbers at 60 digits, whose roots it matches to about 1e-50, so every
reported position and deviation is the same. Most stop tests fail, and a
float upper bound on the right-hand side, with margins far above its
rounding, settles those for certain; only the others take the exact integer
sum (see _horner). prod(s - root) is compared with the coefficients on the
same triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, hypot, isqrt, ldexp

from .density import cut_positions
from .errors import CuspidalFamilyError, NoConvergenceError, OracleMismatchError
from .report import derive
from .symalg import FamilyPair
from .symalg.field import shape, uunpack
from .tropics import _lower_hull

_RESIDUAL_TARGET = 1e-12
_MAX_ITERATIONS = 500
_TOLERANCE = 0.2
# the stop test |p| <= target * bound, squared, in integers, and the
# target^2 of its float bound raised past its rounding (see _horner)
_TARGET_NUM2, _TARGET_DEN2 = (x * x for x in _RESIDUAL_TARGET.as_integer_ratio())
_FAIL_SQUARE = _RESIDUAL_TARGET * _RESIDUAL_TARGET * (1 + 1e-7)
# mantissa bits of the root refinement, and the extra fixed-point bits its
# sums keep below their largest term
_WORK_BITS = 232
_GUARD_BITS = 64
_ZERO = (0, 0, 0)
_MINUS_ONE = Fraction(-1)
_ONE = (1 << (_WORK_BITS - 1), 0, 1 - _WORK_BITS)
# 1e-6 * (1 + i), the nudge off a critical point
_JITTER = (
    (1 << (_WORK_BITS + 19)) // 10**6,
    (1 << (_WORK_BITS + 19)) // 10**6,
    -_WORK_BITS - 19,
)
# fraction bits of the fixed-point ln and exp, the square roots or halvings
# that shorten their series, and the terms exp sums at |x| <= 2^-6
_FIX_BITS = _WORK_BITS + _GUARD_BITS
_LN_ROOTS = 3
_EXP_HALVINGS = 8
_TAYLOR_TERMS = 32
# the t samples of oracle_compare and of k3seg oracle
DEFAULT_T_SAMPLES = (1e-3, 1e-5, 1e-7)


@dataclass(frozen=True)
class OracleReport:
    t_samples: tuple[float, ...]
    exact_positions: tuple[Fraction, ...]
    positions: tuple[tuple[float, ...], ...]
    deviations: tuple[float, ...]
    reconstruction_errors: tuple[float, ...]
    fitted_c: float
    tolerance: float


def _atanh(x: int, alternating: bool = False) -> int:
    """atanh(x), or atan(x) if alternating, for |x| <= 1/3; x and the result
    in units of 2^-_FIX_BITS."""
    if x < 0:  # floors of negative terms would not reach 0
        return -_atanh(-x, alternating)
    F = _FIX_BITS
    x2 = (x * x) >> F
    if alternating:
        x2 = -x2
    total, term, k = 0, x, 1
    while term:
        total += term // k
        term = (term * x2) >> F
        k += 2
    return total


_ONE_FIX = 1 << _FIX_BITS
_LN2 = 2 * _atanh(_ONE_FIX // 3)
# Machin: pi / 4 = 4 atan(1/5) - atan(1/239)
_PI = 16 * _atanh(_ONE_FIX // 5, True) - 4 * _atanh(_ONE_FIX // 239, True)
_SQRT_HALF = isqrt(1 << (2 * _FIX_BITS - 1))
# the starting angles' offsets 0.70710678 + k * 0.39898
_OFFSET = (70710678 << _FIX_BITS) // 10**8
_OFFSET_STEP = (39898 << _FIX_BITS) // 10**5


def _ln(n: int, e: int) -> int:
    """ln(n * 2^e) for an int n > 0, in units of 2^-_FIX_BITS.

    n * 2^e = y * 2^k with y in [1/sqrt 2, sqrt 2), so ln = k ln 2 + ln y;
    _LN_ROOTS square roots bring y to within 5 % of 1, and
    ln y = 2^(_LN_ROOTS + 1) atanh((y - 1) / (y + 1)) by its series."""
    F = _FIX_BITS
    shift = n.bit_length() - F
    y = n >> shift if shift >= 0 else n << -shift
    k = e + shift + F
    if y < _SQRT_HALF:
        y, k = y << 1, k - 1
    for _ in range(_LN_ROOTS):
        y = isqrt(y << F)
    return k * _LN2 + (_atanh(((y - _ONE_FIX) << F) // (y + _ONE_FIX)) << (_LN_ROOTS + 1))


def _exp(re: int, im: int = 0) -> tuple:
    """e^(re + i im) as a triple, re and im in units of 2^-_FIX_BITS.

    re = j ln 2 + r with 0 <= r < ln 2, and im is moved into [-pi, pi); then
    e^(r + i im) is the Taylor series at (r + i im) / 2^_EXP_HALVINGS, whose
    _TAYLOR_TERMS terms reach below 2^-(_FIX_BITS + 8), squared back
    _EXP_HALVINGS times, and 2^j is the exponent's part."""
    F, H = _FIX_BITS, _EXP_HALVINGS
    j = re // _LN2
    wr = re - j * _LN2
    wi = im - (im + _PI) // (2 * _PI) * (2 * _PI)
    sr = si = 0
    tr, ti = _ONE_FIX, 0
    for k in range(1, _TAYLOR_TERMS + 1):
        sr, si = sr + tr, si + ti
        tr, ti = ((tr * wr - ti * wi) >> (F + H)) // k, ((tr * wi + ti * wr) >> (F + H)) // k
    for _ in range(H):
        sr, si = (sr * sr - si * si) >> F, (2 * sr * si) >> F
    return _norm(sr, si, j - F)


def _iroot(n: int, q: int) -> int:
    """floor(n^(1/q)) for n >= 0: Newton's iteration from above."""
    if q == 1:
        return n
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _power(t0: Fraction, e: Fraction) -> tuple:
    """t0^e as a triple, t0 > 0 and e rational. With e = p / q, t0^|p| by
    squaring on _FIX_BITS bits and more, then its integer q-th root,
    inverted for p < 0. The base a / b (t0 or 1 / t0) is scaled by its own
    size, so it keeps its bits down to the smallest double, 5e-324."""
    p, q = e.numerator, e.denominator
    a, b = (t0.numerator, t0.denominator) if p >= 0 else (t0.denominator, t0.numerator)
    p = abs(p)
    # each of the 2 log2(p) cuts costs an ulp, so p's bits ride along
    bits = _FIX_BITS + p.bit_length() + 8
    shift = bits + b.bit_length() - a.bit_length()
    base = (a << shift) // b if shift >= 0 else (a >> -shift) // b
    m, x = 1, 0
    for bit in bin(p)[2:]:
        m, x = m * m, 2 * x
        if bit == "1":
            m, x = m * base, x - shift
        cut = m.bit_length() - bits
        if cut > 0:
            m, x = m >> cut, x + cut
    # t0^|p| = m 2^x; with x = q k + r, its q-th root is (m 2^r)^(1/q) 2^k
    k, r = divmod(x, q)
    extra = max(0, -(-(q * _FIX_BITS - m.bit_length() - r) // q))
    return _norm(_iroot(m << (r + q * extra), q), 0, k - extra)


def _initial_points(coeffs):
    """Starting points on circles read off the coefficient-size hull.

    The upper hull of (i, ln|c_i|) is the lower hull of (i, -ln|c_i|),
    negated back. For each of its edges from index k1 to k2 the two end
    coefficients balance at modulus exp((ln|c_k1| - ln|c_k2|)/(k2 - k1));
    that circle gets k2 - k1 points at the angles 2 pi (j + 1/2) / (k2 - k1)
    plus an edge-dependent offset, so no starting point sits on a symmetry
    axis: the first is one complex exp, the others are rotations of it.
    """
    pts = [(i, -_ln(abs(c[0]), c[2])) for i, c in enumerate(coeffs) if c[0]]
    hull = [(i, -y) for i, y in _lower_hull(pts)]
    out = []
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        m = k2 - k1
        point = _exp((y1 - y2) // m, _PI // m + _OFFSET + k1 * _OFFSET_STEP)
        rotation = _exp(0, 2 * _PI // m)
        for _ in range(m):
            out.append(point)
            point = _mul(point, rotation)
    return out


def _norm(re, im, exp):
    """(re + i im) * 2^exp with its larger part cut to _WORK_BITS bits; zero
    is (0, 0, 0). Cutting floors, so a part may end one bit longer."""
    shift = max(re.bit_length(), im.bit_length()) - _WORK_BITS
    if shift >= 0:
        return re >> shift, im >> shift, exp + shift
    if re or im:
        return re << -shift, im << -shift, exp + shift
    return _ZERO


def _add(a, b):
    """a + b, aligned exactly unless one part is below the other's last bit."""
    ar, ai, ae = a
    br, bi, be = b
    if not (br or bi):
        return a
    if not (ar or ai):
        return b
    shift = ae - be
    if shift > _WORK_BITS + 4:
        return a
    if shift < -_WORK_BITS - 4:
        return b
    if shift >= 0:
        return _norm((ar << shift) + br, (ai << shift) + bi, be)
    return _norm(ar + (br << -shift), ai + (bi << -shift), ae)


def _sub(a, b):
    return _add(a, (-b[0], -b[1], b[2]))


def _mul(a, b):
    ar, ai, ae = a
    br, bi, be = b
    return _norm(ar * br - ai * bi, ar * bi + ai * br, ae + be)


def _div(a, b):
    """a / b for b != 0, as a * conj(b) / |b|^2 cut to _WORK_BITS bits."""
    ar, ai, ae = a
    br, bi, be = b
    nrm = br * br + bi * bi
    qr = ar * br + ai * bi
    qi = ai * br - ar * bi
    # two guard bits, so the quotient has at least _WORK_BITS of them
    shift = _WORK_BITS + 2 + nrm.bit_length() - max(qr.bit_length(), qi.bit_length())
    if shift >= 0:
        return _norm((qr << shift) // nrm, (qi << shift) // nrm, ae - be - shift)
    return _norm((qr >> -shift) // nrm, (qi >> -shift) // nrm, ae - be - shift)


def _align(mants, exps, scale):
    """Horner's fixed-point data for the exponent scale: the unit, and the
    coefficients c_k 2^(scale k) and their absolute values in units of 2^unit,
    the latter also as floats, all three from the top degree down. The largest
    coefficient gets _WORK_BITS + _GUARD_BITS bits; the absolute values are
    cut from |c_k|, not taken of the cut c_k."""
    unit = max(e + m.bit_length() + scale * k for k, (m, e) in enumerate(zip(mants, exps)) if m)
    unit -= _WORK_BITS + _GUARD_BITS
    terms = []
    abs_terms = []
    for k, (m, e) in enumerate(zip(mants, exps)):
        s = e + scale * k - unit
        if s >= 0:
            terms.append(m << s)
            abs_terms.append(abs(m) << s)
        else:
            terms.append(m >> -s)
            abs_terms.append(abs(m) >> -s)
    terms.reverse()
    abs_terms.reverse()
    return unit, terms, abs_terms, [float(a) for a in abs_terms]


def _horner(poly, z):
    """p(z) and p'(z) as triples, and whether z passes the stop test
    |p(z)| <= 1e-12 * sum_k |c_k| |z|^k; poly is (mantissas, exponents,
    aligned) of the ascending coefficients, aligned a dict that _find_roots
    starts empty for each polynomial.

    Horner's rule runs in w = z / 2^scale, |w| near 1, on fixed-point
    integers in units of 2^unit: coefficient k becomes c_k 2^(scale k), and
    the largest of them has _WORK_BITS + _GUARD_BITS bits. That alignment
    depends only on the polynomial and scale = exp + _WORK_BITS, so aligned
    keeps it per scale: the roots revisit few exponents.

    The exact test is den^2 |p|^2 <= num^2 bound^2, num / den the target
    _RESIDUAL_TARGET and bound the floored Horner sum of the aligned
    a_k = |c_k| 2^(scale k) at r / 2^W, r = isqrt(re^2 + im^2) <= |z|'s
    mantissa. The floors only lower it, so bound <= sum_k a_k rho^k for any
    rho >= |w|. Most tests fail, and a float bound settles those without the
    second integer Horner loop: rho is |w| from hypot, an ulp or two off,
    raised by 1e-12; U = sum_k a_k rho^k by float Horner on non-negative
    terms, under 1e-14 off over 25 steps, raised by 1e-9; |p|^2 in floats,
    a few ulps off, lowered by 1e-9; and target^2, rounded twice, raised by
    1e-7 (_FAIL_SQUARE). If the lowered |p|^2 still exceeds the raised
    target^2 U^2, the exact test fails for certain; otherwise it runs. No
    float overflows: |w| <= sqrt(2) and each a_k has at most
    _WORK_BITS + _GUARD_BITS bits, so every value stays below 2^700.
    """
    mants, exps, aligned = poly
    zr, zi, ze = z
    W = _WORK_BITS
    scale = ze + W
    entry = aligned.get(scale)
    if entry is None:
        entry = aligned[scale] = _align(mants, exps, scale)
    unit, terms, abs_terms, float_terms = entry
    pr, pi, dr, di = terms[0], 0, 0, 0
    for c in terms[1:]:
        dr, di = ((dr * zr - di * zi) >> W) + pr, ((dr * zi + di * zr) >> W) + pi
        pr, pi = ((pr * zr - pi * zi) >> W) + c, (pr * zi + pi * zr) >> W
    p, dp = (pr, pi, unit), (dr, di, unit - scale)
    rho = ldexp(hypot(zr, zi), -W) * (1 + 1e-12)
    upper = float_terms[0]
    for a in float_terms[1:]:
        upper = upper * rho + a
    if (float(pr) ** 2 + float(pi) ** 2) * (1 - 1e-9) > _FAIL_SQUARE * (upper * (1 + 1e-9)) ** 2:
        return p, dp, False
    r = isqrt(zr * zr + zi * zi)
    bound = abs_terms[0]
    for c in abs_terms[1:]:
        bound = ((bound * r) >> W) + c
    return p, dp, _TARGET_DEN2 * (pr * pr + pi * pi) <= _TARGET_NUM2 * bound * bound


def _repel(z, roots):
    """sum 1/(z - w) over the roots w != z, on fixed-point integers scaled so
    that the largest term has _WORK_BITS + _GUARD_BITS bits."""
    zr, zi, ze = z
    W = _WORK_BITS
    # z - w as in _add, inlined and left uncut: through _sub this loop, the
    # refinement's innermost next to Horner's, made it about 20 % slower
    diffs = []
    for wr, wi, we in roots:
        shift = ze - we
        if shift > W + 4:
            ur, ui, ue = zr, zi, ze
        elif shift >= 0:
            ur, ui, ue = (zr << shift) - wr, (zi << shift) - wi, we
        elif shift >= -W - 4:
            ur, ui, ue = zr - (wr << -shift), zi - (wi << -shift), ze
        else:
            ur, ui, ue = -wr, -wi, we
        if ur or ui:
            diffs.append((ur, ui, ue, ur * ur + ui * ui))
    if not diffs:
        return _ZERO
    # 1/|u| is about 2^-(ue + bits(nrm)/2) for u = (ur + i ui) 2^ue, so the
    # nearest root gives the largest term
    nearest = min(2 * ue + nrm.bit_length() for _, _, ue, nrm in diffs) // 2
    q = W + _GUARD_BITS + nearest
    sr = si = 0
    for ur, ui, ue, nrm in diffs:
        s = q - ue
        if s >= 0:
            sr += (ur << s) // nrm
            si -= (ui << s) // nrm
    return _norm(sr, si, -q)


def _find_roots(coeffs):
    """All roots of a polynomial with real coefficient triples, the first and
    last nonzero, by simultaneous refinement, to relative residual 1e-12.

    The iteration is Aberth's, Gauss-Seidel style: each root in turn takes the
    step N / (1 - N * sum_j 1/(z - z_j)) with N = p(z)/p'(z), until every root
    passes |p(z)| <= 1e-12 * sum_k |c_k| |z|^k. It runs on integer triples
    (re, im, exp) for (re + i im) * 2^exp; see the module docstring.
    A root that passed the test keeps its value, so it is not evaluated again.
    The coefficients' fixed-point alignment, one per exponent the roots
    visit, lives in a dict made for this call (see _horner).
    """
    n = len(coeffs) - 1
    if n == 0:
        return []
    roots = _initial_points(coeffs)
    assert len(roots) == n
    mants = tuple(c[0] for c in coeffs)
    exps = tuple(c[2] for c in coeffs)
    poly = (mants, exps, {})
    settled = [False] * n
    for _ in range(_MAX_ITERATIONS):
        moved = False
        for i in range(n):
            if settled[i]:
                continue
            z = roots[i]
            p, dp, small = _horner(poly, z)
            if small:
                settled[i] = True
                continue
            moved = True
            if not (dp[0] or dp[1]):
                modulus = _norm(isqrt(z[0] * z[0] + z[1] * z[1]), 0, z[2])
                roots[i] = _add(z, _mul(_add(modulus, _ONE), _JITTER))
                continue
            newton = _div(p, dp)
            denom = _sub(_ONE, _mul(newton, _repel(z, roots)))
            roots[i] = _sub(z, newton if denom == _ZERO else _div(newton, denom))
        if not moved:
            return roots
    raise NoConvergenceError(
        "root refinement missed the 1e-12 residual target in %d iterations"
        % _MAX_ITERATIONS
    )


def _largest_square(triples):
    """max |x|^2 over the triples x, as (n, e) for n * 2^e; n = 0 if all
    are zero."""
    squares = [(re * re + im * im, 2 * exp) for re, im, exp in triples if re or im]
    if not squares:
        return 0, 0
    low = min(e for _, e in squares)
    return max(n << (e - low) for n, e in squares), low


def _reconstruction_error(coeffs, roots):
    """Max coefficient error of prod(s - root) against coeffs made monic,
    relative to the largest monic coefficient, as a float.

    The product and the differences run on the triples; the ratio of the two
    maxima is the isqrt of the ratio of their squares, taken to 64 bits
    beyond a double's 53, so the float is rounded once from it.
    """
    lead = coeffs[-1]
    monic = [_div(c, lead) for c in coeffs]
    recon = [_ONE]
    for r in roots:
        recon = [_ZERO] + recon
        for k in range(len(recon) - 1):
            recon[k] = _sub(recon[k], _mul(r, recon[k + 1]))
    num, num_exp = _largest_square(_sub(a, b) for a, b in zip(recon, monic))
    if not num:
        return 0.0
    den, den_exp = _largest_square(monic)
    # an even shift, so the square root keeps a whole exponent
    shift = max(0, 2 * (53 + 64) + den.bit_length() - num.bit_length())
    shift += shift & 1
    return ldexp(isqrt((num << shift) // den), (num_exp - den_exp - shift) // 2)


def _evaluated_discriminant(f: FamilyPair, t0: Fraction):
    """The discriminant's coefficients at t0 as real triples, by Horner's
    rule on its decoded rows. u^j, the gcd g of the u-exponent gaps and the
    part h of the rows' content that den shares are taken out first, as the
    canonical form of degree 24 takes them, so each triple is the one that
    form's t0^low / den * (num * P)(t0^step) gives."""
    d = f.discriminant_rows()
    poly = [uunpack(v, d.bits) for v in d.rows]
    j, g, c = shape(poly)
    h = gcd(c, d.den)
    scale = _div(_power(t0, d.low + j * d.step), _norm(d.den // h, 0, 0))
    u = _power(t0, d.step * g)
    out = []
    for arr in poly:
        acc = _ZERO
        for x in reversed(arr[j :: g or 1]):
            acc = _add(_mul(acc, u), _norm(x // h, 0, 0))
        out.append(_mul(acc, scale))
    return out


def _root_data(f: FamilyPair, t0: Fraction):
    """The 24 discriminant roots at t0, roots at s = 0 as zero triples and
    the degree drop as None markers, and the reconstruction error of the
    finite ones."""
    coeffs = _evaluated_discriminant(f, t0)
    support = [i for i, c in enumerate(coeffs) if c[0]]
    if not support:
        raise CuspidalFamilyError("discriminant vanishes identically at t = %s" % float(t0))
    lo, hi = support[0], support[-1]
    inner = coeffs[lo : hi + 1]
    finite = _find_roots(inner)
    recon = _reconstruction_error(inner, finite) if finite else 0.0
    return [_ZERO] * lo + finite + [None] * (24 - hi), recon


def check_t_samples(t_list) -> None:
    """ValueError unless the t samples are nonempty, each strictly between 0
    and 1, and strictly decreasing."""
    if not t_list:
        raise ValueError("need at least one t sample")
    if any(not 0 < t < 1 for t in t_list):
        raise ValueError("t samples must lie strictly between 0 and 1")
    if any(b >= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t samples must be strictly decreasing")


def roots_at(f: FamilyPair, t0) -> list:
    """The 24 roots of the discriminant at t = t0 as triples (re, im, exp)
    for (re + i im) * 2^exp; roots at s = 0 are (0, 0, 0) and the degree drop
    gives None markers."""
    check_t_samples([t0])
    if not f.discriminant_rows():
        raise CuspidalFamilyError(
            "discriminant is identically zero; there are no roots to track"
        )
    return _root_data(f, Fraction(t0))[0]


def _ln_of(x: Fraction) -> int:
    """ln x for a rational x > 0, in units of 2^-_FIX_BITS."""
    return _ln(x.numerator, 0) - _ln(x.denominator, 0)


def empirical_positions(roots, e0: Fraction, einf: Fraction, t0) -> list:
    """Cut positions ln|root| / (e0 * |ln t|) of roots as roots_at returns
    them, clamped to [-1, einf/e0] and sorted; zero roots pin to -1, None
    markers to the right endpoint. Each is an exact Fraction: the quotient of
    the two fixed-point logarithms."""
    check_t_samples([t0])
    w_plus = Fraction(einf) / Fraction(e0)
    # the ln of |root|^2 = (re^2 + im^2) 2^(2 exp) is 2 ln|root|: the 2 joins denom
    denom = 2 * Fraction(e0) * abs(_ln_of(Fraction(t0)))
    out = []
    for z in roots:
        if z is None:
            out.append(w_plus)
        elif z == _ZERO:
            out.append(_MINUS_ONE)
        else:
            re, im, exp = z
            x = _ln(re * re + im * im, 2 * exp) / denom
            out.append(min(max(x, _MINUS_ONE), w_plus))
    return sorted(out)


def oracle_compare(f: FamilyPair, t_list=DEFAULT_T_SAMPLES) -> OracleReport:
    """Track the discriminant roots at each t sample and compare the sorted
    empirical positions with the exact ones.

    Deviations must not increase along the (strictly decreasing) t samples
    and the last one must land within the tolerance 0.2; otherwise the exact
    pipeline and the numerics disagree and this raises OracleMismatchError.
    The family's data and refusals are analyze's, from report.derive; where
    analyze would take the cusp-quartic route, this raises CuspidalFamilyError.
    """
    samples = [float(t) for t in t_list]
    check_t_samples(samples)

    f, _, _, ends, trop_d = derive(f)
    if trop_d is None:
        raise CuspidalFamilyError(
            "discriminant vanishes identically; use the cusp-quartic route"
        )
    cut = cut_positions(trop_d, ends)
    per_sample = []
    deviations = []
    recon_errors = []
    for t0 in samples:
        roots, recon = _root_data(f, Fraction(t0))
        emp = empirical_positions(roots, ends.at_zero, ends.at_infinity, t0)
        dev = max(abs(a - b) for a, b in zip(emp, cut.positions))
        per_sample.append(tuple(float(x) for x in emp))
        deviations.append(float(dev))
        recon_errors.append(recon)

    for a, b in zip(deviations, deviations[1:]):
        if b > a + 1e-12:
            raise OracleMismatchError(
                "deviation grew from %.3g to %.3g as t decreased" % (a, b)
            )
    if deviations[-1] > _TOLERANCE:
        raise OracleMismatchError(
            "final deviation %.3g exceeds tolerance %.3g"
            % (deviations[-1], _TOLERANCE)
        )
    # float of an int rounds once: |ln t| to the nearest double
    fitted = max(
        dev * ldexp(float(abs(_ln_of(Fraction(t)))), -_FIX_BITS)
        for dev, t in zip(deviations, samples)
    )

    return OracleReport(
        t_samples=tuple(samples),
        exact_positions=tuple(cut.positions),
        positions=tuple(per_sample),
        deviations=tuple(deviations),
        reconstruction_errors=tuple(recon_errors),
        fitted_c=fitted,
        tolerance=_TOLERANCE,
    )
