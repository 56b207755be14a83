"""Floating-point cross-check of the exact pipeline.

At a few small positive values of t the 24 discriminant roots are located
numerically, their moduli are turned into empirical cut positions on the
[-1, w+] axis, and the worst mismatch against the exact positions is required
to shrink as t decreases.

The discriminant's coefficients at the smallest samples spread over t^-12 and
more, far beyond a double. mpmath evaluates them at 60 digits (203 bits) and
places the starting points; the root refinement itself runs on built-in
integers. Each complex value is a Gaussian-integer mantissa with one binary
exponent, a triple (re, im, exp) for (re + i im) * 2^exp whose larger part is
cut to _WORK_BITS = 232 bits, and Horner's rule runs on fixed-point integers
in w = z / 2^k, |w| near 1, with _GUARD_BITS = 64 bits below the largest term.
The iteration, its order and its stop rule |p(z)| <= 1e-12 * sum |c_k| |z|^k
are those of the same refinement on mpmath complex numbers, whose roots it
matches to about 1e-50, so every reported position and deviation is unchanged.
The roots go back out as mpmath complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from mpmath import mp

from .density import cut_positions
from .errors import CuspidalFamilyError, NoConvergenceError, OracleMismatchError, ZeroFormError
from .symalg import FamilyPair, minimality_check
from .tropics import _lower_hull, end_exponents, newton_polygon, pair_polygons

_DPS = 60
_RESIDUAL_TARGET = 1e-12
_MAX_ITERATIONS = 500
_TOLERANCE = 0.2
# mantissa bits of the root refinement (mpmath carries 203 at 60 digits),
# and the extra fixed-point bits its sums keep below their largest term
_WORK_BITS = 232
_GUARD_BITS = 64
_ZERO = (0, 0, 0)
_ONE = (1 << (_WORK_BITS - 1), 0, 1 - _WORK_BITS)
# 1e-6 * (1 + i), the nudge off a critical point
_JITTER = (
    (1 << (_WORK_BITS + 19)) // 10**6,
    (1 << (_WORK_BITS + 19)) // 10**6,
    -_WORK_BITS - 19,
)


@dataclass(frozen=True)
class OracleReport:
    t_samples: tuple[float, ...]
    exact_positions: tuple[Fraction, ...]
    positions: tuple[tuple[float, ...], ...]
    deviations: tuple[float, ...]
    reconstruction_errors: tuple[float, ...]
    fitted_c: float
    tolerance: float


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _initial_points(coeffs):
    """Starting points on circles read off the coefficient-size hull.

    The upper hull of (i, log|c_i|) is the lower hull of (i, -log|c_i|),
    negated back. For each of its edges from index k1 to k2 the two end
    coefficients balance at modulus exp((log|c_k1| - log|c_k2|)/(k2 - k1));
    that circle gets k2 - k1 points, rotated by an edge-dependent offset so no
    starting point sits on a symmetry axis.
    """
    pts = [(i, -mp.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull = [(i, -y) for i, y in _lower_hull(pts)]
    out = []
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = mp.exp((y1 - y2) / m)
        offset = mp.mpf("0.70710678") + k1 * mp.mpf("0.39898")
        for j in range(m):
            theta = 2 * mp.pi * (j + mp.mpf("0.5")) / m + offset
            out.append(radius * mp.exp(1j * theta))
    return out


def _mantissa(x):
    """(m, e) with the mpf x = m * 2^e exactly and m a built-in int, whichever
    integer type mpmath's backend stores."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    return (-man if sign else man), exp


def _norm(re, im, exp):
    """(re + i im) * 2^exp with its larger part cut to _WORK_BITS bits; zero
    is (0, 0, 0). Cutting floors, so a part may end one bit longer."""
    shift = max(re.bit_length(), im.bit_length()) - _WORK_BITS
    if shift >= 0:
        return re >> shift, im >> shift, exp + shift
    if re or im:
        return re << -shift, im << -shift, exp + shift
    return _ZERO


def _to_triple(z):
    re, re_exp = _mantissa(z.real)
    im, im_exp = _mantissa(z.imag)
    exp = min(re_exp, im_exp)
    return _norm(re << (re_exp - exp), im << (im_exp - exp), exp)


def _to_mpc(z):
    re, im, exp = z
    return mp.mpc(mp.mpf((re, exp)), mp.mpf((im, exp)))


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


def _horner(poly, z):
    """p(z) and p'(z) as triples, and sum_k |c_k| |z|^k as an integer in the
    units of p(z); poly is (mantissas, their absolute values, exponents,
    heights) of the ascending coefficients, heights the pairs
    (k, exponent + bit length) of the nonzero ones.

    Horner's rule runs in w = z / 2^scale, |w| near 1, on fixed-point
    integers in units of 2^unit: coefficient k becomes c_k 2^(scale k), and
    the largest of them has _WORK_BITS + _GUARD_BITS bits.
    """
    mants, abs_mants, exps, heights = poly
    zr, zi, ze = z
    W = _WORK_BITS
    scale = ze + W
    unit = max(h + scale * k for k, h in heights) - W - _GUARD_BITS
    terms = []
    abs_terms = []
    for k, (m, a, e) in enumerate(zip(mants, abs_mants, exps)):
        s = e + scale * k - unit
        if s >= 0:
            terms.append(m << s)
            abs_terms.append(a << s)
        else:
            terms.append(m >> -s)
            abs_terms.append(a >> -s)
    n = len(terms) - 1
    pr, pi, dr, di = terms[n], 0, 0, 0
    for c in reversed(terms[:n]):
        dr, di = ((dr * zr - di * zi) >> W) + pr, ((dr * zi + di * zr) >> W) + pi
        pr, pi = ((pr * zr - pi * zi) >> W) + c, (pr * zi + pi * zr) >> W
    r = isqrt(zr * zr + zi * zi)
    bound = abs_terms[n]
    for c in reversed(abs_terms[:n]):
        bound = ((bound * r) >> W) + c
    return (pr, pi, unit), (dr, di, unit - scale), bound


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
    """All roots of a polynomial with nonzero first and last coefficient,
    by simultaneous refinement, to relative residual 1e-12.

    The iteration is Aberth's, Gauss-Seidel style: each root in turn takes the
    step N / (1 - N * sum_j 1/(z - z_j)) with N = p(z)/p'(z), until every root
    passes |p(z)| <= 1e-12 * sum_k |c_k| |z|^k. It runs on integer triples
    (re, im, exp) for (re + i im) * 2^exp; see the module docstring.
    A root that passed the test keeps its value, so it is not evaluated again.
    """
    n = len(coeffs) - 1
    if n == 0:
        return []
    roots = [_to_triple(z) for z in _initial_points(coeffs)]
    assert len(roots) == n
    mants, exps = zip(*(_mantissa(c) for c in coeffs))
    heights = [(k, e + m.bit_length()) for k, (m, e) in enumerate(zip(mants, exps)) if m]
    poly = (mants, [abs(m) for m in mants], exps, heights)
    num, den = _RESIDUAL_TARGET.as_integer_ratio()
    num2, den2 = num * num, den * den
    settled = [False] * n
    for _ in range(_MAX_ITERATIONS):
        moved = False
        for i in range(n):
            if settled[i]:
                continue
            z = roots[i]
            p, dp, bound = _horner(poly, z)
            if den2 * (p[0] * p[0] + p[1] * p[1]) <= num2 * bound * bound:
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
            return [_to_mpc(z) for z in roots]
    raise NoConvergenceError(
        "root refinement missed the 1e-12 residual target in %d iterations"
        % _MAX_ITERATIONS
    )


def _reconstruction_error(coeffs, roots):
    """Max coefficient error of prod(s - root) against coeffs made monic,
    relative to the largest monic coefficient."""
    monic = [c / coeffs[-1] for c in coeffs]
    recon = [mp.mpc(1)]
    for r in roots:
        recon = [mp.mpc(0)] + recon
        for k in range(len(recon) - 1):
            recon[k] -= r * recon[k + 1]
    scale = max(abs(c) for c in monic)
    return max(abs(a - b) for a, b in zip(recon, monic)) / scale


def _evaluated_discriminant(f: FamilyPair, t0):
    """The discriminant's coefficients at t0: t0^low / den * (num * P)(t0^step)."""
    delta = f.discriminant24()
    scale = mp.power(t0, _to_mpf(delta.low)) / delta.den
    u = mp.power(t0, _to_mpf(delta.step))
    out = []
    for arr in delta.poly:
        acc = mp.mpf(0)
        for x in reversed(arr):
            acc = acc * u + delta.num * x
        out.append(acc * scale)
    return out


def _root_data(f: FamilyPair, t0):
    """The 24 discriminant roots at t0, roots at s = 0 as exact zeros and the
    degree drop as mp.inf markers, and the reconstruction error of the
    finite ones."""
    coeffs = _evaluated_discriminant(f, t0)
    support = [i for i, c in enumerate(coeffs) if c != 0]
    if not support:
        raise CuspidalFamilyError("discriminant vanishes identically at t = %s" % t0)
    lo, hi = support[0], support[-1]
    inner = coeffs[lo : hi + 1]
    finite = _find_roots(inner)
    recon = _reconstruction_error(inner, finite) if finite else mp.mpf(0)
    return [mp.mpc(0)] * lo + finite + [mp.inf] * (24 - hi), recon


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
    """The 24 roots of the discriminant at t = t0, as mpmath complex numbers;
    roots at s = 0 appear as exact zeros, degree drop as mp.inf markers."""
    check_t_samples([t0])
    if f.discriminant24().is_zero():
        raise CuspidalFamilyError(
            "discriminant is identically zero; there are no roots to track"
        )
    with mp.workdps(_DPS):
        return _root_data(f, _to_mpf(t0))[0]


def empirical_positions(roots, e0: Fraction, einf: Fraction, t0) -> list:
    """Cut positions log|root| / (e0 * |log t|), clamped to [-1, einf/e0] and
    sorted; zero roots pin to -1, infinite ones to the right endpoint."""
    with mp.workdps(_DPS):
        w_plus = _to_mpf(Fraction(einf) / Fraction(e0))
        denom = _to_mpf(e0) * abs(mp.log(_to_mpf(t0)))
        out = []
        for z in roots:
            modulus = abs(z)
            if modulus == 0:
                out.append(mp.mpf(-1))
            elif mp.isinf(modulus):
                out.append(w_plus)
            else:
                x = mp.log(modulus) / denom
                out.append(min(max(x, mp.mpf(-1)), w_plus))
        return sorted(out)


def oracle_compare(f: FamilyPair, t_list=(1e-3, 1e-5, 1e-7)) -> OracleReport:
    """Track the discriminant roots at each t sample and compare the sorted
    empirical positions with the exact ones.

    Deviations must not increase along the (strictly decreasing) t samples
    and the last one must land within the tolerance 0.2; otherwise the exact
    pipeline and the numerics disagree and this raises OracleMismatchError.
    A non-minimal pair raises NotMinimalError and a zero g8 or g12
    ZeroFormError, as in analyze.
    """
    samples = [float(t) for t in t_list]
    check_t_samples(samples)

    f = f.normalized()
    minimality_check(f)
    delta = f.discriminant24()
    if not delta:
        raise CuspidalFamilyError(
            "discriminant vanishes identically; use the cusp-quartic route"
        )
    polygons = pair_polygons(f)
    ends = end_exponents(*polygons)
    if None in polygons:  # a zero form passes the end exponents, as in analyze
        raise ZeroFormError("Newton polygon of the zero form")
    cut = cut_positions(newton_polygon(delta), ends)
    with mp.workdps(_DPS):
        exact_mp = [_to_mpf(x) for x in cut.positions]
        per_sample = []
        deviations = []
        recon_errors = []
        for t0 in samples:
            t_val = _to_mpf(t0)
            roots, recon = _root_data(f, t_val)
            emp = empirical_positions(roots, ends.at_zero, ends.at_infinity, t_val)
            if len(emp) != len(exact_mp):
                raise OracleMismatchError(
                    "tracked %d roots but expected %d" % (len(emp), len(exact_mp))
                )
            dev = max(abs(a - b) for a, b in zip(emp, exact_mp))
            per_sample.append(tuple(float(x) for x in emp))
            deviations.append(float(dev))
            recon_errors.append(float(recon))

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
        fitted = max(
            dev * float(abs(mp.log(_to_mpf(t)))) for dev, t in zip(deviations, samples)
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
