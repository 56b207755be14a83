"""Floating-point cross-check of the exact pipeline.

At a few small positive values of t the 24 discriminant roots are located
numerically, their moduli are turned into empirical cut positions on the
[-1, w+] axis, and the worst mismatch against the exact positions is required
to shrink as t decreases. High working precision (60 digits) is needed
because the coefficient spread reaches t^-12 at the smallest samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .density import cut_positions
from .errors import CuspidalFamilyError, NoConvergenceError, OracleMismatchError
from .symalg import FamilyPair
from .tropics import _lower_hull, end_exponents, newton_polygon, pair_polygons

_DPS = 60
_RESIDUAL_TARGET = 1e-12
_MAX_ITERATIONS = 500
_TOLERANCE = 0.2


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


def _horner_pair(coeffs, z):
    """Value and derivative at z; coeffs ascending."""
    p = coeffs[-1]
    dp = mp.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _abs_horner(coeffs, r):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * r + abs(c)
    return acc


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


def _find_roots(coeffs):
    """All roots of a polynomial with nonzero first and last coefficient,
    by simultaneous refinement, to relative residual 1e-12."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    roots = _initial_points(coeffs)
    assert len(roots) == n
    for _ in range(_MAX_ITERATIONS):
        settled = True
        for i in range(n):
            z = roots[i]
            p, dp = _horner_pair(coeffs, z)
            if abs(p) <= _RESIDUAL_TARGET * _abs_horner(coeffs, abs(z)):
                continue
            settled = False
            if dp == 0:
                roots[i] = z + (abs(z) + 1) * mp.mpf("1e-6") * mp.mpc(1, 1)
                continue
            newton = p / dp
            repel = mp.mpc(0)
            for j in range(n):
                if j != i and roots[j] != z:
                    repel += 1 / (z - roots[j])
            denom = 1 - newton * repel
            roots[i] = z - (newton if denom == 0 else newton / denom)
        if settled:
            return roots
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
    """The discriminant's coefficients at t0: t0^low / den * P(t0^step)."""
    delta = f.discriminant24()
    scale = mp.power(t0, _to_mpf(delta.low)) / delta.den
    u = mp.power(t0, _to_mpf(delta.step))
    out = []
    for arr in delta.poly:
        acc = mp.mpf(0)
        for x in reversed(arr):
            acc = acc * u + x
        out.append(acc * scale)
    return out


def _root_data(f: FamilyPair, t0):
    """The 24 discriminant roots at t0, roots at s = 0 as exact zeros and the
    degree drop as mp.inf markers, and the reconstruction error of the
    finite ones."""
    coeffs = _evaluated_discriminant(f, t0)
    support = [i for i, c in enumerate(coeffs) if c != 0]
    if not support:
        raise ValueError("discriminant vanishes identically at t = %s" % t0)
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
    """
    samples = [float(t) for t in t_list]
    check_t_samples(samples)

    f = f.normalized()
    delta = f.discriminant24()
    if not delta:
        raise CuspidalFamilyError(
            "discriminant vanishes identically; use the cusp-quartic route"
        )
    ends = end_exponents(*pair_polygons(f))
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
