"""Floating-point cross-check of the combinatorial positions.

These tests keep the sample lists short; the expensive three-sample runs
live in the acceptance suite.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc
from mpmath.libmp import dps_to_prec

from conftest import charts
from k3seg import oracle
from k3seg.errors import CuspidalFamilyError, NoConvergenceError, OracleMismatchError
from k3seg.corpus import generate_corpus
from k3seg.oracle import (
    DEFAULT_T_SAMPLES, empirical_positions, oracle_compare, OracleReport, roots_at,
)
from k3seg.symalg import FamilyPair, parse_family
from k3seg.symalg.field import upack
from k3seg.symalg.forms import Discriminant
from k3seg.tropics import _lower_hull, end_exponents, pair_polygons
from tests.cli_contract import VANISHING_SAMPLE

# the precision the oracle ran on mpmath at: 60 digits, 203 bits
_DPS = 60


def _mpf(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def _mantissa(x):
    """(m, e) with the mpf x = m * 2^e exactly and m a built-in int."""
    sign, man, exp, _ = x._mpf_
    return (-int(man) if sign else int(man)), exp


def _triple(z):
    """The mpmath number z as an oracle triple (re, im, exp), cut to
    _WORK_BITS bits as the oracle cuts its own."""
    z = mpc(z)
    (re, re_exp), (im, im_exp) = _mantissa(z.real), _mantissa(z.imag)
    exp = min(re_exp, im_exp)
    return oracle._norm(re << (re_exp - exp), im << (im_exp - exp), exp)


def _value(z):
    """The triple z as an mpmath complex number, exactly."""
    re, im, exp = z
    with mp.workprec(2 * oracle._WORK_BITS):
        return mpc(mp.mpf((re, exp)), mp.mpf((im, exp)))


def _reference_initial_points(coeffs):
    """oracle._initial_points as it ran on mpmath: the same hull, circles and
    angles, each point from its own log, exp and e^(i theta)."""
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


def _reference_evaluated_discriminant(f, t0):
    """The discriminant's coefficients at t0 on mpmath numbers:
    t0^low / den * (num * P)(t0^step)."""
    delta = f.discriminant24()
    scale = mp.power(t0, _mpf(delta.low)) / delta.den
    u = mp.power(t0, _mpf(delta.step))
    out = []
    for arr in delta.poly:
        acc = mp.mpf(0)
        for x in reversed(arr):
            acc = acc * u + delta.num * x
        out.append(acc * scale)
    return out


def _reference_empirical_positions(roots, e0, einf, t0):
    """empirical_positions on mpmath numbers: roots as mpc, the degree drop as
    mp.inf, positions log|root| / (e0 |log t0|) clamped and sorted."""
    w_plus = _mpf(Fraction(einf) / Fraction(e0))
    denom = _mpf(e0) * abs(mp.log(_mpf(t0)))
    out = []
    for z in roots:
        modulus = abs(z)
        if modulus == 0:
            out.append(mp.mpf(-1))
        elif mp.isinf(modulus):
            out.append(w_plus)
        else:
            out.append(min(max(mp.log(modulus) / denom, mp.mpf(-1)), w_plus))
    return sorted(out)


@pytest.fixture(scope="module")
def power_family():
    # discriminant s^12 (s^12 - 27 t^2): twelve roots at the origin and
    # twelve on a circle of radius (27 t^2)^(1/12)
    return parse_family("g8 = s^8\ng12 = t*s^6\n")


def test_roots_at_counts_and_moduli(power_family):
    roots = roots_at(power_family, 1e-3)
    assert len(roots) == 24
    zeros = [r for r in roots if r == (0, 0, 0)]
    infinite = [r for r in roots if r is None]
    finite = [r for r in roots if r is not None and r != (0, 0, 0)]
    assert (len(zeros), len(infinite), len(finite)) == (12, 0, 12)
    assert all(type(x) is int for r in finite for x in r)
    with mp.workdps(_DPS):
        radius = (27 * _mpf(1e-3) ** 2) ** (mp.mpf(1) / 12)
        assert all(abs(abs(_value(r)) - radius) < mp.mpf("1e-30") for r in finite)


def test_roots_at_rejects_samples_outside_unit_interval(power_family):
    for bad in (0.0, 1.0, 1.5, -0.25):
        with pytest.raises(ValueError):
            roots_at(power_family, bad)


def test_roots_at_refuses_identically_degenerate_family(named):
    with pytest.raises(CuspidalFamilyError):
        roots_at(named["d_constant"], 1e-3)


@pytest.mark.parametrize("text", [
    "g8 = 0\ng12 = s^6\n", "g8 = 0\ng12 = t*s^6\n", "g8 = 3*s^4\ng12 = 0\n",
])
def test_a_one_term_discriminant_has_only_zero_and_infinite_roots(text):
    # the discriminant is c * s^12: one coefficient, so the root refinement
    # starts from no point and the product of no roots reconstructs it
    f = parse_family(text)
    t0 = Fraction(1e-3)
    roots, recon = oracle._root_data(oracle._evaluated_discriminant(f, [t0])[0], t0)
    assert roots == roots_at(f, 1e-3) == [(0, 0, 0)] * 12 + [None] * 12
    assert recon == 0.0


def test_empirical_positions_mapping():
    # e0 = 2, einf = 4, so the window is [-1, 2]; at t0 = 1e-2 a root of
    # modulus 10^k lands at -k/4 before clamping
    with mp.workdps(_DPS):
        finite = [_triple(mpc(x)) for x in ("1e-1", "10", "1", "1e-6", "1e10")]
    roots = [(0, 0, 0), *finite[:2], None, *finite[2:]]
    pos = empirical_positions(roots, 2, 4, 1e-2)
    assert pos == sorted(pos)
    assert all(type(x) is Fraction for x in pos)
    expected = [-1, -1, -0.25, 0, 0.25, 2, 2]
    assert len(pos) == len(expected)
    # 1e-2 is a double, not 1/100, so the quarters are off by about 1e-17
    for got, want in zip(pos, expected):
        assert abs(got - Fraction(want)) < Fraction(1, 10**12)
    assert pos[3] == 0  # a root of modulus 1 sits at 0 exactly


def test_empirical_positions_rejects_samples_outside_unit_interval():
    # the positions divide by e0 * |log t0|, which is zero at t0 = 1
    for bad in (1.0, 2.0):
        with pytest.raises(ValueError, match="^t samples must lie strictly between 0 and 1$"):
            empirical_positions([(1, 1, 0)], Fraction(1, 6), Fraction(1, 6), bad)


def test_empirical_positions_match_their_reference(named):
    # the same positions as on mpmath at 60 digits, to far below a double
    for name in ("d_mixed", "ds_split", "tent"):
        f = named[name].normalized()
        ends = end_exponents(*pair_polygons(f))
        for t0 in (1e-3, 1e-7, 0.9):
            roots = roots_at(f, t0)
            got = empirical_positions(roots, ends.at_zero, ends.at_infinity, t0)
            with mp.workdps(_DPS):
                as_mpc = [mp.inf if z is None else _value(z) for z in roots]
                ref = _reference_empirical_positions(
                    as_mpc, ends.at_zero, ends.at_infinity, t0
                )
                assert all(abs(_mpf(a) - b) < mp.mpf("1e-55") for a, b in zip(got, ref))
            assert [float(x) for x in got] == [float(x) for x in ref]


def _relative_error(got, want):
    return abs(got - want) / abs(want)


_EXACT = 2 * oracle._FIX_BITS  # bits of the mpmath references below
_CLOSE = mp.mpf(2) ** -220


def test_ln_and_complex_exp_match_mpmath():
    rng = random.Random(1729)
    F = oracle._FIX_BITS
    with mp.workprec(_EXACT):
        for _ in range(200):
            n = rng.getrandbits(rng.randint(1, 500)) | 1
            e = rng.randint(-800, 800)
            want = mp.log(mp.mpf(n) * mp.mpf(2) ** e)
            if abs(want) < 1:
                continue
            assert _relative_error(mp.ldexp(oracle._ln(n, e), -F), want) < _CLOSE
        for _ in range(200):
            x = rng.randint(-500 << F, 500 << F)
            want = mp.exp(mp.ldexp(x, -F))
            assert _relative_error(_value(oracle._exp(x)), want) < _CLOSE
        for _ in range(200):
            y = rng.randint(-40 << F, 40 << F)
            # |e^(i y)| = 1: cos and sin to 2^-220 absolute
            want = mp.expj(mp.ldexp(y, -F))
            assert abs(_value(oracle._exp(0, y)) - want) < _CLOSE
            # a point on a circle, as the starts take it: |e^(x + i y)| = e^x
            x = rng.randint(-500 << F, 500 << F)
            want = mp.exp(mp.mpc(mp.ldexp(x, -F), mp.ldexp(y, -F)))
            assert _relative_error(_value(oracle._exp(x, y)), want) < _CLOSE
        # the constants that carry every reduction, each series floored a
        # few hundred times at most
        assert abs(mp.ldexp(oracle._LN2, -F) - mp.log(2)) < mp.mpf(2) ** -(F - 16)
        assert abs(mp.ldexp(oracle._PI, -F) - mp.pi) < mp.mpf(2) ** -(F - 16)


def _fractional_pair(named):
    """tent on the grid t -> t^(7/3), times t^-40 and t^-60: the
    discriminant's low and step are fractions, and t0^low at t0 = 1e-7 is
    about 1e653, far outside a double."""
    r = Fraction(7, 3)
    tent = named["tent"]
    return FamilyPair(
        tent.g8.rescale_exponents(r).shift_t(-40), tent.g12.rescale_exponents(r).shift_t(-60)
    )


def test_power_matches_mpmath(named):
    rng = random.Random(1729)
    samples = [1e-3, 1e-5, 1e-7, 0.9, 0.5, Fraction(1, 3)]
    samples += [rng.uniform(1e-9, 1) for _ in range(10)]
    # a base scaled by a fixed 2^bits, not by t0's own size, lost t0's bits
    # as t0 shrank and was 0 below about 1.5e-92
    samples += [1e-100, 1e-200, 5e-324]
    exponents = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(20)]
    exponents += [Fraction(0), Fraction(1), Fraction(-1), Fraction(10**6 + 1, 7)]
    delta = _fractional_pair(named).discriminant24()
    assert delta.low.denominator > 1 and delta.step.denominator > 1
    exponents += [delta.low, delta.step]
    with mp.workprec(_EXACT):
        assert mp.power(_mpf(1e-7), _mpf(delta.low)) > mp.mpf("1e600")
        for t0 in samples:
            for e in exponents:
                got = _value(oracle._power(Fraction(t0), e))
                assert _relative_error(got, mp.power(_mpf(t0), _mpf(e))) < _CLOSE
    # a dyadic power that fits is exact
    assert oracle._power(Fraction(1, 4), Fraction(1, 2)) == oracle._norm(1, 0, -1)


def test_div_cuts_a_long_numerator_before_it_divides():
    # an unnormalized Horner value of about 300 bits over a derivative of a
    # few: the quotient's mantissa would pass _WORK_BITS + 2 bits, so _div
    # shifts the numerator right, not left
    rng = random.Random(31)
    worst = Fraction(0)
    for _ in range(200):
        a = (rng.getrandbits(300) | 1 << 299, rng.getrandbits(300) - (1 << 299), rng.randint(-99, 99))
        b = (rng.getrandbits(8) | 1, rng.randint(-255, 255), rng.randint(-99, 99))
        nrm = b[0] ** 2 + b[1] ** 2
        num = (a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1])
        assert max(x.bit_length() for x in num) > oracle._WORK_BITS + 2 + nrm.bit_length()
        scale = Fraction(2) ** (a[2] - b[2])
        want = (Fraction(num[0], nrm) * scale, Fraction(num[1], nrm) * scale)
        qr, qi, qe = oracle._div(a, b)
        got = (Fraction(qr) * Fraction(2) ** qe, Fraction(qi) * Fraction(2) ** qe)
        error = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
        worst = max(worst, error / (want[0] ** 2 + want[1] ** 2))
    assert worst < Fraction(1, 2 ** 458)  # 2^-229 relative


def test_evaluated_discriminant_matches_its_reference(named):
    # against 100 digits: the triples' Horner loses a few bits to
    # cancellation, still far below what the 60-digit coefficients carried
    pairs = [named[name].normalized() for name in ("d_mixed", "ds_circle", "ds_split", "tent")]
    pairs.append(_fractional_pair(named))
    for f in pairs:
        for t0 in (1e-3, 1e-7, 0.9):
            got = oracle._evaluated_discriminant(f, [Fraction(t0)])[0]
            with mp.workdps(100):
                want = _reference_evaluated_discriminant(f, _mpf(t0))
                for a, b in zip(got, want, strict=True):
                    if b == 0:
                        assert a == (0, 0, 0)
                    else:
                        assert a[1] == 0
                        assert _relative_error(_value(a), b) < mp.mpf(2) ** -200


def _evaluated_form(delta, t0):
    """oracle._evaluated_discriminant as it ran on the decoded discriminant
    delta: Horner's rule on the triples of t0^low / den * (num * P)(t0^step)."""
    scale = oracle._div(oracle._power(t0, delta.low), oracle._norm(delta.den, 0, 0))
    u = oracle._power(t0, delta.step)
    out = []
    for arr in delta.poly:
        acc = oracle._ZERO
        for x in reversed(arr):
            acc = oracle._add(oracle._mul(acc, u), oracle._norm(delta.num * x, 0, 0))
        out.append(oracle._mul(acc, scale))
    return out


def test_evaluated_discriminant_from_the_rows_is_the_forms(named):
    pairs = [g for f in list(named.values()) + generate_corpus(10, 1729) for g in charts(f)]
    pairs.append(_fractional_pair(named))
    # rows whose form moves u^1 into low, the u-exponent gap 2 into step, and
    # the factor 2 that their content 6 shares with the denominator 4 out of den
    rows = [0] * 25
    rows[0], rows[5] = upack([0, 6, 0, 18, 0, -12], 16), upack([0, 0, 0, 30], 16)
    special = FamilyPair(named["tent"].g8, named["tent"].g12)
    special._rows = Discriminant(Fraction(-2), Fraction(1, 3), 4, 16, rows)
    delta = special.discriminant24()
    assert (delta.low, delta.step, delta.num, delta.den) == (Fraction(-5, 3), Fraction(2, 3), 3, 2)
    pairs.append(special)
    for f in pairs:
        if f.discriminant_rows():
            for t0 in DEFAULT_T_SAMPLES:
                t0 = Fraction(t0)
                want = _evaluated_form(f.discriminant24(), t0)
                assert oracle._evaluated_discriminant(f, [t0])[0] == want


def _oracle_coefficients(named):
    """The coefficients that oracle_compare refines on four named families at
    the default samples, first and last nonzero."""
    out = []
    for name in ("d_mixed", "ds_circle", "ds_split", "tent"):
        f = named[name].normalized()
        for t0 in (1e-3, 1e-5, 1e-7):
            coeffs = oracle._evaluated_discriminant(f, [Fraction(t0)])[0]
            support = [i for i, c in enumerate(coeffs) if c[0]]
            out.append(coeffs[support[0] : support[-1] + 1])
    return out


def test_initial_points_match_their_reference(named):
    rng = random.Random(1729)
    with mp.workdps(_DPS):
        cases = [[_triple(c) for c in _integer_polynomial(rng, d)] for d in range(1, 25)]
        cases.append([_triple(c) for c in _spread_polynomial(rng)[1]])
        cases += _oracle_coefficients(named)
        for coeffs in cases:
            got = oracle._initial_points(coeffs)
            want = _reference_initial_points([_value(c) for c in coeffs])
            assert len(got) == len(want) == len(coeffs) - 1
            for z, ref in zip(got, want):
                assert _relative_error(_value(z), ref) < mp.mpf("1e-50")


def test_oracle_compare_on_split_family(named):
    report = oracle_compare(named["ds_split"], t_list=(1e-2, 1e-3))
    assert isinstance(report, OracleReport)
    assert list(report.t_samples) == [1e-2, 1e-3]
    assert sorted(report.exact_positions) == [-1] * 3 + [0] * 18 + [1] * 3
    assert len(report.deviations) == 2
    assert report.deviations[0] > report.deviations[1] > 0
    assert report.deviations[1] < report.tolerance == 0.2
    assert all(err < mp.mpf("1e-8") for err in report.reconstruction_errors)
    assert report.fitted_c > 0


def test_oracle_compare_is_sharp_on_tent(named):
    report = oracle_compare(named["tent"], t_list=(1e-3,))
    assert report.deviations[-1] < mp.mpf("1e-10")


def test_oracle_compare_flags_excess_deviation(named):
    # the final deviation at t = 0.5 is about 0.39, above the fixed 0.2
    with pytest.raises(OracleMismatchError, match=r"^final deviation 0\.39 exceeds tolerance 0\.2$"):
        oracle_compare(named["ds_split"], t_list=(0.5,))
    # deviations 2 then 1.01 shrink, so they pass the monotone gate first
    with pytest.raises(OracleMismatchError, match=r"^final deviation 1\.01 exceeds tolerance 0\.2$"):
        oracle_compare(named["d_mixed"], t_list=(0.9, 0.5))


def test_oracle_compare_flags_a_growing_deviation(named):
    with pytest.raises(OracleMismatchError, match=r"^deviation grew from 0\.543 to 0\.932 as t decreased$"):
        oracle_compare(named["ds_circle"], t_list=(0.9, 0.5))


def test_oracle_compare_validates_sample_list(named):
    f = named["ds_split"]
    with pytest.raises(ValueError):
        oracle_compare(f, t_list=())
    with pytest.raises(ValueError):
        oracle_compare(f, t_list=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        oracle_compare(f, t_list=(1e-3, 1e-3))
    with pytest.raises(ValueError):
        oracle_compare(f, t_list=(2.0,))


def test_oracle_compare_refuses_identically_degenerate_family(named):
    with pytest.raises(CuspidalFamilyError):
        oracle_compare(named["d_constant"], t_list=(1e-3,))


def test_oracle_refuses_a_sample_where_the_discriminant_vanishes():
    pair = parse_family(VANISHING_SAMPLE)
    message = "^discriminant vanishes identically at t = 0.5$"
    with pytest.raises(CuspidalFamilyError, match=message):
        oracle_compare(pair, (0.5,))
    with pytest.raises(CuspidalFamilyError, match=message):
        roots_at(pair, 0.5)
    assert len(oracle_compare(pair).deviations) == 3


def test_oracle_compare_keeps_its_stop_point_on_d_mixed(named):
    # the deviations recorded in bench/reference.json; moving the stop point
    # of the root refinement by a step moves them in the fifth digit
    report = oracle_compare(named["d_mixed"])
    assert report.deviations == (
        0.10037824697078833,
        0.060226949063273284,
        0.043019249330972405,
    )


def test_oracle_compare_samples_down_to_the_smallest_double(named):
    # d_mixed's deviations fall as C / |ln t| with one C; a sample of 1e-100
    # or less raised E_NN when t0 to the discriminant's step underflowed to 0
    report = oracle_compare(named["d_mixed"], (1e-3, 1e-100, 1e-200, 5e-324))
    for dev, t in zip(report.deviations[1:], report.t_samples[1:]):
        assert dev * abs(math.log(t)) == pytest.approx(report.fitted_c, rel=1e-6)
    # a ramified pair took an integer root of 0 and divided by zero
    ramified = oracle_compare(_fractional_pair(named), (1e-3, 1e-100))
    assert ramified.deviations[-1] < 1e-50


def test_oracle_compare_reports_no_convergence(named, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergenceError) as info:
        oracle_compare(named["ds_split"])
    assert info.value.tag == "E_NO_CONVERGENCE"
    assert info.value.exit_code == 6
    assert str(info.value) == (
        "root refinement missed the 1e-12 residual target in 1 iterations"
    )


def _reference_find_roots(coeffs, starts=None):
    """The root refinement on mpmath complex numbers: the starts, update order
    and stop test that oracle._find_roots runs on integer triples."""
    n = len(coeffs) - 1
    roots = list(starts) if starts else _reference_initial_points(coeffs)
    abs_coeffs = [abs(c) for c in reversed(coeffs)]
    for _ in range(oracle._MAX_ITERATIONS):
        settled = True
        for i in range(n):
            z = roots[i]
            p, dp = coeffs[-1], mp.mpc(0)
            for c in reversed(coeffs[:-1]):
                dp = dp * z + p
                p = p * z + c
            if abs(p) <= oracle._RESIDUAL_TARGET * mp.polyval(abs_coeffs, abs(z)):
                continue
            settled = False
            if dp == 0:
                roots[i] = z + (abs(z) + 1) * mp.mpf("1e-6") * mp.mpc(1, 1)
                continue
            newton = p / dp
            repel = mp.mpc(0)
            for w in roots:
                if w != z:
                    repel += 1 / (z - w)
            denom = 1 - newton * repel
            roots[i] = z - (newton if denom == 0 else newton / denom)
        if settled:
            return roots
    raise AssertionError("the reference refinement did not settle")


def _integer_polynomial(rng, degree):
    """Ascending integer coefficients in [-99, 99], the first and last nonzero."""
    coeffs = [rng.randint(-99, 99) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    return [mp.mpf(c) for c in coeffs]


def _from_roots(roots):
    """Ascending coefficients of prod (s - r) over the roots."""
    coeffs = [mp.mpf(1)]
    for r in roots:
        coeffs = [mp.mpf(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def _spread_polynomial(rng):
    """24 real roots of moduli t^((23 - 2k)/12) at t = 1e-7, and the
    ascending coefficients of the polynomial with these roots. They rise from
    1 to about t^-12 = 1e84 and fall back, as the discriminant's do at the
    oracle's smallest sample."""
    t = mp.mpf("1e-7")
    roots = [rng.choice((-1, 1)) * t ** (mp.mpf(23 - 2 * k) / 12) for k in range(24)]
    return roots, _from_roots(roots)


def _find_roots(coeffs):
    """oracle._find_roots on the mpmath coefficients as triples, its roots
    back as mpmath numbers."""
    return [_value(z) for z in oracle._find_roots([_triple(c) for c in coeffs])]


def _pairs(found, expected):
    """Each found root with the nearest expected root not taken before it."""
    assert len(found) == len(expected)
    left = list(expected)
    out = []
    for z in found:
        j = min(range(len(left)), key=lambda j: abs(left[j] - z))
        out.append((z, left.pop(j)))
    return out


def _passes_stop_test(coeffs, z):
    desc = coeffs[::-1]
    bound = mp.polyval([abs(c) for c in desc], abs(z))
    return abs(mp.polyval(desc, z)) <= oracle._RESIDUAL_TARGET * bound


def _inclusion_radius(coeffs, z):
    """n |p(z) / p'(z)|: the disc of this radius about z holds a root."""
    p, dp = mp.polyval(coeffs[::-1], z, derivative=True)
    return (len(coeffs) - 1) * abs(p / dp)


def test_find_roots_against_polyroots():
    # the stop test |p(z)| <= 1e-12 sum |c_k| |z|^k leaves a root only as
    # accurate as its residual allows, about 1e-13 on these, so each found
    # root is held to the Newton inclusion radius, not to a fixed 1e-30
    rng = random.Random(1729)
    with mp.workdps(_DPS):
        for degree in range(1, 25):
            coeffs = _integer_polynomial(rng, degree)
            found = _find_roots(coeffs)
            assert all(_passes_stop_test(coeffs, z) for z in found)
            with mp.workdps(30):
                expected = mp.polyroots(coeffs[::-1], maxsteps=100)
            for z, ref in _pairs(found, expected):
                slack = mp.mpf("1e-25") * abs(ref)
                assert abs(z - ref) <= _inclusion_radius(coeffs, z) + slack


def test_find_roots_on_a_coefficient_spread_of_1e84():
    with mp.workdps(_DPS):
        roots, coeffs = _spread_polynomial(random.Random(1729))
        sizes = [abs(c) for c in coeffs]
        assert 1e83 < max(sizes) / min(sizes) < 1e85
        found = _find_roots(coeffs)
        assert all(_passes_stop_test(coeffs, z) for z in found)
        for z, ref in _pairs(found, roots):
            slack = mp.mpf("1e-40") * abs(ref)
            assert abs(z - ref) <= _inclusion_radius(coeffs, z) + slack


def test_find_roots_repeats_the_refinement_on_mpmath_numbers():
    # the same iterates from the same starts, far below what the stop test
    # resolves: the integer mantissas carry at least mpmath's 203 bits at 60
    # digits
    assert oracle._WORK_BITS >= dps_to_prec(_DPS) == 203
    rng = random.Random(1729)
    with mp.workdps(_DPS):
        cases = [_integer_polynomial(rng, d) for d in (1, 2, 3, 5, 8, 13)]
        cases.append(_spread_polynomial(rng)[1])
        # roots 2^600 apart in modulus: each is below the other's last bit
        cases.append(_from_roots([mp.mpf("1e-90"), mp.mpf(-3), mp.mpf("1e90")]))
        for coeffs in cases:
            pairs = _pairs(_find_roots(coeffs), _reference_find_roots(coeffs))
            assert all(abs(z - ref) <= mp.mpf("1e-45") * abs(ref) for z, ref in pairs)


def test_find_roots_steps_off_a_critical_point(monkeypatch):
    # s^2 - 1 from the starts 0 and 1/2: p'(0) = 0, so the first root takes
    # the 1e-6 (1 + i) nudge before its first step
    starts = [mpc(0), mpc(0.5)]
    monkeypatch.setattr(oracle, "_initial_points", lambda coeffs: [_triple(z) for z in starts])
    with mp.workdps(_DPS):
        coeffs = [mp.mpf(-1), mp.mpf(0), mp.mpf(1)]
        found = _find_roots(coeffs)
        pairs = _pairs(found, _reference_find_roots(coeffs, starts))
        assert all(abs(z - ref) <= mp.mpf("1e-30") for z, ref in pairs)
        assert sorted(round(float(z.real)) for z in found) == [-1, 1]


def _reference_horner(mants, exps, z):
    """Horner's rule as oracle._horner runs it, but aligning the coefficients
    on every call and always taking the exact bound: p(z), p'(z) and the
    integer bound sum_k |c_k| |z|^k in the units of p(z)."""
    W = oracle._WORK_BITS
    zr, zi, ze = z
    scale = ze + W
    heights = [e + m.bit_length() + scale * k for k, (m, e) in enumerate(zip(mants, exps)) if m]
    unit = max(heights) - W - oracle._GUARD_BITS
    terms = []
    abs_terms = []
    for k, (m, e) in enumerate(zip(mants, exps)):
        s = e + scale * k - unit
        terms.append(m << s if s >= 0 else m >> -s)
        abs_terms.append(abs(m) << s if s >= 0 else abs(m) >> -s)
    pr, pi, dr, di = terms[-1], 0, 0, 0
    for c in reversed(terms[:-1]):
        dr, di = ((dr * zr - di * zi) >> W) + pr, ((dr * zi + di * zr) >> W) + pi
        pr, pi = ((pr * zr - pi * zi) >> W) + c, (pr * zi + pi * zr) >> W
    r = math.isqrt(zr * zr + zi * zi)
    bound = abs_terms[-1]
    for c in reversed(abs_terms[:-1]):
        bound = ((bound * r) >> W) + c
    return (pr, pi, unit), (dr, di, unit - scale), bound


def _residual_ratio(p, bound):
    """(|p| / (1e-12 bound))^2 exactly; the stop test passes at 1 or below."""
    num, den = oracle._RESIDUAL_TARGET.as_integer_ratio()
    return Fraction(den * den * (p[0] ** 2 + p[1] ** 2), num * num * bound * bound)


def _reference_reconstruction_error(coeffs, roots):
    """Max coefficient error of prod(s - root) against coeffs made monic,
    relative to the largest monic coefficient, on mpmath complex numbers."""
    monic = [c / coeffs[-1] for c in coeffs]
    recon = _from_roots(roots)
    scale = max(abs(c) for c in monic)
    return float(max(abs(a - b) for a, b in zip(recon, monic)) / scale)


@pytest.fixture(scope="module")
def recorded(named):
    """Every _horner and _reconstruction_error call with its result, made
    while oracle_compare runs on four named families and _find_roots on
    seeded integer polynomials and on the 1e84 spread polynomial, and the
    four families' reports by name."""
    horner_calls = []
    recon_calls = []
    reports = {}
    horner, reconstruction_error = oracle._horner, oracle._reconstruction_error

    def recording_horner(poly, z):
        out = horner(poly, z)
        horner_calls.append((poly[0], poly[1], z, out))
        return out

    def recording_reconstruction_error(coeffs, roots):
        out = reconstruction_error(coeffs, roots)
        recon_calls.append((coeffs, roots, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_horner", recording_horner)
        patch.setattr(oracle, "_reconstruction_error", recording_reconstruction_error)
        for name in ("d_mixed", "ds_circle", "ds_split", "tent"):
            reports[name] = oracle_compare(named[name])
        rng = random.Random(1729)
        with mp.workdps(_DPS):
            cases = [_integer_polynomial(rng, d) for d in (1, 2, 3, 5, 8, 13)]
            cases.append(_spread_polynomial(rng)[1])
            for coeffs in cases:
                triples = [_triple(c) for c in coeffs]
                recording_reconstruction_error(triples, oracle._find_roots(triples))
    return horner_calls, recon_calls, reports


# every OracleReport field at the default samples, bit for bit: exact
# positions as (-1, 0, 1) counts, deviations, reconstruction errors, fitted C
# and the sha256 of repr(positions). A change of the refinement's stop point,
# of the samples or of the rounding of the coefficients at t0 moves these on
# purpose and lists the old and new values in CHANGES.md
_PINNED_REPORTS = {
    "d_mixed": (
        (6, 0, 18),
        (0.10037824697078833, 0.060226949063273284, 0.043019249330972405),
        (0.0002638418749513407, 0.0002638433109501437, 0.00026384331109374364),
        0.693388375549038,
        "f11d991ab74f7281e71aa1f2a0605df832e05055410adbfc94cb6a81d24cece8",
    ),
    "ds_circle": (
        (3, 18, 3),
        (0.03913163947344217, 0.02347883455567179, 0.016770596100542136),
        (0.00856094878945552, 0.00855683957085924, 0.008556798936795871),
        0.27031178914789594,
        "cc0ef75b9f3144d45a76071b09e2e8dfab83902b142a4a43dd27e8e96eda7f81",
    ),
    "ds_split": (
        (3, 18, 3),
        (0.039131390901266175, 0.0234788345407575, 0.01677059610054107),
        (1.3969613032662118e-13, 1.403813494734792e-13, 1.4038679164893478e-13),
        0.270310072072135,
        "865a674fa7e67c27b670f94510cdc1872fc7b19579c133e3be49fb5bfbbabe7c",
    ),
    "tent": (
        (6, 12, 6),
        (9.39206898866543e-16, 5.9129856716555785e-18, 1.1028465499409892e-19),
        (1.505416874636031e-13, 7.70805750172831e-14, 2.2759117752515682e-14),
        6.4878114137018045e-15,
        "c30c20ac5b0a8e8a57df84ec64016a3eea2f3e1bf98cf55a714c875f5755a6b2",
    ),
}


def test_oracle_reports_keep_every_bit_on_the_named_families(recorded):
    reports = recorded[2]
    assert list(reports) == list(_PINNED_REPORTS)
    for name, (counts, deviations, recon, fitted, positions) in _PINNED_REPORTS.items():
        report = reports[name]
        low, mid, high = counts
        assert report.t_samples == DEFAULT_T_SAMPLES
        assert report.exact_positions == (-1,) * low + (0,) * mid + (1,) * high, name
        assert report.deviations == deviations, name
        assert report.reconstruction_errors == recon, name
        assert report.fitted_c == fitted, name
        assert hashlib.sha256(repr(report.positions).encode()).hexdigest() == positions, name
        assert report.tolerance == 0.2


def test_horner_matches_its_reference_on_every_call(recorded):
    calls = recorded[0]
    verdicts = []
    for mants, exps, z, (p, dp, small) in calls:
        ref_p, ref_dp, bound = _reference_horner(mants, exps, z)
        assert (p, dp) == (ref_p, ref_dp)
        assert small == (_residual_ratio(ref_p, bound) <= 1)
        verdicts.append(small)
    # most tests fail, and the float bound settles them
    assert 0 < verdicts.count(True) < verdicts.count(False)


def test_horner_keeps_the_stop_verdict_at_the_threshold(recorded):
    # every found root, moved along its Newton direction (p grows in its own
    # phase there) by s * 1e-12 * bound / |p'|: the residual ratio grows
    # about like |p(z)| / (1e-12 bound) + s. Bisection on s = k / 2^60 finds
    # two points a step of 2^-60 apart on either side of the threshold, closer
    # to it than a double resolves, and two more 1e-4 beyond them
    one = 1 << 60
    target = mp.mpf(oracle._RESIDUAL_TARGET)
    polys = {}
    for mants, exps, z, (_, _, small) in recorded[0]:
        if small:
            polys.setdefault((mants, exps), []).append(z)
    checked = 0
    with mp.workdps(_DPS):
        for (mants, exps), roots in polys.items():
            poly = (mants, exps, {})
            for z in roots:
                p, dp, bound = _reference_horner(mants, exps, z)
                if not (p[0] or p[1]):
                    continue
                size = target * mp.ldexp(bound, p[2]) / abs(_value(p))
                step = oracle._mul(oracle._div(p, dp), _triple(size))

                def ratio(k):
                    moved = oracle._add(z, oracle._mul((k, 0, -60), step))
                    moved_p, _, moved_bound = _reference_horner(mants, exps, moved)
                    return moved, _residual_ratio(moved_p, moved_bound)

                lo, hi = 0, 2 * one
                if ratio(hi)[1] <= 1:
                    continue
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if ratio(mid)[1] <= 1 else (lo, mid)
                points = [ratio(k) for k in (lo - one // 10**4, lo, hi, hi + one // 10**4)]
                below, last_in, first_out, above = (r for _, r in points)
                window = Fraction(1001, 1000) ** 2
                assert 1 / window < below <= last_in <= 1 < first_out <= above < window
                verdicts = [oracle._horner(poly, moved)[2] for moved, _ in points]
                assert verdicts == [True, True, False, False]
                checked += 1
    assert checked > 100


def test_reconstruction_error_matches_its_reference(recorded):
    # where the product meets the coefficients to below the working precision
    # (the degree-1 case: one Newton step lands on the root), each side reads
    # only its own rounding, 203-bit against 232-bit
    calls = recorded[1]
    assert len(calls) == 4 * 3 + 7
    with mp.workdps(_DPS):
        for coeffs, roots, err in calls:
            ref = _reference_reconstruction_error(
                [_value(c) for c in coeffs], [_value(z) for z in roots]
            )
            if ref > 1e-50:
                assert err == ref
            else:
                assert err < 1e-50


def _odd_part(n, e):
    """(n, e) with the trailing zeros of n moved into e, so equal values n * 2^e
    compare equal."""
    k = (n & -n).bit_length() - 1
    return n >> k, e + k


def test_largest_square_aligns_only_its_candidates():
    # squares 2 * 10^7 binary places apart: the smaller one cannot be the
    # largest, and aligning it would shift the result by 2 * 10^7 bits
    n, e = oracle._largest_square([(3, -4, 0), (1, 1, 10**7)])
    assert n.bit_length() < 1000
    assert _odd_part(n, e) == (1, 2 * 10**7 + 1)


def test_largest_square_is_the_exhaustive_maximum():
    rng = random.Random(5)
    assert oracle._largest_square([(0, 0, 3)]) == (0, 0)
    for _ in range(500):
        triples = [
            (rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 6))
        ]
        n, e = oracle._largest_square(triples)
        squares = [Fraction(re * re + im * im) * Fraction(4) ** exp for re, im, exp in triples]
        assert n * Fraction(2) ** e == max(squares)


def test_reconstruction_error_is_unchanged_on_d_mixed(named):
    report = oracle_compare(named["d_mixed"])
    assert report.reconstruction_errors == (
        0.0002638418749513407,
        0.0002638433109501437,
        0.00026384331109374364,
    )
