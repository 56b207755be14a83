"""Floating-point cross-check of the combinatorial positions.

These tests keep the sample lists short; the expensive three-sample runs
live in the acceptance suite.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpc
from mpmath.libmp import dps_to_prec

from k3seg import oracle
from k3seg.errors import CuspidalFamilyError, NoConvergenceError, OracleMismatchError
from k3seg.oracle import empirical_positions, oracle_compare, OracleReport, roots_at
from k3seg.symalg import parse_family
from tests.conftest import VANISHING_SAMPLE


@pytest.fixture(scope="module")
def power_family():
    # discriminant s^12 (s^12 - 27 t^2): twelve roots at the origin and
    # twelve on a circle of radius (27 t^2)^(1/12)
    return parse_family("g8 = s^8\ng12 = t*s^6\n")


def test_roots_at_counts_and_moduli(power_family):
    t0 = mp.mpf("1e-3")
    roots = roots_at(power_family, t0)
    assert len(roots) == 24
    zeros = [r for r in roots if r == 0]
    infinite = [r for r in roots if r == mp.inf]
    finite = [r for r in roots if r != 0 and r != mp.inf]
    assert (len(zeros), len(infinite), len(finite)) == (12, 0, 12)
    radius = (27 * t0 ** 2) ** (mp.mpf(1) / 12)
    assert all(abs(abs(r) - radius) < mp.mpf("1e-30") for r in finite)


def test_roots_at_rejects_samples_outside_unit_interval(power_family):
    for bad in ("0", "1", "1.5", "-0.25"):
        with pytest.raises(ValueError):
            roots_at(power_family, mp.mpf(bad))


def test_roots_at_refuses_identically_degenerate_family(named):
    with pytest.raises(CuspidalFamilyError):
        roots_at(named["d_constant"], mp.mpf("1e-3"))


def test_empirical_positions_mapping():
    # e0 = 2, einf = 4, so the window is [-1, 2]; at t0 = 1e-2 a root of
    # modulus 10^k lands at -k/4 before clamping
    t0 = mp.mpf("1e-2")
    roots = [mpc(0), mpc("1e-1"), mpc(10), mp.inf, mpc(1), mpc("1e-6"), mpc("1e10")]
    pos = empirical_positions(roots, 2, 4, t0)
    assert list(pos) == sorted(pos)
    expected = [-1, -1, -0.25, 0, 0.25, 2, 2]
    assert len(pos) == len(expected)
    for got, want in zip(pos, expected):
        assert abs(got - mp.mpf(want)) < mp.mpf("1e-12")


def test_empirical_positions_rejects_samples_outside_unit_interval():
    # the positions divide by e0 * |log t0|, which is zero at t0 = 1
    for bad in (1.0, 2.0):
        with pytest.raises(ValueError, match="^t samples must lie strictly between 0 and 1$"):
            empirical_positions([mpc(1, 1)], Fraction(1, 6), Fraction(1, 6), bad)


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


def test_oracle_compare_reports_no_convergence(named, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergenceError) as info:
        oracle_compare(named["ds_split"])
    assert info.value.tag == "E_NO_CONVERGENCE"
    assert info.value.exit_code == 6
    assert str(info.value) == (
        "root refinement missed the 1e-12 residual target in 1 iterations"
    )


def _reference_find_roots(coeffs):
    """The root refinement on mpmath complex numbers: the starts, update order
    and stop test that oracle._find_roots runs on integer mantissas."""
    n = len(coeffs) - 1
    roots = oracle._initial_points(coeffs)
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
    with mp.workdps(oracle._DPS):
        for degree in range(1, 25):
            coeffs = _integer_polynomial(rng, degree)
            found = oracle._find_roots(coeffs)
            assert all(_passes_stop_test(coeffs, z) for z in found)
            with mp.workdps(30):
                expected = mp.polyroots(coeffs[::-1], maxsteps=100)
            for z, ref in _pairs(found, expected):
                slack = mp.mpf("1e-25") * abs(ref)
                assert abs(z - ref) <= _inclusion_radius(coeffs, z) + slack


def test_find_roots_on_a_coefficient_spread_of_1e84():
    with mp.workdps(oracle._DPS):
        roots, coeffs = _spread_polynomial(random.Random(1729))
        sizes = [abs(c) for c in coeffs]
        assert 1e83 < max(sizes) / min(sizes) < 1e85
        found = oracle._find_roots(coeffs)
        assert all(_passes_stop_test(coeffs, z) for z in found)
        for z, ref in _pairs(found, roots):
            slack = mp.mpf("1e-40") * abs(ref)
            assert abs(z - ref) <= _inclusion_radius(coeffs, z) + slack


def test_find_roots_repeats_the_refinement_on_mpmath_numbers():
    # the same iterates, far below what the stop test resolves: the integer
    # mantissas carry at least mpmath's 203 bits at 60 digits
    assert oracle._WORK_BITS >= dps_to_prec(oracle._DPS) == 203
    rng = random.Random(1729)
    with mp.workdps(oracle._DPS):
        cases = [_integer_polynomial(rng, d) for d in (1, 2, 3, 5, 8, 13)]
        cases.append(_spread_polynomial(rng)[1])
        # roots 2^600 apart in modulus: each is below the other's last bit
        cases.append(_from_roots([mp.mpf("1e-90"), mp.mpf(-3), mp.mpf("1e90")]))
        for coeffs in cases:
            pairs = _pairs(oracle._find_roots(coeffs), _reference_find_roots(coeffs))
            assert all(abs(z - ref) <= mp.mpf("1e-45") * abs(ref) for z, ref in pairs)


def test_find_roots_steps_off_a_critical_point(monkeypatch):
    # s^2 - 1 from the starts 0 and 1/2: p'(0) = 0, so the first root takes
    # the 1e-6 (1 + i) nudge before its first step
    monkeypatch.setattr(oracle, "_initial_points", lambda coeffs: [mpc(0), mpc(0.5)])
    with mp.workdps(oracle._DPS):
        coeffs = [mp.mpf(-1), mp.mpf(0), mp.mpf(1)]
        found = oracle._find_roots(coeffs)
        pairs = _pairs(found, _reference_find_roots(coeffs))
        assert all(abs(z - ref) <= mp.mpf("1e-30") for z, ref in pairs)
        assert sorted(round(float(z.real)) for z in found) == [-1, 1]


class _Mpz(int):
    """Stands in for the gmpy integer type that mpmath's gmpy backend stores."""


def test_mantissas_are_built_in_ints():
    for sign, value in ((0, 3), (1, -3)):
        m, e = oracle._mantissa(SimpleNamespace(_mpf_=(sign, _Mpz(3), -2, 2)))
        assert (m, e) == (value, -2) and type(m) is int
    with mp.workdps(oracle._DPS):
        z = mp.mpc("0.1", "-3.5")
        triple = oracle._to_triple(z)
        assert all(type(x) is int for x in triple)
        assert oracle._to_mpc(triple) == z


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
    seeded integer polynomials and on the 1e84 spread polynomial."""
    horner_calls = []
    recon_calls = []
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
            oracle_compare(named[name])
        rng = random.Random(1729)
        with mp.workdps(oracle._DPS):
            cases = [_integer_polynomial(rng, d) for d in (1, 2, 3, 5, 8, 13)]
            cases.append(_spread_polynomial(rng)[1])
            for coeffs in cases:
                recording_reconstruction_error(coeffs, oracle._find_roots(coeffs))
    return horner_calls, recon_calls


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
    with mp.workdps(oracle._DPS):
        for (mants, exps), roots in polys.items():
            poly = (mants, exps, {})
            for z in roots:
                p, dp, bound = _reference_horner(mants, exps, z)
                if not (p[0] or p[1]):
                    continue
                size = target * mp.ldexp(bound, p[2]) / abs(oracle._to_mpc(p))
                step = oracle._mul(oracle._div(p, dp), oracle._to_triple(mp.mpc(size)))

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
    with mp.workdps(oracle._DPS):
        for coeffs, roots, err in calls:
            ref = _reference_reconstruction_error(coeffs, roots)
            if ref > 1e-50:
                assert err == ref
            else:
                assert err < 1e-50


def test_reconstruction_error_is_unchanged_on_d_mixed(named):
    report = oracle_compare(named["d_mixed"])
    assert report.reconstruction_errors == (
        0.0002638418749513407,
        0.0002638433109501437,
        0.00026384331109374364,
    )
