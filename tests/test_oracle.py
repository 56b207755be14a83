"""Floating-point cross-check of the combinatorial positions.

These tests keep the sample lists short; the expensive three-sample runs
live in the acceptance suite.
"""

import pytest
from mpmath import mp, mpc

from k3seg.errors import CuspidalFamilyError, OracleMismatchError
from k3seg.oracle import empirical_positions, oracle_compare, OracleReport, roots_at
from k3seg.symalg import parse_family


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
    with pytest.raises(OracleMismatchError):
        # the final deviation at t = 0.5 is about 0.39, above the fixed 0.2
        oracle_compare(named["ds_split"], t_list=(0.5,))


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
