"""Acceptance checklist.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
fails loudly on the first violated assertion.  Tolerances are zero except
where a check is numerical by nature (the root-tracking comparison), whose
threshold is documented in the oracle module.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from k3seg.classify import StableType
from k3seg.density import (
    cut_positions,
    density_from_positions,
    density_profile,
    DensityFunction,
)
from k3seg.lattices import count_norm_vectors, root_lattice, wps_weights
from k3seg.moduli import (
    enumerate_codim2,
    enumerate_divisors,
    normalization_preimage_count,
)
from k3seg.oracle import oracle_compare
from k3seg.report import analyze, derive
from k3seg.symalg import SForm
from k3seg.tropics import newton_polygon
from tests.conftest import same_up_to_scale, stretched


@contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        print("FAIL criterion %d" % number)
        raise
    print("PASS criterion %d" % number)


@pytest.fixture(scope="module")
def corpus_data(corpus_build):
    families, built = corpus_build
    started = time.perf_counter()
    reports = [analyze(f) for f in families]
    return families, reports, built + time.perf_counter() - started


UNIT_TRIANGLE = DensityFunction(
    ((0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 0))
)  # the graph of min(a, 1 - a)


def test_criterion_1_split_family_triangle(named):
    with criterion(1):
        started = time.perf_counter()
        report = analyze(named["ds_split"])
        elapsed = time.perf_counter() - started
        unit = report.density.unit_breakpoints()
        assert unit == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(9)),
            (Fraction(1), Fraction(0)),
        ]
        assert same_up_to_scale(DensityFunction(unit), UNIT_TRIANGLE)
        assert elapsed < 1.0


def test_criterion_2_circle_family_triangle(named):
    with criterion(2):
        report = analyze(named["ds_circle"])
        assert same_up_to_scale(
            DensityFunction(report.density.unit_breakpoints()), UNIT_TRIANGLE
        )
        _, _, _, ends, trop_d = derive(named["ds_circle"])
        cut = cut_positions(trop_d, ends)
        interior = [x for x in cut.positions if -1 < x < cut.w_plus]
        assert len(interior) == 18


def test_criterion_3_constant_family(named):
    with criterion(3):
        report = analyze(named["d_constant"])
        assert len(report.density.breakpoints) == 2
        assert max(v for _, v in report.density.breakpoints) == report.density.min_value()
        assert report.stable.label() == "D8 D8"
        assert sum(report.stable.charges()) == 24


def test_criterion_4_strata_counts():
    with criterion(4):
        divisors = enumerate_divisors()
        assert len([d for d in divisors if len(d.params) == 3]) == 45
        assert len([d for d in divisors if len(d.params) == 2]) == 9
        assert len(divisors) == 54
        flagged = [s for s in enumerate_codim2() if s.is_nonnormal_locus]
        assert len(flagged) == 10
        assert normalization_preimage_count() == 20


def test_criterion_5_lattice_suite():
    with criterion(5):
        for n in range(1, 18):
            assert root_lattice("A", n).determinant() == n + 1
        for n in range(1, 17):
            assert root_lattice("D", n).determinant() == 4
        assert [root_lattice("E", n).determinant() for n in (6, 7, 8)] == [3, 2, 1]
        assert count_norm_vectors(root_lattice("E", 8), 2) == 240
        assert wps_weights("E", 8) == (1, 2, 2, 3, 3, 4, 4, 5, 6)
        for l in range(3, 17):
            assert wps_weights("D", l) == tuple([1, 1, 1, 1] + [2] * (l - 3))


def test_criterion_6_property_suite(corpus_data):
    with criterion(6):
        families, reports, elapsed = corpus_data
        started = time.perf_counter()
        assert len(families) == 100
        for f, report in zip(families, reports):
            _, trop8, trop12, ends, trop_d = derive(f)
            assert trop_d is not None  # corpus avoids nn-families
            # (a) the two density routes agree slope for slope
            direct = density_profile(trop_d, trop8, trop12, ends)
            via_cut = density_from_positions(cut_positions(trop_d, ends))
            assert direct.slope_profile() == via_cut.slope_profile()
            # (b) charge conservation
            assert sum(report.stable.charges()) == 24
            # (c) at most 18 interior bends
            assert len(report.density.breakpoints) - 2 <= 18
            # (d) slope range; slopes decrease, so the ends bound them all
            slopes = report.density.slopes()
            assert -9 <= slopes[-1] and slopes[0] <= 9
            # (e) swapping the chart ends mirrors the whole analysis
            mirrored = analyze(f.inverted())
            assert mirrored.density.breakpoints == report.density.reflected().breakpoints
            assert mirrored.stable == StableType(report.stable.components[::-1])
            # (f) nonnegative density (a negative value raises in analyze)
            assert report.density.min_value() >= 0
        assert elapsed + (time.perf_counter() - started) < 30.0


def test_criterion_7_end_dichotomy(corpus_data, named, named_reports):
    with criterion(7):
        selected = [named_reports[k] for k in ("ds_split", "ds_circle", "tent", "d_mixed")]
        _, corpus_reports, _ = corpus_data
        for report in selected + corpus_reports:
            v = report.density
            assert (v.value_at(v.lo) == 0) == (not report.left_end.is_nodal)
            assert (v.value_at(v.hi) == 0) == (not report.right_end.is_nodal)


def test_criterion_8_oracle_convergence(named):
    with criterion(8):
        started = time.perf_counter()
        samples = (1e-3, 1e-5, 1e-7)
        for name in ("ds_split", "tent"):
            report = oracle_compare(named[name], t_list=samples)
            devs = list(report.deviations)
            assert all(a > b for a, b in zip(devs, devs[1:]))
            assert devs[-1] <= 0.2
        assert time.perf_counter() - started < 60.0


def test_criterion_9_min_plus_duality():
    with criterion(9):
        rng = random.Random(31415)
        checked = 0
        while checked < 200:
            degree = rng.randint(1, 24)
            f = SForm.zero(degree)
            for _ in range(rng.randint(1, 7)):
                i = rng.randrange(degree + 1)
                c = rng.choice((-5, -2, -1, 1, 3))
                e = Fraction(rng.randint(-9, 12), rng.choice((1, 2, 3, 4)))
                f = f + SForm.monomial(degree, i, c, e)
            if not f:
                continue
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert newton_polygon(f).eval_at(a) == stretched(f, a).min_coeff_val()
            checked += 1
