"""Cusp classification, end surfaces, and the D/A/E chain read off the
density function."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charts
from k3seg.classify import (
    CuspKind,
    StableType,
    component,
    cusp_type,
    end_surface_data,
    stable_type,
)
from k3seg.density import DensityFunction
from k3seg.errors import (
    CuspidalInteriorError,
    InconsistentTypeError,
    InternalError,
    UnrecognizedCuspError,
)
from k3seg.report import analyze
from k3seg.symalg import SForm, forms, parse_family
from k3seg.symalg.field import sdiv_exact
from k3seg.tropics import EndExponents, end_exponents, pair_polygons


SEGMENT_TEXT = "g8 = 9*s^4 + t*(1 + s^8)\ng12 = s^6 + t*(1 + s^12)\n"


def test_cusp_kinds_of_named_families(named):
    expected = {
        "ds_split": CuspKind.MAXIMAL,
        "ds_circle": CuspKind.MAXIMAL,
        "tent": CuspKind.MAXIMAL,
        "d_mixed": CuspKind.MAXIMAL,
        "d_constant": CuspKind.CUSPIDAL_TO_MAXIMAL,
    }
    for name, kind in expected.items():
        assert cusp_type(named[name].normalized()) is kind, name


def test_segment_kind():
    # monomial limit (9s^4, s^6) with 9^3 != 27: a segment-type corner
    f = parse_family(SEGMENT_TEXT)
    assert cusp_type(f.normalized()) is CuspKind.SEGMENT


def _monomial_limit_kind(c1: Fraction, c2: Fraction) -> CuspKind:
    text = "g8 = (%s)*s^4 + t*(1 + s^8)\ng12 = (%s)*s^6 + t*(1 + s^12)\n" % (c1, c2)
    return cusp_type(parse_family(text).normalized())


@pytest.mark.parametrize(
    "c1, c2, kind",
    [
        ("3/4", "1/8", CuspKind.MAXIMAL),
        ("3/4", "-1/8", CuspKind.MAXIMAL),
        ("4/3", "-8/27", CuspKind.MAXIMAL),
        ("3/4", "1/7", CuspKind.SEGMENT),
        ("3/4", "9/64", CuspKind.SEGMENT),
        ("5/6", "1/8", CuspKind.SEGMENT),
        ("-3/4", "1/8", CuspKind.SEGMENT),
    ],
)
def test_monomial_limit_kind_with_fractional_coefficients(c1, c2, kind):
    # (c1*s^4, c2*s^6) is maximal exactly when c1^3 = 27*c2^2
    assert _monomial_limit_kind(Fraction(c1), Fraction(c2)) is kind


def test_monomial_limit_kind_is_the_coefficient_identity():
    rng = random.Random(15)
    for _ in range(200):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        c1, c2 = 3 * a**2, a**3  # on the curve c1^3 = 27*c2^2
        if rng.random() < 0.5:
            c1, c2 = c1 + Fraction(rng.randint(-3, 3), rng.randint(1, 50)), c2
        if not c1:
            continue
        expected = CuspKind.MAXIMAL if c1**3 == 27 * c2**2 else CuspKind.SEGMENT
        assert _monomial_limit_kind(c1, c2) is expected, (c1, c2)


def test_no_degeneration_kind():
    f = parse_family("g8 = s^8 + 1\ng12 = s^12 + 1\n")
    assert cusp_type(f.normalized()) is CuspKind.NO_DEGENERATION
    g = parse_family("g8 = s^8 + 1 + t*s\ng12 = s^12 + 1\n")
    assert cusp_type(g.normalized()) is CuspKind.NO_DEGENERATION


def test_an_unnormalized_pair_is_unrecognized():
    # g8 has t-valuation -1, so the pair has no t = 0 limit
    f = parse_family("g8 = 3*t^-1*s^4\ng12 = s^6\n")
    with pytest.raises(ValueError):
        f.g8.limit0()
    assert cusp_type(f) is CuspKind.UNRECOGNIZED


def test_unrecognized_kind():
    # the t = 0 limit keeps g12 at zero, which no template covers
    f = parse_family("g8 = 3*s^4\ng12 = t*(1 + s^12)\n")
    assert cusp_type(f.normalized()) is CuspKind.UNRECOGNIZED
    # a non-minimal constant limit is also left unclassified
    g = parse_family("g8 = 3*s^4 + 3\ng12 = s^6 + 1\n")
    assert cusp_type(g.normalized()) is CuspKind.UNRECOGNIZED


def test_cuspidal_kind_with_stationary_roots_is_refused():
    # identically zero discriminant whose quartic keeps four distinct finite
    # roots in the limit: classified as cuspidal, but nothing moves toward
    # the ends, so both end exponents are zero
    text = (
        "let q(x) = (x - 1)*(x - 2)*(x - 3)*(x - 4) + t*x\n"
        "g8 = 3*q(s)^2\n"
        "g12 = q(s)^3\n"
    )
    f = parse_family(text)
    assert cusp_type(f.normalized()) is CuspKind.CUSPIDAL
    with pytest.raises(UnrecognizedCuspError, match="not both positive"):
        analyze(f)


def test_a_broken_cusp_quartic_is_an_internal_error(named, monkeypatch):
    # halve the quotient G = 3*g12/g8: the identity 3*G^2 = g8 fails, and
    # cusp_type lets the InternalError through
    def halved(a, b):
        parts, z, c = sdiv_exact(a, b)
        return parts, z, 2 * c

    monkeypatch.setattr(forms, "sdiv_exact", halved)
    with pytest.raises(InternalError, match=r"^3\*G\^2 differs from g8$"):
        cusp_type(named["d_constant"].normalized())


def test_cuspidal_interior_refusal_through_analyze():
    # here the quartic roots do run to the ends (valuations 2, 1, -1, -1),
    # but not in two equal-speed pairs, and the constant-density
    # construction refuses
    text = (
        "let q(x) = (x - t^2)*(x - t)*(t*x - 1)*(t*x + 1)\n"
        "g8 = 3*q(s)^2\n"
        "g12 = q(s)^3\n"
    )
    f = parse_family(text)
    assert cusp_type(f.normalized()) is CuspKind.CUSPIDAL_TO_MAXIMAL
    with pytest.raises(CuspidalInteriorError, match="equal-speed pairs"):
        analyze(f)


def test_segment_family_is_refused_whole():
    # constant zero density forces index-9 E ends, one past the supported
    # range, and the chain reader says so
    with pytest.raises(InconsistentTypeError, match="E9|index 9|\\[0, 8\\]"):
        analyze(parse_family(SEGMENT_TEXT))


# ---------------------------------------------------------------------------
# end surfaces
# ---------------------------------------------------------------------------


def test_tent_end_surfaces(named):
    tent = named["tent"]
    polygons = pair_polygons(tent)
    left, right = end_surface_data(tent, end_exponents(*polygons), polygons)
    assert left.g4 == SForm(4, [0, 0, 0, 0, 3])
    assert left.g6 == SForm(6, [1, 0, 0, 0, 0, 0, 1])
    assert not left.is_nodal
    # the limit discriminant -27*(2*sigma^6 + 1) is not identically zero
    delta = left.g4**3 - (left.g6 * left.g6).scale(27)
    assert delta == SForm(12, [-27, 0, 0, 0, 0, 0, -54])
    # the family is chart-symmetric, so the right end matches
    assert (right.g4, right.g6) == (left.g4, left.g6)


def test_d_mixed_left_end_is_a_square_cube_pair(named):
    g = named["d_mixed"].normalized()
    polygons = pair_polygons(g)
    left, _ = end_surface_data(g, end_exponents(*polygons), polygons)
    p2 = SForm(2, [6, -9, 3])  # 3*(sigma - 1)*(sigma - 2)
    assert left.g4 == (p2 * p2).scale(3)
    assert left.g6 == p2**3
    assert left.is_nodal


def test_right_end_is_the_left_end_of_the_inverted_family(named, corpus):
    # the right end reads its gauge off f's own polygons; the inverted
    # family's left end reads it off the inverted polygons
    for f in [*named.values(), *corpus[:10]]:
        g = f.normalized()
        polygons = pair_polygons(g)
        ends = end_exponents(*polygons)
        _, right = end_surface_data(g, ends, polygons)
        inv = g.inverted()
        swapped = EndExponents(ends.at_infinity, ends.at_zero)
        left, _ = end_surface_data(inv, swapped, pair_polygons(inv))
        assert right == left


def test_end_surface_nodal_matches_density_endpoint(named_reports):
    for rep in named_reports.values():
        fn = rep.density
        assert (fn.value_at(fn.lo) == 0) == (not rep.left_end.is_nodal)
        assert (fn.value_at(fn.hi) == 0) == (not rep.right_end.is_nodal)


def _nodal_by_forms(g4, g6):
    return not (g4**3 - (g6 * g6).scale(27))


def test_integer_nodal_test_matches_the_limit_discriminant(named):
    for f in named.values():
        g = f.normalized()
        polygons = pair_polygons(g)
        ends = end_exponents(*polygons)
        for surface in end_surface_data(g, ends, polygons):
            assert surface.is_nodal == _nodal_by_forms(surface.g4, surface.g6)
    rng = random.Random(41)

    def coefficients(n):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else 0
                for _ in range(n)]

    pairs = [(SForm.zero(4), SForm.zero(6))]
    for _ in range(150):
        pairs.append((SForm(4, coefficients(5)), SForm(6, coefficients(7))))
        # nodal: (3*c^2*q^2, c^3*q^3) for a quadratic q and a rational c
        q = SForm(2, coefficients(3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pairs.append(((q * q).scale(3 * c**2), (q**3).scale(c**3)))
        # the same shapes, g4 off by a factor w: P4^3 = P6^2 but not nodal
        w = rng.choice((2, -1, Fraction(1, 3)))
        pairs.append(((q * q).scale(3 * c**2 * w), (q**3).scale(c**3)))
    nodal = [(g4, g6) for g4, g6 in pairs if _nodal_by_forms(g4, g6)]
    assert any(g4 and g4.den != g6.den for g4, g6 in nodal)
    assert len(nodal) < len(pairs)
    for g4, g6 in pairs:
        assert (not forms._discriminant_rows(g4, g6)) == _nodal_by_forms(g4, g6)


def test_nodal_test_matches_the_limit_discriminant_at_degrees_8_12(named, corpus):
    # cusp_type asks the same question of the t = 0 limits (lim8, lim12)
    pairs = []
    for f in [*named.values(), *corpus]:
        for g in charts(f):
            g = g.normalized()
            pairs.append((g.g8.limit0(), g.g12.limit0()))
    rng = random.Random(43)
    for _ in range(100):
        q = SForm(4, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)])
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pairs.append(((q * q).scale(3 * c**2), (q**3).scale(c**3)))
        # off by a factor w: P8^3 = P12^2 but not nodal unless q = 0
        w = rng.choice((2, -1, Fraction(1, 3)))
        pairs.append(((q * q).scale(3 * c**2 * w), (q**3).scale(c**3)))
    verdicts = [_nodal_by_forms(g8, g12) for g8, g12 in pairs]
    assert any(verdicts) and not all(verdicts)
    for (g8, g12), nodal in zip(pairs, verdicts):
        assert (not forms._discriminant_rows(g8, g12)) == nodal


# ---------------------------------------------------------------------------
# stable chains
# ---------------------------------------------------------------------------


def test_component_charges():
    assert component("A", 0).charge == 1
    assert component("A", 17).charge == 18
    assert component("D", 0).charge == 4
    assert component("E", 8).charge == 11


def test_stable_type_from_triangles():
    nine = stable_type(DensityFunction([(-1, 0), (0, 9), (1, 0)]))
    assert nine.label() == "E0 A17 E0"
    assert nine.charges() == [3, 18, 3]
    assert sum(c.index for c in nine.components) == 17
    six = stable_type(DensityFunction([(-1, 0), (0, 6), (1, 0)]))
    assert six.label() == "E3 A11 E3"
    assert six.charges() == [6, 12, 6]


def test_stable_type_from_lines():
    mixed = stable_type(DensityFunction([(-1, 14), (1, 26)]))
    assert mixed.label() == "D2 D14"
    assert mixed.charges() == [6, 18]
    flat = stable_type(DensityFunction([(-1, 1), (1, 1)]))
    assert flat.label() == "D8 D8"


def test_stable_type_reversal():
    mixed = stable_type(DensityFunction([(-1, 14), (1, 26)]))
    flipped = StableType(mixed.components[::-1])
    assert flipped.label() == "D14 D2"
    assert StableType(flipped.components[::-1]) == mixed


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.lists(st.integers(-14, 14), min_size=1, max_size=6, unique=True),
    st.lists(st.fractions(Fraction(1, 6), 2, max_denominator=6), min_size=6, max_size=6),
    st.integers(0, 3),
    st.booleans(),
)
def test_stable_type_charges_total_24(slopes, widths, anchor, anchor_right):
    # any strictly decreasing integer slopes; the value `anchor` (often 0,
    # an E end) sits at the left or the right end
    slopes.sort(reverse=True)
    points = [(Fraction(-1), Fraction(0))]
    for slope, width in zip(slopes, widths):
        w, v = points[-1]
        points.append((w + width, v + slope * width))
    shift = anchor - points[-1 if anchor_right else 0][1]
    fn = DensityFunction([(w, v + shift) for w, v in points])
    ends = [(12 - slopes[0], fn.breakpoints[0][1]), (12 + slopes[-1], fn.breakpoints[-1][1])]
    in_range = all(0 <= m - 3 <= 8 if v == 0 else m >= 4 for m, v in ends)
    try:
        charges = stable_type(fn).charges()
    except InconsistentTypeError:
        assert not in_range
        return
    assert in_range
    assert (charges[0], charges[-1]) == (12 - slopes[0], 12 + slopes[-1])
    assert sum(charges) == 24


def test_stable_type_rejects_out_of_range_ends():
    # an E end one step past E8
    with pytest.raises(InconsistentTypeError, match="\\[0, 8\\].*E9-shape"):
        stable_type(DensityFunction([(-1, 0), (1, 0)]))
    # slope 13 would need an E index of -4 on a zero end
    with pytest.raises(InconsistentTypeError):
        stable_type(DensityFunction([(-1, 0), (0, 13), (1, 0)]))
    # and a negative D index on a nonzero end
    with pytest.raises(InconsistentTypeError, match="negative"):
        stable_type(DensityFunction([(-1, 1), (0, 14), (1, 1)]))

