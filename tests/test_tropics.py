"""Newton polygons, valuation profiles, end exponents, and the min-plus
duality between polygon evaluation and coordinate stretching."""

import random
from fractions import Fraction

import pytest

from conftest import random_form, stretched
from fraction_reference import hull_points
from k3seg.errors import UnrecognizedCuspError, ZeroFormError
from k3seg.symalg import INF, NEG_INF, SForm, TLaurent, parse_family
from k3seg.tropics import (
    EndExponents,
    _lower_hull,
    end_exponents,
    modified_polygon,
    newton_polygon,
    pair_polygons,
    root_valuations,
)


def test_newton_polygon_of_tent_g12(named):
    poly = newton_polygon(named["tent"].g12)
    assert poly.degree == 12
    assert poly.hull == ((0, Fraction(1)), (6, Fraction(0)), (12, Fraction(1)))
    assert list(poly.hull) == hull_points(named["tent"].g12)
    assert poly.slopes() == [Fraction(-1, 6), Fraction(1, 6)]
    assert poly.eval_at(0) == 0
    assert poly.eval_at(Fraction(1, 6)) == 1
    assert poly.eval_at(Fraction(-1, 2)) == -5


def test_newton_polygon_drops_interior_points():
    f = SForm(4, [TLaurent.term(1, 3), TLaurent.term(1, 5), TLaurent.term(1, 0)])
    poly = newton_polygon(f)
    assert poly.hull == ((0, Fraction(3)), (2, Fraction(0)))
    assert len(hull_points(f)) == 3


def test_newton_polygon_on_index_points_has_the_height_hull():
    # the hull is built on (i, k) and mapped to (i, low + k*step) afterwards
    rng = random.Random(13)
    forms = [random_form(rng, rng.randint(0, 12)) for _ in range(200)]
    one_exponent = SForm(4, [TLaurent.term(2, Fraction(-3, 2)), 0, TLaurent.term(-1, Fraction(-3, 2))])
    spread = SForm(6, [TLaurent.term(1, Fraction(-5, 3)), TLaurent.term(1, Fraction(1, 2)),
                       0, TLaurent.term(4, Fraction(-1, 6)), 0, 0, TLaurent.term(1, 2)])
    assert one_exponent.step == 0 and one_exponent.low == Fraction(-3, 2)
    assert spread.step == Fraction(1, 6) and spread.low == Fraction(-5, 3)
    forms += [one_exponent, spread, SForm(3, [0, TLaurent.term(7, 4)])]
    assert any(f.step == 0 for f in forms)
    assert any(f.low < 0 and f.low.denominator > 1 for f in forms)
    assert any(f.step.denominator > 1 for f in forms)
    for f in forms:
        assert newton_polygon(f).hull == tuple(_lower_hull(hull_points(f)))


def test_newton_polygon_of_zero_form():
    with pytest.raises(ZeroFormError):
        newton_polygon(SForm.zero(8))


def test_root_valuations_of_tent(named):
    g = named["tent"]
    sixth = Fraction(1, 6)
    assert root_valuations(newton_polygon(g.g12)) == (sixth,) * 6 + (-sixth,) * 6
    # 3*s^4 at formal degree 8: four roots at s = 0, four at s = infinity
    assert root_valuations(newton_polygon(g.g8)) == (INF,) * 4 + (NEG_INF,) * 4


def test_root_valuations_count_matches_formal_degree():
    f = SForm(6, [0, TLaurent.one, 0, TLaurent.term(1, 2)])
    vals = root_valuations(newton_polygon(f))
    assert len(vals) == 6
    assert vals == (INF, Fraction(-1), Fraction(-1), NEG_INF, NEG_INF, NEG_INF)


def test_end_exponents_of_named_families(named):
    for name, e in (("ds_split", 1), ("d_mixed", 1), ("d_constant", 1)):
        ends = end_exponents(*pair_polygons(named[name].normalized()))
        assert (ends.at_zero, ends.at_infinity) == (e, e)
    ends = end_exponents(*pair_polygons(named["tent"]))
    assert (ends.at_zero, ends.at_infinity) == (Fraction(1, 6), Fraction(1, 6))


def test_end_exponents_reject_non_degenerating_pair():
    f = parse_family("g8 = s^8 + 1\ng12 = s^12 + 1\n")
    with pytest.raises(UnrecognizedCuspError, match="not both positive"):
        end_exponents(*pair_polygons(f))


def test_end_exponents_reject_infinite_speed():
    # every constraint from g8 sits at s=0/infinity and g12 gives no finite
    # bound at the zero end either
    f = parse_family("g8 = 9*s^4 + t*s^5\ng12 = s^6\n")
    with pytest.raises(UnrecognizedCuspError, match="infinite"):
        end_exponents(*pair_polygons(f))


def test_end_exponents_ignore_vanishing_form():
    f = parse_family("g8 = 3*s^4\ng12 = s^6 - s^6\n")
    g = parse_family("g8 = 3*s^4 + t*(1 + s^8)\ng12 = s^6 - s^6\n")
    with pytest.raises(UnrecognizedCuspError):
        end_exponents(*pair_polygons(f))  # g8 alone: infinite speeds
    ends = end_exponents(*pair_polygons(g))
    assert ends == (Fraction(1, 4), Fraction(1, 4))


# min-plus duality: evaluating the polygon at a equals the smallest
# coefficient valuation after stretching the coordinate by t^a
def test_polygon_evaluation_is_stretched_minimum():
    rng = random.Random(97)
    for _ in range(40):
        degree = rng.randint(1, 24)
        f = SForm.zero(degree)
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(degree + 1)
            c = rng.choice((-3, -1, 1, 2))
            e = Fraction(rng.randint(-8, 12), rng.choice((1, 2, 3)))
            f = f + SForm.monomial(degree, i, c, e)
        if not f:
            continue
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert newton_polygon(f).eval_at(a) == stretched(f, a).min_coeff_val()


def clamped(pair):
    ends = end_exponents(*pair_polygons(pair))
    return modified_polygon(newton_polygon(pair.discriminant24()), ends)


def test_modified_polygon_frozen_hulls(named):
    mp = clamped(named["ds_split"].normalized())
    assert mp.hull == ((0, 12), (3, 9), (21, 9), (24, 12))
    mp = clamped(named["tent"])
    assert mp.hull == ((0, 2), (6, 1), (18, 1), (24, 2))


def test_modified_polygon_extends_degree_drop(named):
    # the d_mixed discriminant has s-degree 12; the clamp walks the missing
    # top half out to index 24 at the infinity-end speed
    g = named["d_mixed"].normalized()
    assert newton_polygon(g.discriminant24()).hull == ((0, 26), (6, 20), (12, 26))
    mp = clamped(g)
    assert mp.hull == ((0, 26), (6, 20), (24, 38))
    assert mp.degree == 24


def test_modified_polygon_slopes_are_clamped(named):
    for name in ("ds_split", "ds_circle", "tent", "d_mixed"):
        g = named[name].normalized()
        ends = end_exponents(*pair_polygons(g))
        mp = clamped(g)
        assert mp.hull[0][0] == 0 and mp.hull[-1][0] == 24
        for slope in mp.slopes():
            assert -ends.at_zero <= slope <= ends.at_infinity


def test_modified_polygon_is_the_clamp_on_random_polygons():
    # spans 0..24 with slopes in [-e0, einf], and agrees with the discriminant
    # polygon wherever the clamp must not act: at every bend in [-einf, e0]
    rng = random.Random(24)
    for _ in range(400):
        trop_d = newton_polygon(random_form(rng, 24))
        e0, einf = (Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in "01")
        mp = modified_polygon(trop_d, EndExponents(e0, einf))
        assert (mp.degree, mp.hull[0][0], mp.hull[-1][0]) == (24, 0, 24)
        assert all(-e0 <= slope <= einf for slope in mp.slopes())
        bends = {-slope for poly in (trop_d, mp) for slope in poly.slopes()}
        for a in {a for a in bends if -einf < a < e0} | {-einf, e0}:
            assert mp.eval_at(a) == trop_d.eval_at(a), (trop_d, e0, einf, a)
