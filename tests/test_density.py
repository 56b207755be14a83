"""The density invariant: canonical breakpoints, the two construction routes,
the cuspidal branch, scale comparison, and the CSV/SVG emitters."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from k3seg.density import (
    CutData,
    DensityFunction,
    cut_positions,
    density_cuspidal,
    density_from_positions,
    density_profile,
    emit_csv,
    emit_svg,
)
from k3seg.errors import CuspidalInteriorError, NegativeDensityError
from k3seg.report import derive
from k3seg.symalg import SForm, TLaurent, extract_cusp_quartic
from k3seg.tropics import EndExponents, newton_polygon
from k3seg.corpus import generate_corpus
from tests.conftest import random_form, same_up_to_scale
from tests.fraction_reference import hull_points


def lin(a, b):
    """a + b*s as a degree-1 form."""
    return SForm(1, [a, b])


# ---------------------------------------------------------------------------
# DensityFunction as a data structure
# ---------------------------------------------------------------------------


def test_collinear_breakpoints_merge():
    fn = DensityFunction([(-1, 0), (0, 1), (1, 2), (2, 1)])
    assert fn.breakpoints == ((-1, 0), (1, 2), (2, 1))
    assert fn.slopes() == [1, -1]


def test_stored_slopes_match_the_breakpoints():
    # the slopes are kept from the constructor; a caller's list is its own
    fn = DensityFunction([(Fraction(-1, 3), 0), (0, 2), (Fraction(1, 2), Fraction(5, 2)), (1, 0)])
    pts = fn.breakpoints
    want = [(v2 - v1) / (w2 - w1) for (w1, v1), (w2, v2) in zip(pts, pts[1:])]
    assert fn.slopes() == want == [6, 1, -5]
    assert all(type(s) is int for s in fn.slopes())
    fn.slopes().append(0)
    assert fn.slope_profile() == ((Fraction(-1, 3), 0, Fraction(1, 2), 1), (6, 1, -5))
    assert fn.slope_drops() == [(0, 5), (Fraction(1, 2), 6)]
    assert fn.reflected().slopes() == [5, -1, -6]


def test_duplicate_positions():
    fn = DensityFunction([(0, 0), (1, 1), (1, 1), (2, 0)])
    assert fn.breakpoints == ((0, 0), (1, 1), (2, 0))
    with pytest.raises(ValueError, match="two values"):
        DensityFunction([(0, 0), (1, 1), (1, 2)])


def test_breakpoints_must_increase():
    with pytest.raises(ValueError, match="out of order"):
        DensityFunction([(0, 0), (2, 1), (1, 0)])


def test_slopes_must_be_integers():
    with pytest.raises(ValueError, match="non-integer slope"):
        DensityFunction([(0, 0), (1, Fraction(1, 2))])


def test_slopes_must_strictly_decrease():
    with pytest.raises(ValueError, match="strictly decrease"):
        DensityFunction([(0, 0), (1, 0), (2, 5)])


def test_needs_two_breakpoints():
    with pytest.raises(ValueError):
        DensityFunction([(0, 0)])


def test_needs_two_breakpoints_after_the_merge():
    # repeated breakpoints count once: two copies of one point are refused,
    # where they used to build a function whose CSV divided by zero
    message = "^a density function needs at least two breakpoints$"
    for pts in ([(0, 0), (0, 0)], [(1, 3)] * 3, []):
        with pytest.raises(ValueError, match=message):
            DensityFunction(pts)
    # a repeat inside a valid function merges, and reports as the function
    fn = DensityFunction([(0, 0), (0, 0), (2, 6)])
    assert fn.unit_breakpoints() == [(0, 0), (1, 6)]
    assert emit_csv(fn) == emit_csv(DensityFunction([(0, 0), (2, 6)])) == b"0,0\n1,6"


def test_value_at_and_extrema():
    fn = DensityFunction([(-1, 0), (0, 9), (1, 0)])
    assert fn.value_at(Fraction(-1, 2)) == Fraction(9, 2)
    assert fn.value_at(0) == 9
    assert max(v for _, v in fn.breakpoints) == 9 and fn.min_value() == 0
    with pytest.raises(ValueError):
        fn.value_at(2)


def test_slope_drops():
    fn = DensityFunction([(-1, 0), (0, 9), (1, 0)])
    assert fn.slope_drops() == [(Fraction(0), 18)]


def test_unit_breakpoints_rescale_domain_only():
    fn = DensityFunction([(-1, 14), (1, 26)])
    assert fn.unit_breakpoints() == [(0, 14), (1, 26)]


def test_reflected_swaps_ends_and_rescales():
    fn = DensityFunction([(-1, 0), (0, 3), (Fraction(1, 2), 0)])
    r = fn.reflected()
    assert r.breakpoints == ((-1, 0), (0, 6), (2, 0))
    assert r.reflected() == fn


def test_slope_profile_is_the_shift_invariant():
    a = DensityFunction([(-1, 3), (0, 12), (1, 3)])
    b = DensityFunction([(-1, 0), (0, 9), (1, 0)])
    assert a.slope_profile() == b.slope_profile()
    assert a != b


# ---------------------------------------------------------------------------
# clamped positions and the two routes
# ---------------------------------------------------------------------------


def positions_of(pair):
    _, _, _, ends, trop_d = derive(pair)
    return cut_positions(trop_d, ends)


def profile_of(pair):
    _, trop8, trop12, ends, trop_d = derive(pair)
    return density_profile(trop_d, trop8, trop12, ends)


def negatives(c):
    return sum(1 for x in c.positions if x < 0)


def test_cut_positions_ds_split(named):
    c = positions_of(named["ds_split"].normalized())
    assert sorted(c.positions) == [-1] * 3 + [0] * 18 + [1] * 3
    assert negatives(c) == 3
    assert c.w_plus == 1
    assert c.level == 12


def test_cut_positions_tent(named):
    c = positions_of(named["tent"])
    assert sorted(c.positions) == [-1] * 6 + [0] * 12 + [1] * 6
    assert negatives(c) == 6
    assert c.level == 12


def test_cut_positions_clamp_degree_drop(named):
    # d_mixed loses the top twelve discriminant coefficients; those roots sit
    # at s = infinity and clamp to the right endpoint
    c = positions_of(named["d_mixed"].normalized())
    assert sorted(c.positions) == [-1] * 6 + [1] * 18
    assert negatives(c) == 6
    assert c.level == 26


def test_cut_positions_level_is_the_top_height():
    # the named families with a discriminant start and end at one height; the
    # first corpus family runs from height 16 at index 2 to height 3 at index
    # 18, and the level is the top one over e0 = 8/5
    _, _, _, ends, trop_d = derive(generate_corpus(1, 1729)[0])
    assert (trop_d.hull[0], trop_d.hull[-1], ends.at_zero) == ((2, 16), (18, 3), Fraction(8, 5))
    c = cut_positions(trop_d, ends)
    assert c.level == Fraction(15, 8)
    assert negatives(c) == 14


def test_density_profile_frozen_shapes(named):
    assert profile_of(named["ds_split"].normalized()).breakpoints == (
        (-1, 0),
        (0, 9),
        (1, 0),
    )
    assert profile_of(named["tent"]).breakpoints == ((-1, 0), (0, 6), (1, 0))
    assert profile_of(named["d_mixed"].normalized()).breakpoints == (
        (-1, 14),
        (1, 26),
    )


def test_position_route_carries_its_own_level(named):
    fn = density_from_positions(positions_of(named["ds_split"].normalized()))
    assert fn.breakpoints == ((-1, 3), (0, 12), (1, 3))


def test_both_routes_share_the_slope_profile(named):
    for name in ("ds_split", "ds_circle", "tent", "d_mixed"):
        g = named[name].normalized()
        master = profile_of(g)
        other = density_from_positions(positions_of(g))
        assert other.slope_profile() == master.slope_profile()


def density_at_each_position(c):
    """The position route evaluated point by point: the docstring formula at
    every grid point."""
    grid = sorted({Fraction(-1), c.w_plus} | set(c.positions))
    negative = [x for x in c.positions if x < 0]
    nonnegative = [x for x in c.positions if x >= 0]

    def value(w):
        total = 12 * w + c.level
        for x in negative:
            total -= max(w, x)
        for x in nonnegative:
            total -= max(Fraction(0), w - x)
        return total

    return DensityFunction([(w, value(w)) for w in grid])


def test_position_sweep_matches_the_formula_at_each_point(named):
    rng = random.Random(29)
    cases = [positions_of(f.normalized()) for f in named.values() if f.discriminant24()]
    for _ in range(300):
        w_plus = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        # -1, 0 and w_plus themselves, repeated, beside positions in between
        pool = [Fraction(-1), Fraction(0), w_plus] + [
            Fraction(rng.randint(-30, 30 * w_plus.numerator), 30 * w_plus.denominator)
            for _ in range(4)
        ]
        positions = tuple(sorted(rng.choice(pool) for _ in range(24)))
        level = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        cases.append(CutData(positions, w_plus, level))
    assert any(c.positions.count(Fraction(0)) > 1 for c in cases)
    for c in cases:
        assert density_from_positions(c) == density_at_each_position(c)


def density_by_definition(delta, points8, points12, ends):
    """V = [psi_Delta(a) - min(3*psi8(a), 2*psi12(a))] / e0 at a = -w*e0, from
    all the points (index, valuation) of Delta, g8 and g12, sampled wherever
    two of the lines of psi_Delta, or two of the lines 3*psi8 and 2*psi12 are
    made of, meet: V is linear between those abscissas."""
    e0, einf = ends
    envelope = [(3 * i, 3 * v) for i, v in points8]
    envelope += [(2 * j, 2 * w) for j, w in points12]

    def meets(lines):
        pairs = combinations(lines, 2)
        return {(v2 - v1) / (i1 - i2) for (i1, v1), (i2, v2) in pairs if i1 != i2}

    def value(a):
        return (min(v + i * a for i, v in delta) - min(v + i * a for i, v in envelope)) / e0

    grid = {a for a in meets(delta) | meets(envelope) if -einf < a < e0} | {-einf, e0}
    fn = DensityFunction(sorted((-a / e0, value(a)) for a in grid))
    if fn.min_value() < 0:
        raise NegativeDensityError("V dips below zero")
    return fn


def test_density_profile_matches_its_definition():
    # Delta is drawn independently of g8 and g12, so V may bend the wrong way
    # (ValueError from DensityFunction) or dip below zero; the definition reads
    # every point of each form, density_profile only the hull vertices
    rng = random.Random(1)
    seen = Counter()
    for _ in range(400):
        forms = (random_form(rng, 24), random_form(rng, 8), random_form(rng, 12))
        ends = EndExponents(*(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in "01"))
        outcomes = []
        for construct, data in (
            (density_by_definition, [hull_points(f) for f in forms]),
            (density_profile, [newton_polygon(f) for f in forms]),
        ):
            try:
                outcomes.append(construct(*data, ends).breakpoints)
            except (ValueError, NegativeDensityError) as err:
                outcomes.append(type(err))
        assert outcomes[0] == outcomes[1], (forms, ends)
        seen[outcomes[0] if isinstance(outcomes[0], type) else "V"] += 1
    assert set(seen) == {"V", ValueError, NegativeDensityError}, seen


# ---------------------------------------------------------------------------
# cuspidal branch
# ---------------------------------------------------------------------------


def test_cuspidal_density_is_constant_one(named):
    q = extract_cusp_quartic(named["d_constant"])
    fn = density_cuspidal(q)
    assert fn.breakpoints == ((-1, 1), (1, 1))


def test_cuspidal_density_rejects_interior_root():
    # valuations 1, 1/2, -1, -1: the 1/2 root leaves too slowly to pair up
    q = (
        lin(TLaurent.term(-1, 1), TLaurent.one)
        * lin(TLaurent.term(-1, Fraction(1, 2)), TLaurent.one)
        * lin(TLaurent.const(-1), TLaurent.term(1, 1))
        * lin(TLaurent.const(-1), TLaurent.term(1, 1))
    )
    with pytest.raises(CuspidalInteriorError):
        density_cuspidal(q)


def test_cuspidal_density_rejects_stationary_roots():
    # four distinct roots with valuation 0 stay in the interior
    q = lin(-1, 1) * lin(-2, 1) * lin(-3, 1) * lin(-4, 1)
    with pytest.raises(CuspidalInteriorError):
        density_cuspidal(q)


def test_cuspidal_density_uses_speed_ratio():
    # zero-end speed 2, infinity-end speed 1: domain [-1, 1/2]
    q = (
        lin(TLaurent.term(-1, 2), TLaurent.one)
        * lin(TLaurent.term(-2, 2), TLaurent.one)
        * lin(TLaurent.const(-1), TLaurent.term(1, 1))
        * lin(TLaurent.const(-3), TLaurent.term(1, 1))
    )
    fn = density_cuspidal(q)
    assert fn.breakpoints == ((-1, 1), (Fraction(1, 2), 1))


# ---------------------------------------------------------------------------
# comparison up to scale
# ---------------------------------------------------------------------------


def test_same_up_to_scale_matches_unit_triangle(named):
    triangle = DensityFunction([(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 0)])
    nine = profile_of(named["ds_split"].normalized())
    six = profile_of(named["tent"])
    assert same_up_to_scale(nine, triangle)
    assert same_up_to_scale(nine, six)
    assert not same_up_to_scale(nine, DensityFunction([(-1, 1), (1, 1)]))


def test_same_up_to_scale_needs_matching_bend_positions():
    a = DensityFunction([(0, 0), (Fraction(1, 2), 1), (1, 0)])
    b = DensityFunction([(0, 0), (Fraction(1, 3), 2), (1, 0)])
    assert not same_up_to_scale(a, b)


def test_same_up_to_scale_zero_functions():
    z = DensityFunction([(0, 0), (1, 0)])
    assert same_up_to_scale(z, DensityFunction([(-1, 0), (1, 0)]))
    assert not same_up_to_scale(z, DensityFunction([(0, 1), (1, 1)]))


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_csv_frozen_bytes(named_reports):
    expected = {
        "ds_split": b"0,0\n1/2,9\n1,0",
        "ds_circle": b"0,0\n1/2,9\n1,0",
        "tent": b"0,0\n1/2,6\n1,0",
        "d_mixed": b"0,14\n1,26",
        "d_constant": b"0,1\n1,1",
    }
    for name, rep in named_reports.items():
        assert emit_csv(rep.density) == expected[name]


def test_svg_marks_every_breakpoint(named_reports):
    svg = emit_svg(named_reports["tent"].density)
    assert svg.startswith(b"<svg ")
    assert svg.endswith(b"</svg>")
    assert svg.count(b"<circle") == 3
    assert emit_svg(named_reports["d_constant"].density).count(b"<circle") == 2


def test_svg_is_deterministic(named_reports):
    fn = named_reports["ds_split"].density
    assert emit_svg(fn) == emit_svg(fn)
