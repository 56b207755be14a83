"""The report side on integers against its Fraction references
(fraction_reference): Newton polygons, min-plus values, root valuations, end
exponents, the clamp, the clamped positions, both density routes,
DensityFunction's checks, the stretched limit, the end surfaces and the SVG
bytes. Each is compared on random polygons, on corpus-100 (seed 1729) in the
charts s, -s, 1/s and -1/s, and on the named families in the same charts."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from conftest import charts, same_up_to_scale
from k3seg.classify import end_surface_data
from k3seg.density import (
    CutData,
    DensityFunction,
    cut_positions,
    density_from_positions,
    density_profile,
    emit_svg,
)
from k3seg.errors import K3SegError
from k3seg.symalg import FamilyPair, SForm, TLaurent
from k3seg.tropics import (
    EndExponents,
    end_exponents,
    modified_polygon,
    newton_polygon,
    root_valuations,
)


def outcome(run):
    """What run() returns, or the type and message of what it raises."""
    try:
        return run()
    except (ArithmeticError, ValueError, K3SegError) as err:
        return type(err), str(err)


def polygon(poly):
    return ref.Polygon(poly.degree, poly.hull)


def density(fn):
    return fn.breakpoints, tuple(fn.slopes())


def cut(c):
    return ref.CutData(c.positions, c.w_plus, c.level)


def surfaces(ends):
    return tuple((s.g4, s.g6, s.is_nodal) for s in ends)


def same(new, old, convert=lambda x: x):
    """new() and old() agree: both return, new's value converted, or both
    raise the same error with the same message."""
    got, want = outcome(new), outcome(old)
    if not isinstance(got, tuple) or not isinstance(got[0], type):
        got = convert(got)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# random polygons
# ---------------------------------------------------------------------------

_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_SPEED = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)


@st.composite
def forms(draw, degree, ends=False, degenerating=False):
    """A form whose t-exponents are low + k*step, low negative or fractional
    and step fractional. With ends, its bottom or its top coefficient may be
    missing: roots at s = 0 or s = infinity. A degenerating form has its
    lowest exponent at the middle index and k at least the distance from it,
    so half its roots leave toward each end."""
    low = draw(_RATIONAL)
    step = draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))
    terms = draw(st.lists(
        st.none() | st.tuples(st.sampled_from((-3, -1, 1, 2)), st.integers(0, 6)),
        min_size=degree + 1, max_size=degree + 1,
    ))
    if ends:
        cut_at = draw(st.sampled_from(((), (0,), (degree,), (0, degree))))
        terms = [None if i in cut_at else x for i, x in enumerate(terms)]
    if degenerating:
        half = degree // 2
        terms[half] = (1, 0)
        terms = [x and (x[0], x[1] + abs(i - half)) for i, x in enumerate(terms)]
    f = SForm(degree, [0 if x is None else TLaurent.term(x[0], low + x[1] * step) for x in terms])
    assume(f)
    return f


@settings(derandomize=True, deadline=None, max_examples=100)
@given(forms(24, ends=True), forms(8), forms(12), _SPEED, _SPEED, _RATIONAL)
def test_tropical_side_matches_the_fraction_routines(delta, g8, g12, e0, einf, a):
    # the polygons are drawn independently and the end exponents apart from
    # them, so most densities fail a check: both sides must fail alike
    trop_d, trop8, trop12 = (newton_polygon(f) for f in (delta, g8, g12))
    old_d, old8, old12 = (ref.newton_polygon(f) for f in (delta, g8, g12))
    for new, old in ((trop_d, old_d), (trop8, old8), (trop12, old12)):
        assert polygon(new) == old
        # the least denominator, so that equal hulls are equal polygons
        assert math.gcd(new.den, *(h for _, h in new.vertices)) == 1
        assert new.eval_at(a) == ref.eval_at(old, a)
        assert new.slopes() == ref.slopes(old)
        assert root_valuations(new) == ref.root_valuations(old)
    same(lambda: end_exponents(trop8, trop12), lambda: ref.end_exponents(old8, old12))
    ends = EndExponents(e0, einf)
    assert polygon(modified_polygon(trop_d, ends)) == ref.modified_polygon(old_d, ends)
    positions = same(lambda: cut_positions(trop_d, ends),
                     lambda: ref.cut_positions(old_d, ends), cut)
    same(lambda: density_from_positions(CutData(*positions)),
         lambda: ref.density_from_positions(positions), density)
    same(lambda: density_profile(trop_d, trop8, trop12, ends),
         lambda: ref.density_profile(old_d, old8, old12, ends), density)
    pair = FamilyPair(g8, g12)
    same(lambda: end_surface_data(pair, ends, (trop8, trop12)),
         lambda: ref.end_surface_data(pair, ends, (old8, old12)), surfaces)


def compare_family(g) -> bool:
    """Every stage of a normalized pair on both sides; whether it reached
    the density routes (end exponents that pass and a nonzero discriminant)."""
    trop8, trop12 = newton_polygon(g.g8), newton_polygon(g.g12)
    old8, old12 = ref.newton_polygon(g.g8), ref.newton_polygon(g.g12)
    assert (polygon(trop8), polygon(trop12)) == (old8, old12)
    ends = same(lambda: end_exponents(trop8, trop12), lambda: ref.end_exponents(old8, old12))
    if not isinstance(ends, EndExponents):
        return False
    same(lambda: end_surface_data(g, ends, (trop8, trop12)),
         lambda: ref.end_surface_data(g, ends, (old8, old12)), surfaces)
    delta = g.discriminant24()
    if not delta:
        return False
    trop_d, old_d = newton_polygon(delta), ref.newton_polygon(delta)
    assert polygon(trop_d) == old_d
    positions = cut_positions(trop_d, ends)
    assert cut(positions) == ref.cut_positions(old_d, ends)
    same(lambda: density_from_positions(positions),
         lambda: ref.density_from_positions(ref.cut_positions(old_d, ends)), density)
    fn = outcome(lambda: density_profile(trop_d, trop8, trop12, ends))
    want = outcome(lambda: ref.density_profile(old_d, old8, old12, ends))
    assert (density(fn) if isinstance(fn, DensityFunction) else fn) == want
    if isinstance(fn, DensityFunction):
        assert emit_svg(fn) == ref.emit_svg(fn.breakpoints)
        # what is handed out is a Fraction, as it was
        handed = [v for _, v in fn.breakpoints + trop_d.hull] + list(positions.positions)
        assert all(type(x) is Fraction for x in handed)
    return True


@settings(derandomize=True, deadline=None, max_examples=100)
@given(forms(8, degenerating=True), forms(12, degenerating=True))
def test_degenerating_pairs_match_the_fraction_routines(g8, g12):
    # end exponents that pass, and the pair's own discriminant
    pair = FamilyPair(g8, g12).normalized()
    compare_family(pair)


@st.composite
def cut_data(draw):
    """Clamped positions in [-1, w_plus], many of them repeated at -1, 0 and
    w_plus, and a level."""
    w_plus = draw(_SPEED)
    ends = st.sampled_from((Fraction(-1), Fraction(0), w_plus))
    inside = st.sampled_from([x for x in (Fraction(k, 12) for k in range(-12, 37)) if x <= w_plus])
    xs = draw(st.lists(ends | inside, min_size=24, max_size=24))
    return ref.CutData(tuple(sorted(xs)), w_plus, draw(_RATIONAL))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cut_data())
def test_position_route_matches_the_fraction_routine(c):
    same(lambda: density_from_positions(CutData(*c)),
         lambda: ref.density_from_positions(c), density)


@st.composite
def breakpoints(draw):
    """Breakpoints of a concave PL function with integer slopes, with
    repeated and collinear points, or arbitrary rational points, which most
    often fail one of the checks."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(_RATIONAL, _RATIONAL), max_size=6))
    ws = sorted(draw(st.sets(_RATIONAL, min_size=2, max_size=6)))
    slopes = sorted(draw(st.lists(st.integers(-12, 12), min_size=len(ws) - 1,
                                  max_size=len(ws) - 1)), reverse=True)
    pts = [(ws[0], draw(_RATIONAL))]
    for w, s in zip(ws[1:], slopes):
        pts.append((w, pts[-1][1] + s * (w - pts[-1][0])))
    repeat = draw(st.integers(0, len(pts) - 1))
    return pts[: repeat + 1] + pts[repeat:]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(breakpoints())
@example([])
@example([(0, 0), (1, 1), (1, 2)])
@example([(0, 0), (2, 1), (1, 0)])
@example([(0, 0), (1, Fraction(1, 2))])
@example([(0, 0), (1, 0), (2, 5)])
@example([(-3, 1), (-2, 4), (-1, 5)])  # its right end lies left of 0
@example([(-1, 0), (0, 0)])  # its right end is 0
@example([(0, 0), (0, 0)])  # one breakpoint once the two merge: refused
def test_density_function_matches_the_fraction_checks(pts):
    fn = same(lambda: DensityFunction(pts), lambda: ref.density(pts), density)
    if isinstance(fn[0], type):
        return
    fn, (bps, _) = DensityFunction(pts), fn
    assert (max(v for _, v in fn.breakpoints), fn.min_value()) == (
        max(v for _, v in bps), min(v for _, v in bps))
    same(fn.unit_breakpoints, lambda: ref.unit_breakpoints(bps))
    same(lambda: emit_svg(fn), lambda: ref.emit_svg(bps))
    # every breakpoint, the midpoints between them and one point past each end
    ws = [w for w, _ in bps] + [(w1 + w2) / 2 for (w1, _), (w2, _) in zip(bps, bps[1:])]
    for w in ws + [bps[0][0] - 1, bps[-1][0] + 1]:
        same(lambda: fn.value_at(w), lambda: ref.value_at(bps, w))
    others = [fn, DensityFunction([(0, 0), (Fraction(1, 2), 3), (1, 0)])]
    if bps[-1][0]:
        # a right end left of 0 makes the reflection's denominator negative,
        # and its breakpoints come out in descending order
        flipped = same(fn.reflected, lambda: ref.reflected(bps), density)
        if not isinstance(flipped[0], type):
            others.append(fn.reflected())
    else:
        # a right end at 0 divides by 0
        with pytest.raises(ZeroDivisionError):
            fn.reflected()
    for other in others:
        same(lambda: same_up_to_scale(fn, other),
             lambda: ref.same_up_to_scale(bps, other.breakpoints))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(forms(8), _RATIONAL, _RATIONAL, st.integers(0, 8))
def test_stretched_limit_matches_the_fraction_routine(f, e, level, degree):
    same(lambda: f.stretched_limit(e, level, degree),
         lambda: ref.stretched_limit(f, e, level, degree))


# ---------------------------------------------------------------------------
# corpus-100 and the named families in four charts
# ---------------------------------------------------------------------------


def test_corpus_and_named_families_match_the_fraction_routines(named, corpus):
    families = [*corpus, *named.values()]
    compared = sum(compare_family(h.normalized()) for f in families for h in charts(f))
    # d_constant alone, in its four charts, has no discriminant polygon
    assert compared == 4 * (len(families) - 1)


@pytest.mark.parametrize("pts", [
    [(-1, 0), (0, 9), (1, 0)],
    [(-1, 14), (1, 26)],
    [(Fraction(-1, 3), 0), (0, 2), (Fraction(1, 2), Fraction(5, 2)), (1, 0)],
    [(0, 0), (1, 0)],
    [(0, Fraction(-1, 2)), (1, Fraction(-3, 2))],  # no positive value, over 2
])
def test_svg_coordinates_are_the_floats_of_the_fraction_expressions(pts):
    fn = DensityFunction(pts)
    assert emit_svg(fn) == ref.emit_svg(fn.breakpoints)
