"""The report side as it was computed on Fractions, one operation at a time:
Newton polygons, root valuations, end exponents, the clamp, the clamped
positions, both density routes, the DensityFunction checks and queries, the
stretched limit, the end surfaces and the SVG emitter's pixel coordinates.

src/k3seg computes all of these on integer numerators over one denominator
and builds Fractions only where a value is handed out. This module keeps the
Fraction routines as references for that rewrite: tests/test_integer_report.py
compares the two on random polygons, on corpus-100 in four charts and on the
named families. Tier-1 does not collect it (its name does not start with
test_). A polygon here is a Polygon (degree, hull) with Fraction heights,
built from hull_points by this module's own hull.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from k3seg.errors import DegreeError, NegativeDensityError, UnrecognizedCuspError
from k3seg.symalg import INF, NEG_INF, SForm
from k3seg.symalg.field import spow

_ZERO = Fraction(0)


class Polygon(NamedTuple):
    degree: int
    hull: tuple


class CutData(NamedTuple):
    positions: tuple
    w_plus: Fraction
    level: Fraction


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def lower_hull(points: list) -> list:
    hull: list = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def hull_points(f: SForm) -> list:
    """(i, valuation of the s^i coefficient) for every nonzero coefficient."""
    return [(i, f.low + k * f.step) for i, k in f.index_points()]


def newton_polygon(f: SForm) -> Polygon:
    return Polygon(f.degree, tuple(lower_hull(hull_points(f))))


def eval_at(poly: Polygon, a) -> Fraction:
    a = Fraction(a)
    return min(v + i * a for i, v in poly.hull)


def slopes(poly: Polygon) -> list:
    return [Fraction(v2 - v1, i2 - i1) for (i1, v1), (i2, v2) in zip(poly.hull, poly.hull[1:])]


def root_valuations(poly: Polygon) -> tuple:
    vals: list = [INF] * poly.hull[0][0]
    for (i1, v1), (i2, v2) in zip(poly.hull, poly.hull[1:]):
        vals.extend([Fraction(v1 - v2, i2 - i1)] * (i2 - i1))
    vals.extend([NEG_INF] * (poly.degree - poly.hull[-1][0]))
    return tuple(vals)


def end_exponents(trop8: Polygon | None, trop12: Polygon | None) -> tuple:
    zero_candidates: list = []
    inf_candidates: list = []
    for poly in (trop8, trop12):
        if poly is not None:
            vals = root_valuations(poly)
            half = poly.degree // 2
            zero_candidates.append(vals[half - 1])
            inf_candidates.append(-vals[half])
    e0 = min(zero_candidates)
    einf = min(inf_candidates)
    if e0 <= 0 or einf <= 0:
        raise UnrecognizedCuspError(
            "end exponents (%s, %s) are not both positive; the family does not "
            "degenerate toward the cusp" % (e0, einf)
        )
    if e0 == INF or einf == INF:
        raise UnrecognizedCuspError("an end exponent is infinite")
    return e0, einf


def modified_polygon(trop_d: Polygon, ends) -> Polygon:
    e0, einf = ends
    chain = [(0, eval_at(trop_d, e0))] + list(trop_d.hull)
    chain.append((24, 24 * einf + eval_at(trop_d, -einf)))
    return Polygon(24, tuple(lower_hull(chain)))


def cut_positions(trop_d: Polygon, ends) -> CutData:
    e0, einf = ends
    xs = tuple(-v / e0 for v in root_valuations(modified_polygon(trop_d, ends)))
    return CutData(xs, einf / e0, trop_d.hull[-1][1] / e0)


def density(breakpoints) -> tuple:
    """DensityFunction.__init__: the canonical breakpoints and the slopes."""
    pts = [(Fraction(w), Fraction(v)) for w, v in breakpoints]
    merged: list = []
    for p in pts:
        if merged and merged[-1][0] == p[0]:
            if merged[-1][1] != p[1]:
                raise ValueError("two values at position %s" % (p[0],))
            continue
        while len(merged) >= 2 and _cross(merged[-2], merged[-1], p) == 0:
            merged.pop()
        merged.append(p)
    if len(merged) < 2:
        raise ValueError("a density function needs at least two breakpoints")
    found = []
    for (w1, v1), (w2, v2) in zip(merged, merged[1:]):
        if w2 <= w1:
            raise ValueError("breakpoints out of order")
        found.append(Fraction(v2 - v1, w2 - w1))
    for s in found:
        if s.denominator != 1:
            raise ValueError("non-integer slope %s" % s)
    for s1, s2 in zip(found, found[1:]):
        if s2 >= s1:
            raise ValueError("slopes must strictly decrease (%s then %s)" % (s1, s2))
    return tuple(merged), tuple(s.numerator for s in found)


def value_at(breakpoints, w) -> Fraction:
    w = Fraction(w)
    lo, hi = breakpoints[0][0], breakpoints[-1][0]
    if not lo <= w <= hi:
        raise ValueError("%s outside domain [%s, %s]" % (w, lo, hi))
    for (w1, v1), (w2, v2) in zip(breakpoints, breakpoints[1:]):
        if w <= w2:
            return v1 + (v2 - v1) * (w - w1) / (w2 - w1)
    return breakpoints[-1][1]


def unit_breakpoints(breakpoints) -> list:
    lo, hi = breakpoints[0][0], breakpoints[-1][0]
    return [((w - lo) / (hi - lo), v) for w, v in breakpoints]


def reflected(breakpoints) -> tuple:
    wp = breakpoints[-1][0]
    return density([(-w / wp, v / wp) for w, v in reversed(breakpoints)])


def same_up_to_scale(a, b) -> bool:
    pa, pb = unit_breakpoints(a), unit_breakpoints(b)
    ma = max(v for _, v in pa)
    mb = max(v for _, v in pb)
    if ma == 0 or mb == 0:
        return ma == mb and [x for x, _ in pa] == [x for x, _ in pb]
    if len(pa) != len(pb):
        return False
    return all(xa == xb and va * mb == vb * ma for (xa, va), (xb, vb) in zip(pa, pb))


def envelope(trop8: Polygon, trop12: Polygon) -> Polygon:
    heights: dict = {}
    for c, poly in ((3, trop8), (2, trop12)):
        for i, v in poly.hull:
            heights[c * i] = min(c * v, heights.get(c * i, c * v))
    return Polygon(24, tuple(lower_hull(sorted(heights.items()))))


def density_profile(trop_d: Polygon, trop8: Polygon, trop12: Polygon, ends) -> tuple:
    e0, einf = ends
    env = envelope(trop8, trop12)
    bends = {-slope for poly in (trop_d, env) for slope in slopes(poly)}
    grid = sorted({a for a in bends if -einf < a < e0} | {-einf, e0})
    points = [
        (-a / e0, (eval_at(trop_d, a) - eval_at(env, a)) / e0) for a in reversed(grid)
    ]
    fn = density(points)
    low = min(v for _, v in fn[0])
    if low < 0:
        raise NegativeDensityError(
            "density dips to %s; the family violates the construction's hypotheses" % low
        )
    return fn


def density_from_positions(c) -> tuple:
    xs = c.positions
    grid = sorted({Fraction(-1), c.w_plus} | set(xs))
    w = grid[0]
    v = 12 * w + c.level
    for x in xs:
        v -= max(w, x) if x < 0 else max(0, w - x)
    points = [(w, v)]
    below = 0
    for w2 in grid[1:]:
        while below < len(xs) and xs[below] <= w:
            below += 1
        v += (12 - below) * (w2 - w)
        w = w2
        points.append((w, v))
    return density(points)


def stretched_limit(f: SForm, e, level, degree: int) -> SForm:
    step = f.step or 1
    k0, dk = (level - f.low) / step, Fraction(e) / step
    m = math.lcm(k0.denominator, dk.denominator)
    a, b = k0.numerator * (m // k0.denominator), dk.numerator * (m // dk.denominator)
    column: list = []
    for i, arr in enumerate(f.poly):
        k, r = divmod(a - i * b, m)
        column.append([arr[k]] if not r and 0 <= k < len(arr) and arr[k] else [])
    if any(column[degree + 1 :]):
        raise DegreeError("the limit has a nonzero coefficient past s^%d" % degree)
    return SForm._of(degree, _ZERO, _ZERO, f.num, f.den, column[: degree + 1])


def is_nodal(g4: SForm, g6: SForm) -> bool:
    return (
        spow(g4.poly, 3) == spow(g6.poly, 2)
        and g4.num**3 * g6.den**2 == 27 * g6.num**2 * g4.den**3
    )


def end_surface_data(f, ends, polygons) -> tuple:
    """Both end surfaces as (g4, g6, is_nodal) triples."""
    e0, einf = ends
    out = []
    for g8, g12, e, (mu8, mu12) in (
        (f.g8, f.g12, e0, [eval_at(p, e0) for p in polygons]),
        (f.g8.inverted(), f.g12.inverted(), einf,
         [p.degree * einf + eval_at(p, -einf) for p in polygons]),
    ):
        c = min(mu8 / 2, mu12 / 3)
        try:
            g4 = stretched_limit(g8, e, 2 * c, 4)
            g6 = stretched_limit(g12, e, 3 * c, 6)
        except DegreeError:
            raise UnrecognizedCuspError(
                "end-surface limit does not fit in degrees (4, 6); "
                "the end exponents do not govern this family"
            ) from None
        out.append((g4, g6, is_nodal(g4, g6)))
    return tuple(out)


def emit_svg(breakpoints) -> bytes:
    """emit_svg on a density's breakpoints: every coordinate a float of an
    exact Fraction expression."""
    lo, hi = breakpoints[0][0], breakpoints[-1][0]
    width, height, margin = 800, 400, 40
    pts = [((w - lo) / (hi - lo), v) for w, v in breakpoints]
    peak = max(v for _, v in pts)
    span = peak if peak > 0 else Fraction(1)

    def px(x: Fraction) -> float:
        return float(margin + x * (width - 2 * margin))

    def py(v: Fraction) -> float:
        return float(height - margin - (v / span) * (height - 2 * margin))

    chunks = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (width, height),
        '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#999" stroke-width="1"/>'
        % (px(Fraction(0)), py(Fraction(0)), px(Fraction(1)), py(Fraction(0))),
    ]
    axis_y = py(Fraction(0))
    for x, _ in pts:
        chunks.append(
            '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#999" stroke-width="1"/>'
            % (px(x), axis_y - 4, px(x), axis_y + 4)
        )
        chunks.append(
            '<text x="%.3f" y="%.3f" font-size="12" text-anchor="middle">%s</text>'
            % (px(x), axis_y + 18, x)
        )
    chunks.append(
        '<polyline fill="none" stroke="#06c" stroke-width="2" points="%s"/>'
        % " ".join("%.3f,%.3f" % (px(x), py(v)) for x, v in pts)
    )
    for x, v in pts:
        chunks.append(
            '<circle cx="%.3f" cy="%.3f" r="4" fill="#d33"/>' % (px(x), py(v))
        )
        chunks.append(
            '<text x="%.3f" y="%.3f" font-size="12" text-anchor="middle">%s</text>'
            % (px(x), py(v) - 8, v)
        )
    chunks.append("</svg>")
    return "".join(chunks).encode("ascii")
