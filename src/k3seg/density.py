"""The piecewise-linear density invariant of a degenerating family.

The invariant V lives naturally on the interval [-1, w+] with w+ the ratio of
the two end exponents: position w corresponds to the substitution s ~ t^(-w*e0).
Its value is the gap between the valuation growth of the discriminant and the
dominant of the two contributions 3*psi8, 2*psi12, divided by e0. Slopes are
integers, strictly decreasing left to right, and the function is nonnegative.

Two independent constructions are kept side by side on purpose:

  density_profile      builds V from two min-plus polynomials (the primary
                       definition): the discriminant polygon, and the envelope
                       min(3*psi8, 2*psi12) as one polynomial on the hull
                       vertices of g8 and g12; V is evaluated at every slope
                       of either;
  density_from_positions  rebuilds the same shape from the 24 clamped root
                       positions alone (cut_positions reads them off the
                       discriminant polygon with its steep tails clamped), the
                       way a root-tracking measurement would see it.

They must agree bend for bend and slope for slope; the position route carries
its own additive normalization (the top-coefficient level), so values may sit
a constant apart. Collapsing the two routines into one would destroy the
cross-check.

Both routes are pure functions of the Newton polygons and the end exponents,
which the caller derives once per family (report.analyze); nothing here
touches the pair itself. A pair whose discriminant vanishes identically has no
discriminant polygon and takes the cusp-quartic route, density_cuspidal.

Both routes compute on integers: a function's abscissas and values are
numerators over one denominator, which DensityFunction checks, merges and
differences; Fractions are built only where values leave (breakpoints,
unit_breakpoints, CutData). Reporting happens in unit coordinates: the domain
is rescaled onto [0, 1], values are kept (V matters only up to scale).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from .errors import CuspidalInteriorError, NegativeDensityError
from .symalg.forms import INF, NEG_INF, SForm, _numerators
from .tropics import (
    EndExponents,
    TropicalPolynomial,
    _cross,
    _lower_hull,
    modified_polygon,
    newton_polygon,
    root_valuations,
)

class DensityFunction:
    """A PL function given by its breakpoints (domain endpoints included).

    Breakpoints are canonical: no three consecutive ones are collinear, so two
    functions are equal iff their breakpoint tuples are. They are kept as
    integer numerators (W, V) over one positive denominator.
    """

    __slots__ = ("breakpoints", "_den", "_points", "_slopes")

    def __init__(self, breakpoints):
        den, nums = _numerators([Fraction(x) for p in breakpoints for x in p])
        self._set(list(zip(nums[::2], nums[1::2])), den)

    @classmethod
    def _of(cls, points: list, den: int) -> "DensityFunction":
        """The function with breakpoints (W / den, V / den) for (W, V) in points."""
        fn = cls.__new__(cls)
        fn._set(points, den)
        return fn

    def _set(self, points: list, den: int) -> None:
        if den < 0:  # the reflection of a function that ends left of 0
            points, den = [(-w, -v) for w, v in points], -den
        merged: list[tuple[int, int]] = []
        for p in points:
            if merged and merged[-1][0] == p[0]:
                if merged[-1][1] != p[1]:
                    raise ValueError("two values at position %s" % Fraction(p[0], den))
                continue
            while len(merged) >= 2 and _cross(merged[-2], merged[-1], p) == 0:
                merged.pop()
            merged.append(p)
        # after the merge: repeated breakpoints count once
        if len(merged) < 2:
            raise ValueError("a density function needs at least two breakpoints")
        steps = [(v2 - v1, w2 - w1) for (w1, v1), (w2, v2) in zip(merged, merged[1:])]
        if any(dw <= 0 for _, dw in steps):
            raise ValueError("breakpoints out of order")
        # the denominator cancels: a slope is a quotient of numerator differences
        for dv, dw in steps:
            if dv % dw:
                raise ValueError("non-integer slope %s" % Fraction(dv, dw))
        slopes = tuple(dv // dw for dv, dw in steps)
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 >= s1:
                raise ValueError("slopes must strictly decrease (%s then %s)" % (s1, s2))
        self._den, self._points, self._slopes = den, tuple(merged), slopes
        self.breakpoints = tuple((Fraction(w, den), Fraction(v, den)) for w, v in merged)

    # -- inspection ------------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0][0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1][0]

    def slopes(self) -> list[int]:
        return list(self._slopes)

    def slope_profile(self) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """Breakpoint abscissas plus the slope between each adjacent pair.

        Two functions share a profile exactly when they differ by an additive
        constant; this is the invariant the two construction routes must agree
        on."""
        return tuple(w for w, _ in self.breakpoints), self._slopes

    def value_at(self, w) -> Fraction:
        w = Fraction(w)
        if not self.lo <= w <= self.hi:
            raise ValueError("%s outside domain [%s, %s]" % (w, self.lo, self.hi))
        # over den * d, w is x and the segment from (w1, v1) has v1 + slope * (w - w1)
        d, x, pts = w.denominator, w.numerator * self._den, self._points
        for (w1, v1), s, (w2, _) in zip(pts, self._slopes, pts[1:]):
            if x <= w2 * d:
                break
        return Fraction(v1 * d + s * (x - w1 * d), self._den * d)

    def min_value(self) -> Fraction:
        return Fraction(min(v for _, v in self._points), self._den)

    def slope_drops(self) -> list[tuple[Fraction, int]]:
        """Interior breakpoints with the (positive) slope decrease at each."""
        s = self._slopes
        return [(w, s1 - s2) for (w, _), s1, s2 in zip(self.breakpoints[1:], s, s[1:])]

    def unit_breakpoints(self) -> list[tuple[Fraction, Fraction]]:
        """Breakpoints with the domain rescaled onto [0, 1]; values untouched."""
        pts = self._points
        lo, span = pts[0][0], pts[-1][0] - pts[0][0]
        return [(Fraction(w - lo, span), v) for (w, _), (_, v) in zip(pts, self.breakpoints)]

    def reflected(self) -> "DensityFunction":
        """The invariant of the coordinate-inverted family: position w maps to
        -w/hi and values divide by hi (both ends swap roles, so the domain
        becomes [-1, 1/hi] and the value normalization follows the new e0):
        over hi's numerator, the numerators -W and V."""
        pts = self._points
        return DensityFunction._of([(-w, v) for w, v in reversed(pts)], pts[-1][0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        return "DensityFunction(%s)" % ", ".join("(%s, %s)" % p for p in self.breakpoints)


# ---------------------------------------------------------------------------
# clamped root positions
# ---------------------------------------------------------------------------


class CutData(NamedTuple):
    """The 24 discriminant-root positions after clamping to [-1, w_plus],
    sorted ascending, and the valuation level of the top discriminant
    coefficient divided by e0. Which positions are negative is read off the
    positions themselves."""

    positions: tuple[Fraction, ...]
    w_plus: Fraction
    level: Fraction


def cut_positions(trop_d: TropicalPolynomial, ends: EndExponents) -> CutData:
    """The clamped root positions: the root valuations v of the discriminant
    polygon trop_d with its steep tails clamped, at -v/e0."""
    (n, d), (p, q) = (x.as_integer_ratio() for x in ends)
    # root valuations descend and e0 = n/d > 0, so the positions ascend; one per edge
    xs = []
    for v, run in groupby(root_valuations(modified_polygon(trop_d, ends))):
        xs += [Fraction(-v.numerator * d, v.denominator * n)] * len(list(run))
    level = Fraction(trop_d.vertices[-1][1] * d, trop_d.den * n)
    return CutData(tuple(xs), Fraction(p * d, q * n), level)


# ---------------------------------------------------------------------------
# the two constructions
# ---------------------------------------------------------------------------


def _envelope(trop8: TropicalPolynomial, trop12: TropicalPolynomial) -> TropicalPolynomial:
    """min(3*psi8, 2*psi12) as one min-plus polynomial: the hull vertices
    (3i, 3v) of trop8 and (2j, 2w) of trop12, the lower height where 3i = 2j,
    over the lcm of the two denominators. The points off either hull lie
    above its hull, scaled or not, so they could not reach the lower hull of
    the union."""
    den = math.lcm(trop8.den, trop12.den)
    heights: dict[int, int] = {}
    for c, poly in ((3, trop8), (2, trop12)):
        k = c * (den // poly.den)
        for i, h in poly.vertices:
            heights[c * i] = min(k * h, heights.get(c * i, k * h))
    return TropicalPolynomial._of(24, den, _lower_hull(sorted(heights.items())))


def density_profile(
    trop_d: TropicalPolynomial,
    trop8: TropicalPolynomial,
    trop12: TropicalPolynomial,
    ends: EndExponents,
) -> DensityFunction:
    """V from the Newton polygons of Delta, g8 and g12.

    At a = -w*e0 the function is [psi_Delta(a) - min(3*psi8(a), 2*psi12(a))]/e0,
    taken on w in [-1, w+]. Every a, e0 and einf is an integer over den, the
    lcm of the denominators of the bends, the heights and the end exponents:
    with A = den * a, w is -A / (den * e0) and V is over den * e0 too.
    """
    envelope = _envelope(trop8, trop12)
    # the bend -slope of each edge, as (numerator, denominator)
    bends = [(h1 - h2, (i2 - i1) * p.den) for p in (trop_d, envelope)
             for (i1, h1), (i2, h2) in zip(p.vertices, p.vertices[1:])]
    den, (e0, einf) = _numerators(ends, trop_d.den, envelope.den, *(d for _, d in bends))
    grid = sorted({a for a in (n * (den // d) for n, d in bends) if -einf < a < e0} | {-einf, e0})
    points = [(-a, trop_d.min_at(a, den) - envelope.min_at(a, den)) for a in reversed(grid)]
    fn = DensityFunction._of(points, e0)
    if fn.min_value() < 0:
        raise NegativeDensityError(
            "density dips to %s; the family violates the construction's hypotheses"
            % fn.min_value()
        )
    return fn


def density_from_positions(c: CutData) -> DensityFunction:
    """The same shape rebuilt from clamped positions only.

    The value at w is  12w + level - sum_{x_j < 0} max(w, x_j)
    - sum_{x_j >= 0} max(0, w - x_j), so each segment has slope
    12 - #{x_j < w}. The formula is evaluated once, at the left end, and the
    grid is walked from there with the slope 12 - #{x_j <= w1} on each
    segment [w1, w2] (no position lies strictly inside one). The additive
    level is carried along as computed but only the slope profile is
    certified. All of it runs over den, the lcm of the denominators.
    """
    den, (w_plus, level, *xs) = _numerators((c.w_plus, c.level, *c.positions))
    grid = sorted({-den, w_plus} | set(xs))
    w = grid[0]
    v = 12 * w + level
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
    return DensityFunction._of(points, den)


def density_cuspidal(quartic: SForm) -> DensityFunction:
    """V for a family whose discriminant vanishes identically.

    The four roots of the extracted quartic must leave toward the two ends in
    two pairs of equal speed: valuations {f0, f0, -finf, -finf} with both
    speeds positive. Then V is constant; the level is set to 1 by convention.
    Any other valuation pattern leaves a root strictly inside, where the
    construction has no defined value.
    """
    vals = root_valuations(newton_polygon(quartic))
    if not (len(vals) == 4 and INF != vals[0] == vals[1] > 0 > vals[2] == vals[3] != NEG_INF):
        raise CuspidalInteriorError(
            "quartic root valuations %s do not split into two equal-speed pairs "
            "toward the ends" % (list(vals),)
        )
    # the value 1 on [-1, finf / f0], f0 = vals[0] = n0/d0 and finf = -vals[3]
    (n0, d0), (n3, d3) = vals[0].as_integer_ratio(), vals[3].as_integer_ratio()
    return DensityFunction._of([(-n0 * d3, n0 * d3), (-n3 * d0, n0 * d3)], n0 * d3)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit_csv(fn: DensityFunction) -> bytes:
    rows = ["%s,%s" % (x, v) for x, v in fn.unit_breakpoints()]
    return "\n".join(rows).encode("ascii")


def emit_svg(fn: DensityFunction) -> bytes:
    width, height, margin = 800, 400, 40
    # every coordinate is one int / int division, which rounds the exact value
    # once, as float() of its Fraction does; the axis runs at height - margin
    pts, labels = fn._points, fn.unit_breakpoints()
    top = max(max(v for _, v in pts), 0) or fn._den
    xs = [(margin * x.denominator + x.numerator * (width - 2 * margin)) / x.denominator
          for x, _ in labels]
    ys = [((height - margin) * top - v * (height - 2 * margin)) / top for _, v in pts]
    axis = height - margin
    line = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#999" stroke-width="1"/>'
    text = '<text x="%.3f" y="%.3f" font-size="12" text-anchor="middle">%s</text>'
    chunks = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (width, height),
        line % (margin, axis, width - margin, axis),
    ]
    for x, (u, _) in zip(xs, labels):
        chunks += [line % (x, axis - 4, x, axis + 4), text % (x, axis + 18, u)]
    polyline = " ".join("%.3f,%.3f" % xy for xy in zip(xs, ys))
    chunks.append('<polyline fill="none" stroke="#06c" stroke-width="2" points="%s"/>' % polyline)
    for x, y, (_, v) in zip(xs, ys, labels):
        chunks += ['<circle cx="%.3f" cy="%.3f" r="4" fill="#d33"/>' % (x, y), text % (x, y - 8, v)]
    chunks.append("</svg>")
    return "".join(chunks).encode("ascii")
