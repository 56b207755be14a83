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

Reporting happens in unit coordinates: the domain is rescaled affinely onto
[0, 1] while values are kept as they are (V is only meaningful up to positive
scale anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CuspidalInteriorError, NegativeDensityError
from .symalg.forms import INF, NEG_INF, SForm
from .tropics import (
    EndExponents,
    TropicalPolynomial,
    _cross,
    _lower_hull,
    modified_polygon,
    newton_polygon,
    root_valuations,
)

Breakpoint = tuple[Fraction, Fraction]


class DensityFunction:
    """A PL function given by its breakpoints (domain endpoints included).

    Breakpoints are canonical: no three consecutive ones are collinear, so two
    functions are equal iff their breakpoint tuples are.
    """

    __slots__ = ("breakpoints", "_slopes")

    def __init__(self, breakpoints):
        pts = [(Fraction(w), Fraction(v)) for w, v in breakpoints]
        if len(pts) < 2:
            raise ValueError("a density function needs at least two breakpoints")
        merged: list[Breakpoint] = []
        for p in pts:
            if merged and merged[-1][0] == p[0]:
                if merged[-1][1] != p[1]:
                    raise ValueError("two values at position %s" % (p[0],))
                continue
            while len(merged) >= 2 and _cross(merged[-2], merged[-1], p) == 0:
                merged.pop()
            merged.append(p)
        slopes = []
        for (w1, v1), (w2, v2) in zip(merged, merged[1:]):
            if w2 <= w1:
                raise ValueError("breakpoints out of order")
            slopes.append(Fraction(v2 - v1, w2 - w1))
        for s in slopes:
            if s.denominator != 1:
                raise ValueError("non-integer slope %s" % s)
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 >= s1:
                raise ValueError("slopes must strictly decrease (%s then %s)" % (s1, s2))
        self.breakpoints = tuple(merged)
        self._slopes = tuple(s.numerator for s in slopes)

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
        return (
            tuple(w for w, _ in self.breakpoints),
            self._slopes,
        )

    def value_at(self, w) -> Fraction:
        w = Fraction(w)
        if not self.lo <= w <= self.hi:
            raise ValueError("%s outside domain [%s, %s]" % (w, self.lo, self.hi))
        pts = self.breakpoints
        for (w1, v1), (w2, v2) in zip(pts, pts[1:]):
            if w <= w2:
                return v1 + (v2 - v1) * (w - w1) / (w2 - w1)
        return pts[-1][1]

    def max_value(self) -> Fraction:
        return max(v for _, v in self.breakpoints)

    def min_value(self) -> Fraction:
        return min(v for _, v in self.breakpoints)

    def slope_drops(self) -> list[tuple[Fraction, int]]:
        """Interior breakpoints with the (positive) slope decrease at each."""
        s = self._slopes
        return [
            (self.breakpoints[i + 1][0], s[i] - s[i + 1])
            for i in range(len(s) - 1)
        ]

    def unit_breakpoints(self) -> list[Breakpoint]:
        """Breakpoints with the domain rescaled onto [0, 1]; values untouched."""
        span = self.hi - self.lo
        return [((w - self.lo) / span, v) for w, v in self.breakpoints]

    def reflected(self) -> "DensityFunction":
        """The invariant of the coordinate-inverted family: position w maps to
        -w/hi and values divide by hi (both ends swap roles, so the domain
        becomes [-1, 1/hi] and the value normalization follows the new e0)."""
        wp = self.hi
        pts = [(-w / wp, v / wp) for w, v in reversed(self.breakpoints)]
        return DensityFunction(pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        return "DensityFunction(%s)" % (
            ", ".join("(%s, %s)" % (w, v) for w, v in self.breakpoints)
        )


# ---------------------------------------------------------------------------
# clamped root positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutData:
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
    e0 = ends.at_zero
    # root valuations descend and e0 > 0, so the positions ascend
    xs = tuple(-v / e0 for v in root_valuations(modified_polygon(trop_d, ends)))
    return CutData(xs, ends.at_infinity / e0, trop_d.hull[-1][1] / e0)


# ---------------------------------------------------------------------------
# the two constructions
# ---------------------------------------------------------------------------


def _envelope(trop8: TropicalPolynomial, trop12: TropicalPolynomial) -> TropicalPolynomial:
    """min(3*psi8, 2*psi12) as one min-plus polynomial: the hull vertices
    (3i, 3v) of trop8 and (2j, 2w) of trop12, the lower height where 3i = 2j.
    The points off either hull lie above its hull, scaled or not, so they
    could not reach the lower hull of the union."""
    heights: dict[int, Fraction] = {}
    for c, poly in ((3, trop8), (2, trop12)):
        for i, v in poly.hull:
            heights[c * i] = min(c * v, heights.get(c * i, c * v))
    return TropicalPolynomial(24, tuple(_lower_hull(sorted(heights.items()))))


def density_profile(
    trop_d: TropicalPolynomial,
    trop8: TropicalPolynomial,
    trop12: TropicalPolynomial,
    ends: EndExponents,
) -> DensityFunction:
    """V from the Newton polygons of Delta, g8 and g12.

    At a = -w*e0 the function is [psi_Delta(a) - min(3*psi8(a), 2*psi12(a))]/e0,
    taken on w in [-1, w+].
    """
    e0, einf = ends.at_zero, ends.at_infinity
    envelope = _envelope(trop8, trop12)
    bends = {-slope for poly in (trop_d, envelope) for slope in poly.slopes()}
    grid = sorted({a for a in bends if -einf < a < e0} | {-einf, e0})
    points = [(-a / e0, (trop_d.eval_at(a) - envelope.eval_at(a)) / e0) for a in reversed(grid)]
    fn = DensityFunction(points)
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
    certified.
    """
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
    return DensityFunction(points)


def density_cuspidal(quartic: SForm) -> DensityFunction:
    """V for a family whose discriminant vanishes identically.

    The four roots of the extracted quartic must leave toward the two ends in
    two pairs of equal speed: valuations {f0, f0, -finf, -finf} with both
    speeds positive. Then V is constant; the level is set to 1 by convention.
    Any other valuation pattern leaves a root strictly inside, where the
    construction has no defined value.
    """
    vals = root_valuations(newton_polygon(quartic))
    ok = (
        len(vals) == 4
        and vals[0] == vals[1]
        and vals[2] == vals[3]
        and vals[1] not in (INF, NEG_INF)
        and vals[2] not in (INF, NEG_INF)
        and vals[1] > 0
        and vals[2] < 0
    )
    if not ok:
        raise CuspidalInteriorError(
            "quartic root valuations %s do not split into two equal-speed pairs "
            "toward the ends" % (list(vals),)
        )
    f0 = vals[0]
    finf = -vals[3]
    return DensityFunction([(Fraction(-1), Fraction(1)), (finf / f0, Fraction(1))])


# ---------------------------------------------------------------------------
# comparison and output
# ---------------------------------------------------------------------------


def same_up_to_scale(a: DensityFunction, b: DensityFunction) -> bool:
    """True iff the unit-domain graphs differ by a positive constant factor."""
    pa, pb = a.unit_breakpoints(), b.unit_breakpoints()
    ma = max(v for _, v in pa)
    mb = max(v for _, v in pb)
    if ma == 0 or mb == 0:
        return ma == mb and [x for x, _ in pa] == [x for x, _ in pb]
    if len(pa) != len(pb):
        return False
    return all(
        xa == xb and va * mb == vb * ma for (xa, va), (xb, vb) in zip(pa, pb)
    )


def emit_csv(fn: DensityFunction) -> bytes:
    rows = ["%s,%s" % (x, v) for x, v in fn.unit_breakpoints()]
    return "\n".join(rows).encode("ascii")


def emit_svg(fn: DensityFunction) -> bytes:
    width, height, margin = 800, 400, 40
    pts = fn.unit_breakpoints()
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
