"""Newton polygons of forms over the Laurent base and what they know about
roots: root valuations, the two end exponents of a degenerating family, and
the clamped discriminant polygon.

A polygon is stored as its lower hull alone: one _lower_hull pass builds it,
and every other quantity is read off the hull vertices (evaluation through
eval_at, root valuations through the edges and the two end indices, the clamp
through the two support lines of slopes -e0 and einf). The hull of a form is
built on integer points (i, k) that the form or the discriminant gives
(`index_points`), and only its vertices are mapped once to the heights
low + k*step.

Everything here is exact and runs on integers: heights are numerators over
one denominator per polygon (a divisor of FamilyPair.ramification()), and
Fractions are built only for what is handed out (hull, eval_at, slopes,
root_valuations, the end exponents). The two improper valuations are INF and
NEG_INF (math.inf floats, which compare correctly against Fractions).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import UnrecognizedCuspError, ZeroFormError
from .symalg.forms import INF, NEG_INF, Discriminant, FamilyPair, SForm, _numerators

def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _lower_hull(points: list) -> list:
    hull: list = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


class TropicalPolynomial(NamedTuple):
    """Lower Newton polygon of a form: the vertex chain of the lower convex
    hull of its finite points (index, coefficient valuation). The chain keeps
    the first and last points, and every value of the min-plus polynomial is
    attained at one of its vertices, so the other points carry nothing. A
    vertex (i, h) is the point (i, h / den), den as small as it can be."""

    degree: int
    den: int
    vertices: tuple[tuple[int, int], ...]

    @classmethod
    def _of(cls, degree: int, den: int, vertices: list) -> "TropicalPolynomial":
        g = math.gcd(den, *(h for _, h in vertices))
        return cls(degree, den // g, tuple((i, h // g) for i, h in vertices))

    @property
    def hull(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((i, Fraction(h, self.den)) for i, h in self.vertices)

    def min_at(self, a: int, den: int) -> int:
        """den times the min-plus value at a / den, den a multiple of self.den."""
        k = den // self.den
        return min(h * k + i * a for i, h in self.vertices)

    def eval_at(self, a) -> Fraction:
        """min-plus evaluation: min over hull vertices of height + index * a."""
        den, (a,) = _numerators((Fraction(a),), self.den)
        return Fraction(self.min_at(a, den), den)

    def slopes(self) -> list[Fraction]:
        pts, den = self.vertices, self.den
        return [Fraction(h2 - h1, (i2 - i1) * den) for (i1, h1), (i2, h2) in zip(pts, pts[1:])]


def newton_polygon(p: SForm | Discriminant) -> TropicalPolynomial:
    """The Newton polygon of a nonzero form or discriminant, from its index
    points (i, k), the s^i coefficient of valuation low + k * step. step >= 0,
    so the height is an increasing affine image of k (constant when step = 0,
    where every k is 0): the hull of the points (i, k) has the vertices of the
    hull of the points (i, height)."""
    points = p.index_points()
    if not points:
        raise ZeroFormError("Newton polygon of the zero form")
    den, (low, step) = _numerators((p.low, p.step))
    hull = [(i, low + k * step) for i, k in _lower_hull(points)]
    return TropicalPolynomial._of(p.degree, den, hull)


def root_valuations(poly: TropicalPolynomial) -> tuple:
    """Root valuations of a form, read off its Newton polygon, descending.

    Roots at s = 0 (index gap at the bottom) carry INF, then each hull edge
    gives -slope once per unit of width (slopes increase along the hull),
    and roots at s = infinity (degree drop at the top) carry NEG_INF. The
    total count is always the formal degree of the source form.
    """
    vals: list = [INF] * poly.vertices[0][0]
    for (i1, h1), (i2, h2) in zip(poly.vertices, poly.vertices[1:]):
        vals.extend([Fraction(h1 - h2, (i2 - i1) * poly.den)] * (i2 - i1))
    vals.extend([NEG_INF] * (poly.degree - poly.vertices[-1][0]))
    return tuple(vals)


class EndExponents(NamedTuple):
    at_zero: Fraction
    at_infinity: Fraction


def pair_polygons(f: FamilyPair) -> tuple:
    """Newton polygons of g8 and g12, None for a form that vanishes identically."""
    return tuple(newton_polygon(g) if g else None for g in (f.g8, f.g12))


def end_exponents(
    trop8: TropicalPolynomial | None, trop12: TropicalPolynomial | None
) -> EndExponents:
    """Degeneration speeds toward the two ends of the base of a family, from
    the Newton polygons of its g8 and g12 (None for a form that vanishes
    identically: that side places no constraint).

    With the root valuations of g8 sorted descending as x1 >= ... >= x8 and
    those of g12 as y1 >= ... >= y12, the exponent at the zero end is
    min(x4, y6) and at the infinity end min(-x5, -y7).
    """
    vals = [(root_valuations(p), p.degree // 2) for p in (trop8, trop12) if p is not None]
    e0 = min(v[half - 1] for v, half in vals)
    einf = min(-v[half] for v, half in vals)
    if e0 <= 0 or einf <= 0:
        raise UnrecognizedCuspError(
            "end exponents (%s, %s) are not both positive; the family does not "
            "degenerate toward the cusp" % (e0, einf)
        )
    if e0 == INF or einf == INF:
        raise UnrecognizedCuspError("an end exponent is infinite")
    return EndExponents(e0, einf)


def modified_polygon(trop_d: TropicalPolynomial, ends: EndExponents) -> TropicalPolynomial:
    """The discriminant polygon trop_d with its steep tails clamped.

    The support line of slope -e0 meets index 0 at psi(e0), and the support
    line of slope einf meets index 24 at 24*einf + psi(-einf), psi being
    trop_d's min-plus value. Every hull vertex lies on or above both lines, so
    the lower hull of the hull with those two points added replaces the slopes
    at most -e0 by one slope -e0 edge reaching index 0 and the slopes at least
    einf by one slope einf edge reaching the full degree 24; missing bottom or
    top coefficients are flattened out the same way. Interior slopes are
    untouched, so the result is convex with slopes in [-e0, einf].
    """
    den, (a, b) = _numerators(ends, trop_d.den)
    k = den // trop_d.den
    chain = [(0, trop_d.min_at(a, den)), *((i, h * k) for i, h in trop_d.vertices)]
    chain.append((24, 24 * b + trop_d.min_at(-b, den)))
    return TropicalPolynomial._of(24, den, _lower_hull(chain))
