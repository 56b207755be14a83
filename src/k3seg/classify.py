"""Classification of the t -> 0 limit: which cusp the family heads to, what the
surfaces over the two ends of the density interval look like, and the chain of
D/A/E components of the stable degenerate surface.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .density import DensityFunction
from .errors import DegreeError, InconsistentTypeError, UnrecognizedCuspError
from .symalg.field import sderiv, sgcd
from .symalg.forms import (
    FamilyPair, SForm, _discriminant_rows, _nonminimal, _numerators, extract_cusp_quartic,
)
from .tropics import EndExponents


class CuspKind(enum.Enum):
    """Where the family lands when t reaches 0.

    MAXIMAL: the limit pair is (c1*s^4, c2*s^6) with c1^3 = 27*c2^2 (the most
    degenerate corner). SEGMENT: same monomial shape but c1^3 != 27*c2^2.
    CUSPIDAL: the discriminant vanishes identically and the extracted quartic
    keeps four distinct finite roots in the limit. CUSPIDAL_TO_MAXIMAL: the
    quartic's roots collide or escape. NO_DEGENERATION: the limit is still a
    minimal pair with nonzero discriminant. UNRECOGNIZED: none of the above
    (a coordinate change would be needed before classifying).
    """

    MAXIMAL = "maximal"
    SEGMENT = "segment"
    CUSPIDAL = "cuspidal"
    CUSPIDAL_TO_MAXIMAL = "cuspidal-to-maximal"
    NO_DEGENERATION = "no-degeneration"
    UNRECOGNIZED = "unrecognized"


def cuspidal_kind(quartic: SForm) -> CuspKind:
    """CUSPIDAL when the limit of the cusp quartic G has degree exactly 4 and
    no repeated root (four distinct finite roots), else CUSPIDAL_TO_MAXIMAL."""
    limit = quartic.limit0()
    if limit.s_degree() == 4 and len(sgcd(limit.poly, sderiv(limit.poly))) == 1:
        return CuspKind.CUSPIDAL
    return CuspKind.CUSPIDAL_TO_MAXIMAL


def cusp_type(f: FamilyPair) -> CuspKind:
    """Classify the t = 0 limit of a normalized pair. Inputs the decision tree
    cannot place come back as UNRECOGNIZED, among them a pair with a negative
    t-valuation, which has no t = 0 limit; only an InternalError, which means
    a bug, escapes."""
    if not f.discriminant_rows():
        return cuspidal_kind(extract_cusp_quartic(f))

    try:
        lim8, lim12 = f.g8.limit0(), f.g12.limit0()
    except ValueError:
        return CuspKind.UNRECOGNIZED

    nodal = not _discriminant_rows(lim8, lim12)
    if not nodal and not _nonminimal(lim8, lim12):
        return CuspKind.NO_DEGENERATION

    mono8 = lim8.s_valuation() == lim8.s_degree() == 4
    mono12 = lim12.s_valuation() == lim12.s_degree() == 6
    if mono8 and mono12:
        return CuspKind.MAXIMAL if nodal else CuspKind.SEGMENT
    return CuspKind.UNRECOGNIZED


# ---------------------------------------------------------------------------
# end surfaces
# ---------------------------------------------------------------------------


class EndSurface(NamedTuple):
    """The limit Weierstrass data over one end of the density interval:
    forms of degrees (4, 6) in the stretched coordinate, and whether their
    own discriminant vanishes identically (a generically nodal limit)."""

    g4: SForm
    g6: SForm
    is_nodal: bool


def end_surface_data(
    f: FamilyPair, ends: EndExponents, polygons: tuple
) -> tuple[EndSurface, EndSurface]:
    """The limit surfaces (left, right) toward s = 0 and s = infinity.

    ends holds the end exponents (e0, einf) of f and polygons the Newton
    polygons of its g8 and g12. The base coordinate is stretched by
    s = t^e * sigma with e = e0 (on the right, the inverted forms are
    stretched by einf the same way), which moves the valuation of the s^i
    coefficient to val_i + i*e. The pair is regauged jointly by t^(-2c),
    t^(-3c) with c = min(mu8/2, mu12/3), mu the smallest stretched valuation:
    the min-plus value at e of the polygon on the left, and on the right,
    where the inverted form's points are (d - i, v), d*einf plus its value at
    -einf. The t = 0 limit of the sigma^i coefficient is the coefficient of
    s^i * t^(2c - i*e) (t^(3c - i*e) for g12). With valid end exponents the
    surviving coefficients sit in degrees at most (4, 6), and the limit is
    nodal when the rows of its discriminant, those of a pair of degrees
    (2d, 3d) with d = 2, all vanish.
    """
    den, (a, b) = _numerators(ends, *(p.den for p in polygons))  # mu over den
    out = []
    for g8, g12, e, (mu8, mu12) in (
        (f.g8, f.g12, ends.at_zero, [p.min_at(a, den) for p in polygons]),
        (f.g8.inverted(), f.g12.inverted(), ends.at_infinity,
         [p.degree * b + p.min_at(-b, den) for p in polygons]),
    ):
        c = min(3 * mu8, 2 * mu12)  # 6 * den * c
        try:
            g4 = g8.stretched_limit(e, Fraction(c, 3 * den), 4)
            g6 = g12.stretched_limit(e, Fraction(c, 2 * den), 6)
        except DegreeError:
            raise UnrecognizedCuspError(
                "end-surface limit does not fit in degrees (4, 6); "
                "the end exponents do not govern this family"
            ) from None
        out.append(EndSurface(g4, g6, is_nodal=not _discriminant_rows(g4, g6)))
    return tuple(out)


# ---------------------------------------------------------------------------
# stable types
# ---------------------------------------------------------------------------


class Component(NamedTuple):
    kind: str  # "D", "A" or "E"
    index: int
    charge: int


CHARGE_OFFSET = {"A": 1, "E": 3, "D": 4}


def component(kind: str, index: int) -> Component:
    return Component(kind, index, index + CHARGE_OFFSET[kind])


class StableType(NamedTuple):
    components: tuple[Component, ...]

    def label(self) -> str:
        return " ".join("%s%d" % (c.kind, c.index) for c in self.components)

    def charges(self) -> list[int]:
        return [c.charge for c in self.components]

    def __str__(self):
        return self.label()


def _end_component(m: int, end_value: Fraction) -> Component:
    if end_value == 0:
        k = m - 3
        if not 0 <= k <= 8:
            hint = (
                "; a value of 9 indicates an extended E9-shape limit that this "
                "classification does not cover" if k == 9 else ""
            )
            raise InconsistentTypeError("E-component index %d outside [0, 8]%s" % (k, hint))
        return component("E", k)
    k = m - 4
    if k < 0:
        raise InconsistentTypeError("D-component index %d is negative" % k)
    return component("D", k)


def stable_type(fn: DensityFunction) -> StableType:
    """Read the D/A/E chain off a density function.

    The end multiplicities are 12 -/+ the first/last slope; an end with V = 0
    is an E-component (index m-3), otherwise a D-component (index m-4). Every
    interior breakpoint contributes an A-component with index one less than
    its slope drop. The charges total 24 for every density function: the
    ends carry m_left = 12 - s_0 and m_right = 12 + s_last, the A-components
    the slope drops, and those sum to s_0 - s_last.
    """
    slopes = fn.slopes()
    m_left = 12 - slopes[0]
    m_right = 12 + slopes[-1]
    parts = [_end_component(m_left, fn.breakpoints[0][1])]
    for _, drop in fn.slope_drops():
        parts.append(component("A", drop - 1))
    parts.append(_end_component(m_right, fn.breakpoints[-1][1]))
    return StableType(tuple(parts))
