"""End-to-end analysis of one family, collected into a JSON-friendly record.

The pipeline: normalize the gauge, reject non-minimal input, classify the
t = 0 limit, build the density function (two independent routes when the
discriminant is not identically zero, the quartic route when it is), read off
the stable type and its lattice, and compute both end surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classify import CuspKind, EndSurface, StableType, end_surface_data, stable_type
from .density import (
    DensityFunction,
    cut_positions,
    density_cuspidal,
    density_from_positions,
    density_profile,
)
from .errors import InternalError, ZeroFormError
from .lattices import Lattice, root_determinant, stable_type_lattice
from .symalg import FamilyPair, canonical_text, extract_cusp_quartic, minimality_check
from .tropics import EndExponents, end_exponents, newton_polygon, pair_polygons


@dataclass(frozen=True)
class AnalysisReport:
    source: str
    normalization_shift: Fraction
    ramification: int
    cusp: CuspKind
    ends_exp: EndExponents
    polygons: dict
    density: DensityFunction
    stable: StableType
    lattice: Lattice
    left_end: EndSurface
    right_end: EndSurface

    def to_dict(self) -> dict:
        fn = self.density
        return {
            "input": self.source,
            "normalization_shift": str(self.normalization_shift),
            "ramification": self.ramification,
            "cusp_kind": self.cusp.value,
            "end_exponents": {
                "at_zero": str(self.ends_exp.at_zero),
                "at_infinity": str(self.ends_exp.at_infinity),
            },
            "newton_polygons": {
                name: None if hull is None else [[str(i), str(v)] for i, v in hull]
                for name, hull in self.polygons.items()
            },
            "density": {
                "domain": [str(fn.lo), str(fn.hi)],
                "breakpoints": [[str(w), str(v)] for w, v in fn.breakpoints],
                "unit_breakpoints": [[str(x), str(v)] for x, v in fn.unit_breakpoints()],
                "slopes": fn.slopes(),
            },
            "stable_type": self.stable.label(),
            "charges": list(self.stable.charges()),
            "lattice": {
                "name": self.lattice.name,
                "rank": self.lattice.rank,
                # the lattice is the direct sum of the components' root lattices
                "determinant": math.prod(
                    root_determinant(c.kind, c.index) for c in self.stable.components
                ),
            },
            "ends": {
                "left_nodal": self.left_end.is_nodal,
                "right_nodal": self.right_end.is_nodal,
            },
            # kept, always empty, so that reports keep their bytes
            "warnings": [],
        }


def derive(f: FamilyPair) -> tuple:
    """What analyze and oracle_compare read off a family, derived once and
    refused in one order: the normalized pair (NotMinimalError), the Newton
    polygons of g8 and g12, the end exponents (UnrecognizedCuspError), a zero
    g8 or g12 (ZeroFormError), and the discriminant's polygon, None when the
    discriminant vanishes identically. Returned as (pair, trop8, trop12,
    ends, trop_d)."""
    g = f.normalized()
    minimality_check(g)
    polygons = pair_polygons(g)
    ends = end_exponents(*polygons)
    if None in polygons:  # a zero form passes the end exponents
        raise ZeroFormError("Newton polygon of the zero form")
    d = g.discriminant_rows()
    return g, *polygons, ends, newton_polygon(d) if d else None


def analyze(f: FamilyPair) -> AnalysisReport:
    """Run the full pipeline on a (possibly unnormalized) family: derive's
    data, and the cusp quartic G once when the discriminant vanishes
    identically."""
    g, trop8, trop12, ends_exp, trop_d = derive(f)
    if trop_d is None:
        quartic = extract_cusp_quartic(g)
        # density_cuspidal takes only root valuations (f0, f0, -finf, -finf) with
        # f0, finf > 0; G has valuation 0, so its limit c*s^2 has degree 2 < 4
        kind = CuspKind.CUSPIDAL_TO_MAXIMAL
        fn = density_cuspidal(quartic)
    else:
        # e0, einf > 0: the g8 and g12 polygons fall strictly to index 4 and 6
        # and then rise, so the t = 0 limits are c1*s^4 and c2*s^6. V is concave
        # and >= 0 with V(0) = val(delta) / e0, so c1^3 != 27*c2^2 gives V = 0:
        # E9 ends, refused by stable_type. So a report's cusp is maximal.
        kind = CuspKind.MAXIMAL
        fn = density_profile(trop_d, trop8, trop12, ends_exp)
        other = density_from_positions(cut_positions(trop_d, ends_exp))
        if other.slope_profile() != fn.slope_profile():
            raise InternalError(
                "density routes disagree on the slope profile: %r vs %r"
                % (fn, other)
            )

    st = stable_type(fn)
    lat = stable_type_lattice(st)
    left, right = end_surface_data(g, ends_exp, (trop8, trop12))
    for side, end, (_, value) in (
        ("left", left, fn.breakpoints[0]), ("right", right, fn.breakpoints[-1])
    ):
        if (value == 0) == end.is_nodal:
            raise InternalError("%s end: density endpoint disagrees with the nodal test" % side)

    source = f.source_text
    if not source:
        try:
            source = canonical_text(f)
        except ValueError:
            source = ""

    return AnalysisReport(
        source=source,
        normalization_shift=g.shift,
        ramification=g.ramification(),
        cusp=kind,
        ends_exp=ends_exp,
        polygons={"g8": trop8.hull, "g12": trop12.hull, "delta": trop_d and trop_d.hull},
        density=fn,
        stable=st,
        lattice=lat,
        left_end=left,
        right_end=right,
    )
