"""Exact degeneration analysis for one-parameter Weierstrass families of
elliptic K3 surfaces: piecewise-linear density invariants, D/A/E stable
types, root lattices, boundary strata, and a floating-point cross-check."""

__version__ = "0.1.0"

from .classify import (
    Component,
    CuspKind,
    EndSurface,
    StableType,
    component,
    cusp_type,
    end_surface_data,
    stable_type,
)
from .corpus import generate_corpus
from .density import (
    CutData,
    DensityFunction,
    cut_positions,
    density_cuspidal,
    density_from_positions,
    density_profile,
    emit_csv,
    emit_svg,
    same_up_to_scale,
)
from .errors import K3SegError
from .lattices import (
    Lattice,
    count_norm_vectors,
    direct_sum,
    gm_weights,
    root_lattice,
    segment_lattice,
    stable_type_lattice,
    wps_weights,
)
from .moduli import (
    Stratum,
    chamber_count,
    degeneration_check,
    enumerate_codim2,
    enumerate_divisors,
    normalization_preimage_count,
)
from .oracle import OracleReport, empirical_positions, oracle_compare, roots_at
from .report import AnalysisReport, analyze
from .symalg import (
    FamilyPair,
    SForm,
    TLaurent,
    canonical_text,
    extract_cusp_quartic,
    minimality_check,
    parse_family,
)
from .tropics import (
    EndExponents,
    TropicalPolynomial,
    discriminant_polygon,
    end_exponents,
    modified_polygon,
    newton_polygon,
    root_valuations,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "Component",
    "CuspKind",
    "CutData",
    "DensityFunction",
    "EndExponents",
    "EndSurface",
    "FamilyPair",
    "K3SegError",
    "Lattice",
    "OracleReport",
    "SForm",
    "StableType",
    "Stratum",
    "TLaurent",
    "TropicalPolynomial",
    "analyze",
    "canonical_text",
    "chamber_count",
    "component",
    "count_norm_vectors",
    "cusp_type",
    "cut_positions",
    "degeneration_check",
    "density_cuspidal",
    "density_from_positions",
    "density_profile",
    "direct_sum",
    "discriminant_polygon",
    "emit_csv",
    "emit_svg",
    "empirical_positions",
    "end_exponents",
    "end_surface_data",
    "enumerate_codim2",
    "enumerate_divisors",
    "extract_cusp_quartic",
    "generate_corpus",
    "gm_weights",
    "minimality_check",
    "modified_polygon",
    "newton_polygon",
    "normalization_preimage_count",
    "oracle_compare",
    "parse_family",
    "root_lattice",
    "root_valuations",
    "roots_at",
    "same_up_to_scale",
    "segment_lattice",
    "stable_type",
    "stable_type_lattice",
    "wps_weights",
]
