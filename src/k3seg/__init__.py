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
    end_exponents,
    modified_polygon,
    newton_polygon,
    root_valuations,
)

# the version and every class and function imported above from the package's
# modules, so a name is listed where it is imported (bench/tracer.py wraps the
# functions among them)
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
)
