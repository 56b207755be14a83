"""Exact symbolic layer: Laurent coefficients, forms on P^1, family parsing."""

from .laurent import INF, NEG_INF, TLaurent
from .forms import (
    FamilyPair,
    SForm,
    extract_cusp_quartic,
    minimality_check,
)
from .parse import canonical_text, parse_family

__all__ = [
    "INF",
    "NEG_INF",
    "TLaurent",
    "FamilyPair",
    "SForm",
    "extract_cusp_quartic",
    "minimality_check",
    "canonical_text",
    "parse_family",
]
