"""Exact symbolic layer: forms on P^1 stored as integer kernel arrays, family
pairs, family parsing."""

from .forms import (
    INF,
    NEG_INF,
    FamilyPair,
    SForm,
    TLaurent,
    extract_cusp_quartic,
    minimality_check,
)
from .parse import canonical_text, parse_family
