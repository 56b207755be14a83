"""Boundary strata of the compactified moduli of these elliptic K3 families.

Strata are indexed by chains of D/A/E components whose charges total 24; the
two end charges are implicit in the chain label. Codimension 1 and 2 are
enumerated explicitly (the counts are small), and degeneration_check tests the
necessary arithmetic for one stratum to lie in the closure of another.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import Component, StableType, component


class Stratum(NamedTuple):
    label: str
    codim: int
    is_nonnormal_locus: bool
    params: tuple[int, ...]


def _stratum(kinds: str, indices: tuple[int, ...], codim: int, nonnormal: bool = False) -> Stratum:
    label = StableType(tuple(map(component, kinds, indices))).label()
    return Stratum(label, codim, nonnormal, indices)


def enumerate_divisors() -> list[Stratum]:
    """Codimension-1 strata: 45 of shape E A E (canonicalized k1 <= k3 under
    the left-right flip) and 9 of shape E D, 54 in all."""
    out = []
    for k1 in range(9):
        for k3 in range(k1, 9):
            k2 = 17 - k1 - k3
            out.append(_stratum("EAE", (k1, k2, k3), 1))
    for k in range(9):
        out.append(_stratum("ED", (k, 17 - k), 1))
    return out


def enumerate_codim2() -> list[Stratum]:
    """Codimension-2 strata (component indices sum to 16), modulo reversal.

    Shapes: E A A E, E A D, and D D. The non-normal loci are the nine E A D
    strata whose D-index is 0 together with D0 D16.
    """
    out = []
    for k1 in range(9):
        for k4 in range(k1, 9):
            for k2 in range(17 - k1 - k4):
                k3 = 16 - k1 - k4 - k2
                if k1 < k4 or k2 <= k3:
                    out.append(_stratum("EAAE", (k1, k2, k3, k4), 2))
    for k1 in range(9):
        for k2 in range(17 - k1):
            k3 = 16 - k1 - k2
            out.append(_stratum("EAD", (k1, k2, k3), 2, nonnormal=(k3 == 0)))
    for k in range(9):
        out.append(_stratum("DD", (k, 16 - k), 2, nonnormal=(k == 0)))
    return out


def normalization_preimage_count() -> int:
    """Components of the normalization over the non-normal codim-2 loci: each
    of the 10 loci is a double locus, 18 + 2 = 20 upstairs."""
    doubled = [s for s in enumerate_codim2() if s.is_nonnormal_locus]
    return 2 * len(doubled)


def chamber_count() -> int:
    """Maximal chambers of the relevant reflection-domain wall arrangement:
    3^(1+1) = 9."""
    return 3 ** (1 + 1)


def degeneration_check(parent: StableType, children: list[list[Component]]) -> bool:
    """Necessary conditions for the parent's components to degenerate into the
    given child chains (one chain per parent component, in order).

    Per slot: child charges must add up to the parent component's charge and
    child indices must not exceed its index; an A component can only split
    into A's, an E component keeps exactly one non-A child (E or D), and a D
    component keeps exactly one D child and never gains an E.
    """
    if len(children) != len(parent.components):
        return False
    for comp, chain in zip(parent.components, children):
        if sum(c.charge for c in chain) != comp.charge:
            return False
        if sum(c.index for c in chain) > comp.index:
            return False
        kinds = [c.kind for c in chain]
        if comp.kind == "A":
            if any(k != "A" for k in kinds):
                return False
        elif comp.kind == "E":
            heavy = [k for k in kinds if k != "A"]
            if len(heavy) != 1 or heavy[0] not in ("E", "D"):
                return False
        else:
            if kinds.count("D") != 1 or "E" in kinds:
                return False
    return True

