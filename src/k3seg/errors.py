"""Error types shared across the package.

Every failure mode the library reports deliberately carries a short stable tag
(machine readable, mirrored in JSON reports) and the process exit code the CLI
maps it to.
"""

from __future__ import annotations


class K3SegError(Exception):
    """Base class for all deliberate failures."""

    tag = "E_INTERNAL"
    exit_code = 1

    def __init__(self, message: str = ""):
        super().__init__(message or self.tag)


class InternalError(K3SegError):
    """Two independent computations inside the pipeline disagree: a bug, not a
    property of the input."""


class ParseError(K3SegError):
    """Family file is syntactically malformed."""

    tag = "E_PARSE"
    exit_code = 2


class NotPolynomialError(K3SegError):
    """Expression does not reduce to a Laurent polynomial of the right shape."""

    tag = "E_NOT_POLY"
    exit_code = 2


class DegreeError(K3SegError):
    """Coefficient data exceeds the declared form degree."""

    tag = "E_DEGREE"
    exit_code = 2


class ZeroFormError(K3SegError):
    """An operation that needs a nonzero form received the zero form."""

    tag = "E_ZERO_FORM"
    exit_code = 3


class NotMinimalError(K3SegError):
    """Weierstrass data is non-minimal (a P with P^4 | g8 and P^6 | g12 exists)."""

    tag = "E_NOT_MINIMAL"
    exit_code = 3


class NegativeDensityError(K3SegError):
    """Computed density went negative, which signals invalid input data."""

    tag = "E_NEGATIVE_V"
    exit_code = 3


class UnrecognizedCuspError(K3SegError):
    """The family does not limit onto any cusp configuration we classify."""

    tag = "E_UNRECOGNIZED_CUSP"
    exit_code = 4


class CuspidalFamilyError(K3SegError):
    """Identically vanishing discriminant: the cuspidal-branch routine applies."""

    tag = "E_NN"
    exit_code = 4


class CuspidalInteriorError(K3SegError):
    """Cuspidal family whose quartic roots do not split cleanly onto the two ends."""

    tag = "E_NN_INTERIOR"
    exit_code = 4


class InconsistentTypeError(K3SegError):
    """Derived stable type violates the index or charge constraints."""

    tag = "E_INCONSISTENT_TYPE"
    exit_code = 5


class OracleMismatchError(K3SegError):
    """Float root tracking disagrees with the exact positions."""

    tag = "E_ORACLE_MISMATCH"
    exit_code = 6


class NoConvergenceError(K3SegError):
    """Simultaneous root iteration failed to reach the residual target."""

    tag = "E_NO_CONVERGENCE"
    exit_code = 6


class BadIndexError(K3SegError):
    """Lattice family/index combination outside the supported range."""

    tag = "E_BAD_INDEX"
    exit_code = 2
