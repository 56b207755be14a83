"""Reproducible random families for the cross-check battery.

Three shapes are drawn, each a small perturbation of a known degeneration
style, plus chart-swapped variants: the point is coverage of left/right end
behavior and bend patterns, not adversarial input. Every emitted family is
pre-screened to complete the whole exact pipeline; candidates that drift out
of the theory (bad end exponents, an unreduced limit, a negative density) are
discarded and replaced.
"""

from __future__ import annotations

from .errors import InternalError, K3SegError
from .report import analyze
from .symalg import FamilyPair, SForm

_COEFFS = (-3, -2, -1, 1, 2, 3)


def _sparse_form(rng: random.Random, degree: int, terms: int, tmin: int, tmax: int):
    out = SForm.zero(degree)
    for _ in range(terms):
        i = rng.randrange(degree + 1)
        c = rng.choice(_COEFFS)
        e = rng.randint(tmin, tmax)
        out = out + SForm.monomial(degree, i, c, e)
    return out


def random_perturbation(rng: random.Random, fewest: int, most: int, tmax: int) -> FamilyPair:
    """3s^4 + (t-small), s^6 + (t-small), fewest..most terms of t-exponent
    1..tmax in each: drifts into the most degenerate cusp. More and deeper
    terms move the discriminant root valuations, hence the breakpoints."""
    g8 = _sparse_form(rng, 8, rng.randint(fewest, most), 1, tmax) + SForm.monomial(8, 4, 3)
    g12 = _sparse_form(rng, 12, rng.randint(fewest, most), 1, tmax) + SForm.monomial(12, 6)
    return FamilyPair(g8, g12)


def _linear(a: int, ea: int, b: int, eb: int) -> SForm:
    """a*t^ea + b*t^eb*s as a degree-1 form."""
    return SForm.monomial(1, 0, a, ea) + SForm.monomial(1, 1, b, eb)


def random_nodal_end(rng: random.Random) -> FamilyPair:
    """3Q^2, Q^3 + t^N-small with Q a quartic whose roots split to the two
    chart origins at rate 1; both ends carry nodal-fiber data."""
    a = rng.choice(_COEFFS)
    b = rng.choice(_COEFFS)
    c = rng.choice(_COEFFS)
    d = rng.choice(_COEFFS)
    q = (
        _linear(-a, 1, 1, 0)
        * _linear(-b, 1, 1, 0)
        * _linear(-1, 0, c, 1)
        * _linear(-1, 0, d, 1)
    )
    q2 = q * q
    g8 = q2.scale(3)
    g12 = q2 * q + _sparse_form(rng, 12, rng.randint(1, 2), 6, 12)
    return FamilyPair(g8, g12)


def _pipeline_ok(f: FamilyPair) -> bool:
    """Screen: the candidate must survive the full analysis. Only domain
    errors count as a rejection; an InternalError (two exact computations
    disagree) is a bug and is allowed to propagate."""
    try:
        analyze(f)
    except InternalError:
        raise
    except K3SegError:
        return False
    return True


def generate_corpus(count: int = 100, seed: int = 1729) -> list[FamilyPair]:
    """Deterministic list of families that all complete the exact pipeline."""
    import random
    rng = random.Random(seed)
    makers = (
        lambda r: random_perturbation(r, 1, 3, 4),
        lambda r: random_perturbation(r, 2, 5, 8),
        random_nodal_end,
    )
    out: list[FamilyPair] = []
    attempts = 0
    limit = 40 * count
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise RuntimeError(
                "only %d of %d candidate families survived screening"
                % (len(out), count)
            )
        f = makers[attempts % len(makers)](rng)
        if rng.random() < 0.3:
            f = f.inverted()
        if _pipeline_ok(f):
            out.append(f)
    return out
