"""Reproducible random families for the cross-check battery.

Three shapes are drawn, each a small perturbation of a known degeneration
style, plus chart-swapped variants: the point is coverage of left/right end
behavior and bend patterns, not adversarial input. Every emitted family is
pre-screened to complete the whole exact pipeline; candidates that drift out
of the theory (bad end exponents, an unreduced limit, a negative density) are
discarded and replaced.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InternalError, K3SegError
from .report import analyze
from .symalg import FamilyPair, SForm, TLaurent

_COEFFS = (-3, -2, -1, 1, 2, 3)


def _sparse_coeffs(rng: random.Random, degree: int, terms: int, tmin: int, tmax: int):
    out = [TLaurent.zero] * (degree + 1)
    for _ in range(terms):
        i = rng.randrange(degree + 1)
        c = rng.choice(_COEFFS)
        e = rng.randint(tmin, tmax)
        out[i] = out[i] + TLaurent.term(Fraction(c), Fraction(e))
    return out


def random_maximal_perturbation(rng: random.Random) -> FamilyPair:
    """3s^4 + (t-small), s^6 + (t-small): drifts into the most degenerate cusp."""
    c8 = _sparse_coeffs(rng, 8, rng.randint(1, 3), 1, 4)
    c8[4] = c8[4] + TLaurent.const(3)
    c12 = _sparse_coeffs(rng, 12, rng.randint(1, 3), 1, 4)
    c12[6] = c12[6] + TLaurent.one
    return FamilyPair(SForm(8, c8), SForm(12, c12))


def random_wide_perturbation(rng: random.Random) -> FamilyPair:
    """Same anchor as random_maximal_perturbation, but with denser and deeper
    t-tails: more terms and a larger exponent spread move the discriminant
    root valuations around and with them the interior breakpoints."""
    c8 = _sparse_coeffs(rng, 8, rng.randint(2, 5), 1, 8)
    c8[4] = c8[4] + TLaurent.const(3)
    c12 = _sparse_coeffs(rng, 12, rng.randint(2, 5), 1, 8)
    c12[6] = c12[6] + TLaurent.one
    return FamilyPair(SForm(8, c8), SForm(12, c12))


def _linear(a: TLaurent, b: TLaurent) -> SForm:
    """a + b*s as a degree-1 form."""
    return SForm(1, [a, b])


def random_nodal_end(rng: random.Random) -> FamilyPair:
    """3Q^2, Q^3 + t^N-small with Q a quartic whose roots split to the two
    chart origins at rate 1; both ends carry nodal-fiber data."""
    a = rng.choice(_COEFFS)
    b = rng.choice(_COEFFS)
    c = rng.choice(_COEFFS)
    d = rng.choice(_COEFFS)
    q = (
        _linear(TLaurent.term(Fraction(-a), Fraction(1)), TLaurent.one)
        * _linear(TLaurent.term(Fraction(-b), Fraction(1)), TLaurent.one)
        * _linear(TLaurent.const(-1), TLaurent.term(Fraction(c), Fraction(1)))
        * _linear(TLaurent.const(-1), TLaurent.term(Fraction(d), Fraction(1)))
    )
    g8 = (q * q).scale(Fraction(3))
    pert = _sparse_coeffs(rng, 12, rng.randint(1, 2), 6, 12)
    g12 = q * q * q + SForm(12, pert)
    return FamilyPair(g8, g12)


def _pipeline_ok(f: FamilyPair) -> bool:
    """Screen: the candidate must survive the full analysis. Only domain
    errors count as a rejection; an internal route disagreement is a bug and
    is allowed to propagate."""
    try:
        analyze(f)
    except InternalError:
        raise
    except K3SegError:
        return False
    return True


def generate_corpus(count: int = 100, seed: int = 1729) -> list[FamilyPair]:
    """Deterministic list of families that all complete the exact pipeline."""
    rng = random.Random(seed)
    makers = (
        random_maximal_perturbation,
        random_wide_perturbation,
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
