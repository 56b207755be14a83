"""Laurent polynomials in the degeneration parameter t with rational exponents.

Coefficients are exact rationals and exponents are Fractions, so a single object
covers base-changed families (exponents in (1/m)Z) without a separate tower.
The zero polynomial has valuation +infinity, matching the usual min convention.
There is no product here: forms multiply in the integer kernel (`field.smul`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]

INF = math.inf
NEG_INF = -math.inf


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TLaurent:
    """A finite sum of c * t^e terms, e rational, c a nonzero Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Scalar, Scalar] | None = None):
        data: dict[Fraction, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c:
                    e = _frac(e)
                    data[e] = data.get(e, Fraction(0)) + c
                    if not data[e]:
                        del data[e]
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "TLaurent":
        return cls({Fraction(0): c})

    @classmethod
    def term(cls, c: Scalar, e: Scalar) -> "TLaurent":
        return cls({_frac(e): c})

    @classmethod
    def _of(cls, terms: dict[Fraction, Fraction]) -> "TLaurent":
        """Wrap a dict of Fraction exponents to nonzero Fraction coefficients."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    zero: "TLaurent"
    one: "TLaurent"

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Fraction, Fraction]]:
        """Terms as (exponent, coefficient), exponent ascending."""
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def val(self) -> Fraction | float:
        """t-adic valuation, +inf for the zero polynomial."""
        return min(self._terms) if self._terms else INF

    def top_exponent(self) -> Fraction | float:
        return max(self._terms) if self._terms else NEG_INF

    def coeff(self, e: Scalar) -> Fraction:
        return self._terms.get(_frac(e), Fraction(0))

    def leading(self) -> Fraction:
        """Coefficient at the valuation exponent (0 for the zero polynomial)."""
        if not self._terms:
            return Fraction(0)
        return self._terms[min(self._terms)]

    def exponent_denominators(self) -> set[int]:
        return {e.denominator for e in self._terms}

    def limit0(self) -> Fraction:
        """Value at t = 0. Requires valuation >= 0."""
        v = self.val()
        if v is not INF and v < 0:
            raise ValueError("no t=0 limit, valuation %s is negative" % v)
        return self._terms.get(Fraction(0), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "TLaurent":
        return TLaurent._of({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "TLaurent") -> "TLaurent":
        if not isinstance(other, TLaurent):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TLaurent._of(out)

    def __sub__(self, other: "TLaurent") -> "TLaurent":
        return self + (-other)

    def scale(self, c: Scalar) -> "TLaurent":
        c = _frac(c)
        if not c:
            return TLaurent.zero
        return TLaurent._of({e: cc * c for e, cc in self._terms.items()})

    def shift(self, e: Scalar) -> "TLaurent":
        """Multiply by t^e."""
        e = _frac(e)
        return TLaurent({ee + e: c for ee, c in self._terms.items()})

    def rescale_exponents(self, r: Scalar) -> "TLaurent":
        """Substitute t -> t^r (base change), r a positive rational."""
        r = _frac(r)
        if r <= 0:
            raise ValueError("exponent rescale factor must be positive")
        return TLaurent({e * r: c for e, c in self._terms.items()})

    # -- numerics ----------------------------------------------------------

    def eval_mp(self, t0):
        """Evaluate at a positive mpmath float t0."""
        import mpmath as mp

        acc = mp.mpf(0)
        for e, c in self._terms.items():
            p = mp.power(t0, mp.mpf(e.numerator) / e.denominator)
            acc += mp.mpf(c.numerator) / c.denominator * p
        return acc

    def __repr__(self) -> str:
        if not self._terms:
            return "TLaurent(0)"
        bits = []
        for e, c in self.items():
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append("%s*t" % c)
            else:
                bits.append("%s*t^%s" % (c, e))
        return "TLaurent(%s)" % " + ".join(bits)


TLaurent.zero = TLaurent()
TLaurent.one = TLaurent({Fraction(0): Fraction(1)})
