"""Exact integer polynomial kernel: every sum, product and exact division.

Everything exact runs here on polynomials in Z[u][s], u a power of t: the
parser's evaluation of family files, products of forms, the discriminant
g8^3 - 27*g12^2, and the divisibility tests, which are s-gcd or s-division
questions over Q(u): minimality of a Weierstrass pair, the cusp-quartic
shape (3*G^2, G^3) and squarefreeness of a limit quartic.

* layout: an s-polynomial is a list indexed by s-degree (no trailing zeros,
  [] is zero) whose entries are integer arrays in u, each a list indexed by
  u-degree (no trailing zeros, [] is zero);
* one canonical value, t^low * (num/den) * P(t^step, s): P primitive (content
  1, its first nonzero entry, lowest in s and then in u, positive),
  gcd(num, den) = 1, den > 0, step the gcd of the exponent gaps (t^200000
  costs what t does). `shape` and `reduce` take u^j, the gap gcd and the
  signed content out of any P, for `SForm` and the parser alike. The parser
  keeps s^a * t^b * (n/e) * P(t^d, s) / Q(t^d, s); an `SForm` is the case
  Q = 1 with s^a as a leading empty rows, padded with [] to the formal
  degree, so reversed it is the form at s = infinity. Forms that meet are
  spread onto a common step with `uspread`; an s-gcd over Q(u^d) is the same
  over Q(u), so no decision depends on the step;
* every product but the discriminant's, pseudo-division's too, is `smul`
  over the nonzero terms only (Johnson, "Sparse polynomial arithmetic",
  SIGSAM Bull. 8, 1974): the forms met here are sparse, and Kronecker
  substitution would pack every slot, zero or not;
* the discriminant (`forms.Discriminant`) is held as its s-rows at
  u = 2^bits, one integer each: `upack` packs a u-array, `skmul` takes one
  integer product per pair of nonzero rows, and the zero test and Newton
  polygon read the rows themselves. `uunpack` decodes a row by halving it,
  so its cost follows the nonzero slots;
* one exact division, `sdiv_exact`, serves the parser and the cusp quartic;
* every gcd, the contents in Z[u] included, comes from one subresultant
  sequence (Collins, JACM 14, 1967; Brown and Traub, JACM 18, 1971): each
  pseudo-remainder is divided exactly by a factor it is known to carry, so
  intermediates stay small without a content taken along the way;
* a modular screen proves a whole set coprime, the common case, without
  running the sequence at all.
"""

from __future__ import annotations

from math import gcd

# ---------------------------------------------------------------------------
# canonical values: the first entry, the content, u^j and the gap gcd
# ---------------------------------------------------------------------------


def snorm(p: list) -> list:
    """p without its trailing zeros, in place: integers of an array or rows
    of an s-polynomial."""
    while p and not p[-1]:
        p.pop()
    return p


def first(seq: list) -> int:
    """Index of the first nonzero entry of a nonzero list: an integer of an
    array, or a row of an s-polynomial."""
    for k, x in enumerate(seq):
        if x:
            return k


def lead(p: list[list[int]]) -> int:
    """The first nonzero entry of a nonzero p in Z[u][s], lowest in s and
    then in u."""
    row = p[first(p)]
    return row[first(row)]


def content(rows: list[list[int]]) -> int:
    """gcd of every entry of the integer arrays rows (0 when all are zero)."""
    g = 0
    for row in rows:
        g = gcd(g, *row)
        if g == 1:
            break
    return g


def shape(p: list[list[int]], g: int = 0) -> tuple[int, int, int]:
    """(j, g, c) for a nonzero p in Z[u][s]: u^j the largest power of u that
    divides p, g the gcd of the given g and p's u-exponent gaps (0 when there
    are none), c p's content signed like its first nonzero entry. Then
    p = c * u^j * P(u^g, s) with P primitive and its first entry positive."""
    rows = [row for row in p if row]
    j = min(map(first, rows))
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *(k - j for k, x in enumerate(row) if x))
    c = content(rows)
    return j, g, c if lead(rows) > 0 else -c


def reduce(p: list[list[int]], j: int, g: int, c: int) -> list[list[int]]:
    """The P of p = c * u^j * P(u^g, s), for j, g and c from `shape`."""
    if j or g > 1 or c != 1:
        return [[x // c for x in row[j :: g or 1]] for row in p]
    return p


def sscale(c: int, p: list[list[int]]) -> list[list[int]]:
    """c * p in Z[u][s]; p itself when c is 1."""
    return p if c == 1 else [[c * x for x in row] for row in p]


# ---------------------------------------------------------------------------
# Z[u]: integer arrays
# ---------------------------------------------------------------------------


def uspread(c: list[int], j: int, k: int) -> list[int]:
    """u^j * c(u^k), k >= 1."""
    out = [0] * (j + (len(c) - 1) * k + 1) if c else []
    out[j::k] = c
    return out


def _zdiv_exact(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b in Z[u], or None when b does not divide a there."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    while len(a) >= len(b):
        c, r = divmod(a[-1], lb)
        if r:
            return None
        d = len(a) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] -= c * cb
        snorm(a)
    return None if a else q


# ---------------------------------------------------------------------------
# Kronecker substitution: an array held as its value at u = 2^bits
# ---------------------------------------------------------------------------


def slot_bits(bound: int) -> int:
    """Bits per slot, a multiple of 8, for entries of absolute value at most
    bound: bound < 2^(bits - 1), so each entry fits one signed slot."""
    return (bound.bit_length() + 8) // 8 * 8


def upack(c: list[int], bits: int, stride: int = 1) -> int:
    """c(2^(bits * stride)): c's entries in signed slots of bits bits,
    stride slots apart."""
    shift = bits * stride
    return sum(x << shift * j for j, x in enumerate(c) if x)


def uunpack(v: int, bits: int) -> list[int]:
    """The array c with c(2^bits) = v, for entries below 2^(bits - 1) in
    absolute value."""
    out: list[int] = []
    _unpack(v, bits, v.bit_length() // bits + 1, out)
    return snorm(out)


# up to this many slots `_unpack` reads slot by slot: halving dense slots
# further costs more than it skips (1504 slots of 1512 bits: 14 ms for 25 rows
# read whole or halved to 256 slots, 19 ms halved to 64; CPython 3.11, x86_64)
_UNPACK_SLOTS = 256


def _unpack(v: int, bits: int, n: int, out: list[int]) -> None:
    """Append the n slots of v, |v| < 2^(bits * n - 1), to out. Zero is n
    zeros; a long v is halved at a slot boundary, the low half read signed
    (a negative one borrowed one from the high half); a short one is read a
    signed slot at a time, plus one when the slot below is negative."""
    if not v:
        out += [0] * n
    elif n > _UNPACK_SLOTS:
        shift = bits * (n // 2)
        low, high = v & ((1 << shift) - 1), v >> shift
        if low >> (shift - 1):
            low, high = low - (1 << shift), high + 1
        _unpack(low, bits, n // 2, out)
        _unpack(high, bits, n - n // 2, out)
    else:
        k = bits // 8
        data = v.to_bytes(n * k, "little", signed=True)
        borrow = 0
        for i in range(0, len(data), k):
            x = int.from_bytes(data[i : i + k], "little", signed=True)
            out.append(x + borrow)
            borrow = x < 0


def skmul(a: list[int], b: list[int]) -> list[int]:
    """Product of s-polynomials whose entries are packed arrays (`upack`, one
    bits for both): one integer product per pair of nonzero rows, and about
    half as many for a square (b is a). The result keeps its zero rows."""
    out = [0] * (len(a) + len(b) - 1)
    rows = [(k, y) for k, y in enumerate(b) if y]
    if a is b:
        for n, (i, x) in enumerate(rows):
            out[2 * i] += x * x
            for k, y in rows[n + 1 :]:
                out[i + k] += x * y << 1
        return out
    for i, x in enumerate(a):
        if x:
            for k, y in rows:
                out[i + k] += x * y
    return out


# ---------------------------------------------------------------------------
# Z[u][s]: s-polynomials with integer-array coefficients
# ---------------------------------------------------------------------------


def sderiv(p: list[list[int]]) -> list[list[int]]:
    return snorm([[x * i for x in p[i]] for i in range(1, len(p))])


def _spp_z(p: list[list[int]]) -> list[list[int]]:
    """Primitive part over Z[u] in the s-variable: p over the gcd in Z[u] of
    its coefficient arrays, a fold of `_sres` over them, each read as one-entry
    rows without its integer content; the fold's own integer content goes
    after every step, or its factors compound."""
    if not snorm(p):
        return p
    cont = None
    for c in filter(None, p):
        c = reduce([[x] if x else [] for x in c], 0, 0, content([c]))
        cont = c if cont is None else _sres(*sorted((cont, c), key=len, reverse=True))
        cont = reduce(cont, 0, 0, content(cont))
        if len(cont) == 1:
            break
    if len(cont) > 1:
        w = [row[0] if row else 0 for row in cont]
        p = [_zdiv_exact(c, w) if c else [] for c in p]
    return reduce(p, 0, 0, content(p))


def smul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product in Z[u][s] over the nonzero terms only.

    b's nonzero terms are listed once, by s-row; each nonzero x of a then adds
    x * y into every output slot its terms reach. An output row is sized by
    the widest pair of rows that meets in it, so one wide coefficient widens
    only the rows it reaches. A constant a is a scaling."""
    if len(a) == 1 and len(a[0]) == 1:
        return sscale(a[0][0], b)
    rows = [(k, len(cb), [(m, y) for m, y in enumerate(cb) if y]) for k, cb in enumerate(b) if cb]
    widths = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, n, _ in rows:
                widths[i + k] = max(widths[i + k], len(ca) + n - 1)
    out = [[0] * n for n in widths]
    for i, ca in enumerate(a):
        xs = [(j, x) for j, x in enumerate(ca) if x]
        for k, _, terms in rows:
            row = out[i + k]
            for j, x in xs:
                for m, y in terms:
                    row[j + m] += x * y
    for row in out:
        snorm(row)
    return snorm(out)


def sadd(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Sum in Z[u][s]; the rows b leaves alone are shared with a."""
    out = list(a) + [[] for _ in range(len(b) - len(a))]
    for i, cb in enumerate(b):
        if cb:
            ca = out[i]
            if len(ca) < len(cb):
                ca, cb = cb, ca
            row = list(ca)
            for k, x in enumerate(cb):
                row[k] += x
            out[i] = snorm(row)
    return snorm(out)


def spow(a: list[list[int]], n: int) -> list[list[int]]:
    """a^n in Z[u][s], n >= 0, by repeated squaring from a itself (a^3 is
    two products)."""
    if not n:
        return [[1]]
    if len(a) == 1 and len(a[0]) == 1:
        return [[a[0][0] ** n]]
    out = None
    while True:
        if n & 1:
            out = a if out is None else smul(out, a)
        n >>= 1
        if not n:
            return out
        a = smul(a, a)


def spdivmod(
    a: list[list[int]], b: list[list[int]]
) -> tuple[list[list[int]], list[list[int]], int]:
    """Pseudo-division in Z[u][s]: returns (q, r, j) with lb^j * a = q * b + r,
    lb the s-leading coefficient of b and j the number of reduction steps.
    Each step scales by lb, which keeps it in the polynomial ring: with la
    r's leading row and top = s^(len r - len b) * la, it sets q <- q*lb + top
    and r <- r*lb - top*b."""
    lb, neg_b = [b[-1]], sscale(-1, b)
    q, r, j = [], a, 0
    while len(r) >= len(b):
        pad, la = [[]] * (len(r) - len(b)), [r[-1]]
        q = sadd(smul(lb, q), pad + la)
        r = sadd(smul(lb, r), pad + smul(la, neg_b))
        j += 1
    return q, r, j


def sdiv_exact(a: list[list[int]], b: list[list[int]]) -> tuple[list, int, int] | None:
    """(q, z, c) with a / b = q / (c * u^z), q in Z[u][s], c > 0 an integer;
    None unless b divides a in Q[u, 1/u][s]. With lb^j * a = q' * b from
    pseudo-division and lb^j = c * u^z * w, w primitive with w(0) != 0, w
    divides q' over Q[u] and so, by Gauss's lemma, over Z[u]."""
    q, r, j = spdivmod(a, b)
    if r:
        return None
    lbj = spow([b[-1]], j)[0]
    z = first(lbj)
    (w,) = reduce([lbj], z, 0, content([lbj]))
    parts = [_zdiv_exact(c, w) if c else [] for c in q]
    return None if None in parts else (parts, z, lbj[-1] // w[-1])


_SCREEN_PRIME = (1 << 61) - 1
_SCREEN_POINTS = (9157, 65537, 1048573)


def _ueval_mod(c: list[int], u0: int, p: int) -> int:
    acc = 0
    for x in reversed(c):
        acc = (acc * u0 + x) % p
    return acc


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd in F_p[s] of a and b (each nonzero or []), worked in their lists."""
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            d = len(a) - len(b)
            for i, cb in enumerate(b):
                a[d + i] = (a[d + i] - c * cb) % p
            snorm(a)
        a, b = b, a
    return a


def _provably_coprime(polys: list[list[list[int]]]) -> bool:
    """Sound one-sided test that s-polynomials have a constant gcd over Q(u).
    Their primitive gcd G divides the first in Z[u][s] (Gauss's lemma), so at
    a point where lc of the first survives mod p, G's image keeps its degree
    and divides every image: a constant F_p gcd of the images proves G
    constant (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6)."""
    p = _SCREEN_PRIME
    for u0 in _SCREEN_POINTS:
        if _ueval_mod(polys[0][-1], u0, p) == 0:
            continue
        g = [_ueval_mod(c, u0, p) for c in polys[0]]
        for q in polys[1:]:
            g = _fp_gcd(g, snorm([_ueval_mod(c, u0, p) for c in q]), p)
            if len(g) == 1:
                return True
    return False


def _sres(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The last nonzero entry of the subresultant sequence of a and b in
    Z[u][s], len(a) >= len(b) > 0: an associate of their gcd over Q(u), or
    [[1]] when that is constant in s; each remainder is divided by g * h^d."""
    g = h = [1]
    while len(b) > 1:
        d, lb = len(a) - len(b), b[-1]
        _, r, j = spdivmod(a, b)
        if not r:
            return b
        # spdivmod stops early when several rows cancel: lb^(d + 1 - j) * r
        # is the standard pseudo-remainder
        r = smul(spow([lb], d + 1 - j), r)
        (c,) = smul([g], spow([h], d))
        a, b, g = b, [_zdiv_exact(x, c) if x else [] for x in r], lb
        if d:
            h = _zdiv_exact(spow([g], d)[0], spow([h], d - 1)[0])
    return [[1]]


def sgcd(*polys: list[list[int]]) -> list[list[int]]:
    """gcd over Q(u) of s-polynomials in Z[u][s], primitive with its first
    entry positive: [] if all are zero, [[1]] if coprime or one is constant
    in s. Past the screen `_sres` folds them in order to a constant, each
    step's result made primitive by the same sequence run on its contents."""
    polys = [p for p in polys if p]
    if any(len(p) == 1 for p in polys) or len(polys) > 1 and _provably_coprime(polys):
        return [[1]]
    g = _spp_z(list(polys[0])) if polys else []
    for b in polys[1:]:
        g = _spp_z(_sres(*sorted((g, b), key=len, reverse=True)))
        if len(g) == 1:
            break
    return g if not g or lead(g) > 0 else sscale(-1, g)
