"""Root lattices for the D/A/E bookkeeping, including the low-index stragglers
(D1, D2, D3, E1..E5) that the usual tables skip, plus the rank-18 hyperbolic
lattice attached to the segment boundary and two weight recipes.

All linear algebra here is exact: integer Bareiss determinants, rational
congruence diagonalization for signatures, and an exact LDL-based enumeration
for counting short vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadIndexError

Gram = tuple[tuple[int, ...], ...]

MAX_INDEX = 24


@dataclass(frozen=True)
class Lattice:
    name: str
    gram: Gram

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return determinant(self.gram)

    def signature(self) -> tuple[int, int, int]:
        return inertia(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _gram_from_vectors(vectors: list[list[int]], metric: list[int]) -> Gram:
    """Gram matrix of vectors under a diagonal metric."""

    def dot(u: list[int], v: list[int]) -> int:
        return sum(m * a * b for m, a, b in zip(metric, u, v))

    return tuple(tuple(dot(u, v) for v in vectors) for u in vectors)


def root_lattice(kind: str, n: int) -> Lattice:
    """The lattice named <kind><n>, positive definite, in a fixed basis.

    A(n) is the usual Cartan tridiagonal. D(n) comes from the even-coordinate-
    sum sublattice of Z^n with basis e1+e2, e2-e1, e3-e2, ...; D(1) is the even
    integers with the square form. E(n) is the orthogonal complement of
    -3l + e1 + ... + en inside the rank-(n+1) form diag(1, -1, ..., -1), with
    the overall sign flipped; it is defined for n up to 8. Indices past
    MAX_INDEX are refused before any matrix is built: the charges of a
    stable type sum to 24, so no component index exceeds 17.
    """
    if n < 0:
        raise BadIndexError("negative index %d" % n)
    if n > MAX_INDEX:
        raise BadIndexError("index %d exceeds %d" % (n, MAX_INDEX))
    name = "%s%d" % (kind, n)
    if n == 0:
        return Lattice(name, ())
    if kind == "A":
        gram = tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
        return Lattice(name, gram)
    if kind == "D":
        if n == 1:
            return Lattice(name, ((4,),))
        vs = [[0] * n for _ in range(n)]
        vs[0][0] = 1
        vs[0][1] = 1
        for j in range(1, n):
            vs[j][j - 1] = -1
            vs[j][j] = 1
        return Lattice(name, _gram_from_vectors(vs, [1] * n))
    if kind == "E":
        if n > 8:
            raise BadIndexError("E-series index %d exceeds 8" % n)
        metric = [1] + [-1] * n
        if n == 1:
            vs = [[1, -3]]
        elif n == 2:
            vs = [[0, 1, -1], [1, -3, 0]]
        else:
            vs = []
            for j in range(1, n):
                v = [0] * (n + 1)
                v[j] = 1
                v[j + 1] = -1
                vs.append(v)
            w = [1, -1, -1, -1] + [0] * (n - 3)
            vs.append(w)
        gram = _gram_from_vectors(vs, metric)
        flipped = tuple(tuple(-x for x in row) for row in gram)
        return Lattice(name, flipped)
    raise BadIndexError("unknown lattice family %r" % kind)


def direct_sum(parts: list[Lattice], name: str | None = None) -> Lattice:
    total = sum(p.rank for p in parts)
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                gram[offset + i][offset + j] = p.gram[i][j]
        offset += p.rank
    if name is None:
        pieces = [p.name for p in parts if p.rank]
        name = "+".join(pieces) if pieces else "0"
    return Lattice(name, tuple(tuple(row) for row in gram))


def stable_type_lattice(stype) -> Lattice:
    """Direct sum of the root lattices of a stable type's components."""
    return direct_sum([root_lattice(c.kind, c.index) for c in stype.components])


def segment_lattice() -> Lattice:
    """U + E8(-1) + E8(-1): rank 18, signature (1, 17), even, det -1."""
    e8 = root_lattice("E", 8)
    e8_neg = Lattice("E8(-1)", tuple(tuple(-x for x in row) for row in e8.gram))
    u = Lattice("U", ((0, 1), (1, 0)))
    return direct_sum([u, e8_neg, e8_neg], name="U+E8(-1)+E8(-1)")


# ---------------------------------------------------------------------------
# exact invariants
# ---------------------------------------------------------------------------


def determinant(gram: Gram) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(gram)
    if n == 0:
        return 1
    m = [list(row) for row in gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inertia(gram: Gram) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, by exact congruence
    reduction (Sylvester's law makes the counts basis-independent)."""
    a = [[Fraction(v) for v in row] for row in gram]
    pos = neg = zero = 0
    while a:
        n = len(a)
        piv = next((i for i in range(n) if a[i][i]), None)
        if piv is None:
            off = None
            for i in range(n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += n
                break
            i, j = off
            for col in range(n):
                a[i][col] += a[j][col]
            for row in range(n):
                a[row][i] += a[row][j]
            piv = i
        if piv != 0:
            a[0], a[piv] = a[piv], a[0]
            for row in a:
                row[0], row[piv] = row[piv], row[0]
        d = a[0][0]
        if d > 0:
            pos += 1
        else:
            neg += 1
        a = [
            [a[i][j] - a[i][0] * a[0][j] / d for j in range(1, n)]
            for i in range(1, n)
        ]
    return pos, neg, zero


def _ldl(gram: Gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose a positive-definite Gram as sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    d = [q[i][i] for i in range(n)]
    u = [[q[i][j] for j in range(n)] for i in range(n)]
    return d, u


def count_norm_vectors(lattice: Lattice, target: int) -> int:
    """Number of nonzero lattice vectors of the given (even, positive) norm."""
    n = lattice.rank
    if n == 0:
        return 0
    d, u = _ldl(lattice.gram)
    x = [0] * n
    count = 0

    def descend(i: int, rem: Fraction) -> None:
        nonlocal count
        if i < 0:
            if rem == 0 and any(x):
                count += 1
            return
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        start = math.floor(-c)
        xi = start
        while d[i] * (xi + c) ** 2 <= rem:
            x[i] = xi
            descend(i - 1, rem - d[i] * (xi + c) ** 2)
            xi -= 1
        xi = start + 1
        while d[i] * (xi + c) ** 2 <= rem:
            x[i] = xi
            descend(i - 1, rem - d[i] * (xi + c) ** 2)
            xi += 1
        x[i] = 0

    descend(n - 1, Fraction(target))
    return count


# ---------------------------------------------------------------------------
# weight recipes
# ---------------------------------------------------------------------------


def wps_weights(kind: str, n: int) -> tuple[int, ...]:
    """Weights of the weighted projective space attached to a D- or E-root
    system: 1 followed by the sorted coefficients of the highest root.

    Demands an honest root basis (all diagonal norms 2, connected diagram);
    the stray low-index lattices that fail this have no such space.
    """
    if kind not in ("D", "E"):
        raise BadIndexError("weights are defined for the D and E families only")
    lat = root_lattice(kind, n)
    r = lat.rank
    if r == 0:
        raise BadIndexError("%s%d has no roots" % (kind, n))
    gram = lat.gram
    if any(gram[i][i] != 2 for i in range(r)):
        raise BadIndexError("%s has basis vectors of norm > 2; no root system" % lat.name)
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(r):
            if j not in seen and gram[i][j] != 0:
                seen.add(j)
                queue.append(j)
    if len(seen) != r:
        raise BadIndexError("%s has a disconnected diagram" % lat.name)

    def norm(v: tuple[int, ...]) -> int:
        return sum(v[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))

    simples = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        base = frontier.pop()
        for s in simples:
            cand = tuple(a + b for a, b in zip(base, s))
            if cand not in roots and norm(cand) == 2:
                roots.add(cand)
                frontier.append(cand)
    highest = max(roots, key=sum)
    return tuple([1] + sorted(highest))


def gm_weights() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The torus weights of the two coefficient slices (degree-8 and degree-12
    sides) in the multiplicative-group quotient presentation."""
    return (
        (-4, -3, -2, 2, 3, 4),
        (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6),
    )
