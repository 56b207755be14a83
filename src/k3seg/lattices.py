"""Root lattices for the D/A/E bookkeeping, including the low-index stragglers
(D1, D2, D3, E1..E5) that the usual tables skip, plus the rank-18 hyperbolic
lattice attached to the segment boundary and two weight recipes.

Every A, D and E lattice is the Cartan matrix 2I - (adjacency) of its Dynkin
diagram (Conway-Sloane, SPLAG ch. 4; Bourbaki, Lie groups ch. VI, plates).
The low-index members are diagrams too: D2 = A1 + A1, D3 = A3, E3 = A2 + A1,
E4 = A4, E5 = D5. D1, E1 and E2 are not root lattices and are written out as
Grams.

All linear algebra here is exact and runs through one routine, _eliminate: a
fraction-free symmetric elimination whose leading principal minors D_k give
the determinant (D_n), the signature (the signs of D_k / D_(k-1)) and, with
its reduced rows, the integer LDL^T form that the short-vector enumeration
walks (Fincke-Pohst): each coordinate ranges over one integer interval.
The determinant of one A, D or E lattice also has a closed form,
root_determinant, which the report reads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BadIndexError

Gram = tuple[tuple[int, ...], ...]

MAX_INDEX = 24


class Lattice(NamedTuple):
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


def root_lattice(kind: str, n: int) -> Lattice:
    """The lattice named <kind><n>, positive definite, in a fixed basis.

    Apart from D1, E1 and E2, each is the Cartan matrix 2I - (adjacency) of
    a diagram on nodes 0..n-1: A(n) is the chain; D(n) is the chain
    1-2-...-(n-1) with node 0 joined to node 2 (for n > 2; D2 has no edges);
    E(n), defined for n up to 8, is the chain 0-1-...-(n-2) with node n-1
    joined to node 2 (for n > 3; E3 is A2 + A1). Indices past MAX_INDEX are
    refused before any matrix is built: the charges of a stable type sum to
    24, so no component index exceeds 17.
    """
    if n < 0:
        raise BadIndexError("negative index %d" % n)
    if n > MAX_INDEX:
        raise BadIndexError("index %d exceeds %d" % (n, MAX_INDEX))
    if kind not in ("A", "D", "E"):
        raise BadIndexError("unknown lattice family %r" % kind)
    if kind == "E" and n > 8:
        raise BadIndexError("E-series index %d exceeds 8" % n)
    name = "%s%d" % (kind, n)
    # three members are not spanned by their norm-2 vectors, so no diagram
    # gives them
    if name == "D1":
        return Lattice(name, ((4,),))  # the even integers: no norm-2 vector
    if name == "E1":
        return Lattice(name, ((8,),))  # one norm-8 generator: no norm-2 vector
    if name == "E2":
        return Lattice(name, ((2, -3), (-3, 8)))  # its only roots, +-b1, span rank 1
    chain = [(i, i + 1) for i in range(n - 1)]
    if kind == "A":
        edges = chain
    elif kind == "D":
        edges = chain[1:] + ([(0, 2)] if n > 2 else [])
    else:
        edges = chain[:-1] + ([(2, n - 1)] if n > 3 else [])
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return Lattice(name, tuple(tuple(row) for row in gram))


def direct_sum(parts: list[Lattice], name: str | None = None) -> Lattice:
    total = sum(p.rank for p in parts)
    gram, offset = [], 0
    for p in parts:
        rest = total - offset - p.rank
        gram += [(0,) * offset + tuple(row) + (0,) * rest for row in p.gram]
        offset += p.rank
    if name is None:
        pieces = [p.name for p in parts if p.rank]
        name = "+".join(pieces) if pieces else "0"
    return Lattice(name, tuple(gram))


def root_determinant(kind: str, n: int) -> int:
    """det root_lattice(kind, n), in closed form: A(n) is n + 1, D(n) is 4
    and E(n) is 9 - n for n >= 1, the empty lattice 1."""
    if not n:
        return 1
    return n + 1 if kind == "A" else 4 if kind == "D" else 9 - n


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


def _eliminate(gram: Gram) -> tuple[list[int], list[list[int]]]:
    """One fraction-free (Bareiss) pass over a congruent copy of a Gram matrix.

    Returns the nonzero leading principal minors D_1..D_r of the copy and its
    reduced integer rows: row k holds D_k * u_kj right of the diagonal, where
    the copy's form is sum_k (D_k / D_(k-1)) (x_k + sum_(j>k) u_kj x_j)^2. A
    zero pivot is traded for a later nonzero diagonal entry, swapping rows and
    columns together; if the whole remaining diagonal is zero, row and column
    j are added to row and column i for some nonzero entry (i, j). Neither
    move changes the determinant or the inertia, and a positive-definite Gram
    needs neither. r < n means the remaining block vanished.
    """
    m = [list(row) for row in gram]
    n = len(m)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][i]), None)
            if p is None:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]), None)
                if off is None:
                    break
                p, j = off
                for row in m:
                    row[p] += row[j]
                m[p] = [a + b for a, b in zip(m[p], m[j])]
            m[k], m[p] = m[p], m[k]
            for row in m:
                row[k], row[p] = row[p], row[k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        minors.append(pivot)
        prev = pivot
    return minors, m


def determinant(gram: Gram) -> int:
    """Determinant of a Gram (symmetric integer) matrix."""
    minors, _ = _eliminate(gram)
    if len(minors) < len(gram):
        return 0
    return minors[-1] if minors else 1


def inertia(gram: Gram) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts: the signs of the pivots
    D_k / D_(k-1) of a congruent copy (Sylvester's law of inertia)."""
    minors, _ = _eliminate(gram)
    pos = sum(1 for a, b in zip([1] + minors, minors) if (a > 0) == (b > 0))
    return pos, len(minors) - pos, len(gram) - len(minors)


def _norm_vectors(lattice: Lattice, target: int):
    """Coordinate tuples of the nonzero lattice vectors of the given (even,
    positive) norm, in the lattice's basis."""
    n = lattice.rank
    if n == 0:
        return
    minors, m = _eliminate(lattice.gram)
    if len(minors) < n or min(minors) <= 0:
        raise ValueError("matrix is not positive definite")
    # norm = sum_k y_k^2 / (D_(k-1) D_k) with y_k = D_k x_k + sum_(j>k) m_kj x_j;
    # scaled by L, every weight w_k = L / (D_(k-1) D_k) is an integer
    pairs = [a * b for a, b in zip([1] + minors, minors)]
    scale = math.lcm(*pairs)
    w = [scale // p for p in pairs]
    x = [0] * n

    def descend(k: int, rem: int):
        if k < 0:
            if rem == 0 and any(x):
                yield tuple(x)
            return
        c = sum(m[k][j] * x[j] for j in range(k + 1, n))
        dk = minors[k]
        bound = math.isqrt(rem // w[k])  # |D_k x_k + c| <= bound
        for xk in range(-((bound + c) // dk), (bound - c) // dk + 1):
            x[k] = xk
            yield from descend(k - 1, rem - w[k] * (dk * xk + c) ** 2)
        x[k] = 0

    yield from descend(n - 1, scale * target)


def count_norm_vectors(lattice: Lattice, target: int) -> int:
    """Number of nonzero lattice vectors of the given (even, positive) norm."""
    return sum(1 for _ in _norm_vectors(lattice, target))


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
    # a norm-2 diagonal makes the Gram the Cartan matrix of a forest, which
    # is connected exactly when it has r - 1 edges
    if sum(1 for i in range(r) for j in range(i) if gram[i][j]) != r - 1:
        raise BadIndexError("%s has a disconnected diagram" % lat.name)
    # the basis is a simple system, so the root of largest coefficient sum is
    # the highest root
    highest = max(_norm_vectors(lat, 2), key=sum)
    return tuple([1] + sorted(highest))


def gm_weights() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The torus weights of the two coefficient slices (degree-8 and degree-12
    sides) in the multiplicative-group quotient presentation."""
    return (
        (-4, -3, -2, 2, 3, 4),
        (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6),
    )
