"""Root lattices and their exact invariants, cross-checked against sympy
determinants and against the classical root counts."""

import itertools
import math
import random
import re

import pytest
import sympy

from k3seg.classify import component, StableType
from k3seg.errors import BadIndexError
from k3seg.lattices import (
    Lattice,
    count_norm_vectors,
    determinant,
    direct_sum,
    gm_weights,
    inertia,
    root_determinant,
    root_lattice,
    segment_lattice,
    stable_type_lattice,
    wps_weights,
)
from k3seg.moduli import enumerate_codim2, enumerate_divisors


def test_a_series_determinants():
    for n in range(1, 18):
        assert root_lattice("A", n).determinant() == n + 1


def test_d_series_determinants():
    for n in range(1, 17):
        assert root_lattice("D", n).determinant() == 4


def test_e_series_determinants():
    # the pattern 9 - n covers the stragglers below E6 as well
    for n in range(1, 9):
        assert root_lattice("E", n).determinant() == 9 - n
    assert [root_lattice("E", n).determinant() for n in (6, 7, 8)] == [3, 2, 1]


def test_closed_form_determinants_match_the_elimination():
    # the report reads the closed form; every lattice root_lattice builds
    for kind, top in (("A", 24), ("D", 24), ("E", 8)):
        for n in range(top + 1):
            assert root_determinant(kind, n) == determinant(root_lattice(kind, n).gram), (kind, n)


def test_index_zero_is_the_empty_lattice():
    for kind in "ADE":
        lat = root_lattice(kind, 0)
        assert lat.rank == 0
        assert lat.determinant() == 1
        assert lat.name == kind + "0"


def test_bad_indices():
    # checked in this order: negative index, past 24, unknown family, E past
    # 8; an unknown family is refused at index 0 too
    for kind, n, message in (
        ("A", -1, "negative index -1"),
        ("F", -1, "negative index -1"),
        ("F", 25, "index 25 exceeds 24"),
        ("E", 25, "index 25 exceeds 24"),
        ("E", 9, "E-series index 9 exceeds 8"),
        ("F", 4, "unknown lattice family 'F'"),
        ("F", 0, "unknown lattice family 'F'"),
        ("a", 0, "unknown lattice family 'a'"),
        ("", 0, "unknown lattice family ''"),
    ):
        with pytest.raises(BadIndexError, match="^%s$" % re.escape(message)):
            root_lattice(kind, n)


def reference_root_lattice(kind, n):
    """The vector construction the diagrams replaced: D(n) from the basis
    e1+e2, e2-e1, e3-e2, ... of the even-sum sublattice of Z^n, E(n) as the
    complement of -3l + e1 + ... + en in diag(1, -1, ..., -1), sign flipped."""

    def gram_of(vectors, metric):
        return tuple(
            tuple(sum(m * a * b for m, a, b in zip(metric, u, v)) for v in vectors)
            for u in vectors
        )

    name = "%s%d" % (kind, n)
    if n == 0:
        return name, ()
    if kind == "A":
        return name, tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
    if kind == "D":
        if n == 1:
            return name, ((4,),)
        vs = [[0] * n for _ in range(n)]
        vs[0][0] = vs[0][1] = 1
        for j in range(1, n):
            vs[j][j - 1] = -1
            vs[j][j] = 1
        return name, gram_of(vs, [1] * n)
    if n == 1:
        vs = [[1, -3]]
    elif n == 2:
        vs = [[0, 1, -1], [1, -3, 0]]
    else:
        vs = []
        for j in range(1, n):
            v = [0] * (n + 1)
            v[j], v[j + 1] = 1, -1
            vs.append(v)
        vs.append([1, -1, -1, -1] + [0] * (n - 3))
    gram = gram_of(vs, [1] + [-1] * n)
    return name, tuple(tuple(-x for x in row) for row in gram)


@pytest.mark.parametrize(
    "kind, n",
    [("A", n) for n in range(25)] + [("D", n) for n in range(25)] + [("E", n) for n in range(9)],
)
def test_diagrams_match_the_vector_construction(kind, n):
    lat = root_lattice(kind, n)
    assert (lat.name, lat.gram) == reference_root_lattice(kind, n)


def test_index_is_bounded_before_any_matrix_is_built():
    # a stable type never needs an index past 17; 24 is the last one accepted
    assert root_lattice("A", 24).determinant() == 25
    assert root_lattice("D", 24).determinant() == 4
    for kind in "AD":
        with pytest.raises(BadIndexError, match="^index 25 exceeds 24$"):
            root_lattice(kind, 25)


def test_root_lattices_are_even_and_positive():
    for kind, n in (("A", 5), ("D", 7), ("E", 6), ("E", 8), ("D", 1), ("E", 2)):
        lat = root_lattice(kind, n)
        assert lat.is_even()
        assert lat.signature() == (lat.rank, 0, 0)


def random_symmetric(rng, n):
    """A random symmetric integer matrix of order n: about a third with a zero
    diagonal and sparse entries, a third forced singular (C^T diag(e) C with C
    of fewer rows than n), the rest dense."""
    kind = rng.randrange(3)
    if kind == 2 and n > 1:
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
        e = [rng.choice((-2, -1, 1, 3)) for _ in c]
        return tuple(
            tuple(sum(ek * ck[i] * ck[j] for ek, ck in zip(e, c)) for j in range(n))
            for i in range(n)
        )
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice((-1, 0, 0, 1, 2)) if kind == 0 else rng.randint(-3, 3)
        if kind == 0:
            m[i][i] = 0
    return tuple(tuple(row) for row in m)


def descartes_inertia(m):
    """(positive, negative, zero) roots of the characteristic polynomial by
    Descartes' rule of signs, which is exact here: every root is real."""
    coeffs = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()
    zero = 0
    while coeffs[-1 - zero] == 0:
        zero += 1
    coeffs = coeffs[: len(coeffs) - zero]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    mirrored = [c * (-1) ** k for k, c in enumerate(reversed(coeffs))]
    return sign_changes(coeffs), sign_changes(mirrored), zero


def test_determinant_against_sympy_on_random_symmetric_matrices():
    rng = random.Random(88)
    for _ in range(300):
        gram = random_symmetric(rng, rng.randint(1, 7))
        assert determinant(gram) == int(sympy.Matrix(gram).det()), gram


def test_inertia_against_descartes_on_random_symmetric_matrices():
    rng = random.Random(88)
    for _ in range(300):
        gram = random_symmetric(rng, rng.randint(1, 7))
        assert inertia(gram) == descartes_inertia(gram), gram


def test_norm_counts_against_box_enumeration():
    # |x_i| <= sqrt(N * (G^-1)_ii) for every x with x^T G x <= N
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 3)
        b = sympy.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
        if b.det() == 0:
            continue
        checked += 1
        g = b * b.T
        inv = g.inv()
        lat = Lattice("L", tuple(tuple(int(v) for v in row) for row in g.tolist()))
        for target in range(1, 7):
            radii = [int(sympy.floor(sympy.sqrt(target * inv[i, i]))) for i in range(n)]
            box = itertools.product(*(range(-r, r + 1) for r in radii))
            expected = sum(
                1 for x in box
                if sum(x[i] * lat.gram[i][j] * x[j] for i in range(n) for j in range(n)) == target
            )
            assert count_norm_vectors(lat, target) == expected, (lat.gram, target)


def test_norm_count_refuses_an_indefinite_form():
    for gram in (((0, 1), (1, 0)), ((2, 1), (1, 0)), ((1, 0), (0, 0)), ((-2,),)):
        with pytest.raises(ValueError, match="not positive definite"):
            count_norm_vectors(Lattice("L", gram), 2)


def test_inertia_on_known_shapes():
    assert inertia(root_lattice("A", 4).gram) == (4, 0, 0)
    assert inertia(((0, 1), (1, 0))) == (1, 1, 0)
    assert inertia(((1, 1), (1, 1))) == (1, 0, 1)
    assert inertia(((0, 0), (0, 0))) == (0, 0, 2)
    assert inertia(()) == (0, 0, 0)


def test_norm_two_counts_match_the_root_numbers():
    for n in range(1, 25):
        assert count_norm_vectors(root_lattice("A", n), 2) == n * (n + 1)
    for n in range(2, 25):
        assert count_norm_vectors(root_lattice("D", n), 2) == 2 * n * (n - 1)
    assert count_norm_vectors(root_lattice("E", 6), 2) == 72
    assert count_norm_vectors(root_lattice("E", 7), 2) == 126
    assert count_norm_vectors(root_lattice("E", 8), 2) == 240


def test_norm_counts_beyond_two():
    # A2 theta series starts 1 + 6q + 0q^2 + 6q^3
    assert count_norm_vectors(root_lattice("A", 2), 4) == 0
    assert count_norm_vectors(root_lattice("A", 2), 6) == 6
    # D1 is the even integers with the square form
    assert count_norm_vectors(root_lattice("D", 1), 2) == 0
    assert count_norm_vectors(root_lattice("D", 1), 4) == 2


def test_norm_count_on_the_empty_lattice():
    assert count_norm_vectors(root_lattice("A", 0), 2) == 0


def test_low_index_e_identifications():
    def key(lat):
        return (lat.rank, lat.determinant(), count_norm_vectors(lat, 2))

    assert key(root_lattice("E", 5)) == key(root_lattice("D", 5))
    assert key(root_lattice("E", 4)) == key(root_lattice("A", 4))
    a2a1 = direct_sum([root_lattice("A", 2), root_lattice("A", 1)])
    assert key(root_lattice("E", 3)) == key(a2a1)


def test_direct_sum_blocks_and_name():
    lat = direct_sum([root_lattice("A", 1), root_lattice("D", 1)])
    assert lat.gram == ((2, 0), (0, 4))
    assert lat.name == "A1+D1"
    assert lat.determinant() == 8


def test_direct_sum_skips_rank_zero_names():
    parts = [root_lattice("E", 0), root_lattice("A", 17), root_lattice("E", 0)]
    assert direct_sum(parts).name == "A17"
    assert direct_sum([root_lattice("E", 0)]).name == "0"
    assert direct_sum([], name="custom").name == "custom"


def test_stable_type_lattice(named_reports):
    st = StableType((component("E", 0), component("A", 17), component("E", 0)))
    lat = stable_type_lattice(st)
    assert (lat.name, lat.rank, lat.determinant()) == ("A17", 17, 18)
    rep = named_reports["tent"]
    assert (rep.lattice.name, rep.lattice.rank) == ("E3+A11+E3", 17)
    assert rep.lattice.determinant() == 432


def test_segment_lattice_shape():
    lat = segment_lattice()
    assert lat.name == "U+E8(-1)+E8(-1)"
    assert lat.rank == 18
    assert lat.determinant() == -1
    assert lat.signature() == (1, 17, 0)
    assert lat.is_even()


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_wps_weights_e_series():
    assert wps_weights("E", 8) == (1, 2, 2, 3, 3, 4, 4, 5, 6)
    assert wps_weights("E", 7) == (1, 1, 2, 2, 2, 3, 3, 4)
    assert wps_weights("E", 6) == (1, 1, 1, 2, 2, 2, 3)
    assert wps_weights("E", 5) == (1, 1, 1, 1, 2, 2)
    assert wps_weights("E", 4) == (1, 1, 1, 1, 1)


def test_wps_weights_d_series():
    for n in range(3, 25):
        assert wps_weights("D", n) == tuple([1, 1, 1, 1] + [2] * (n - 3))


def test_wps_weights_rejections():
    for kind, n, message in (
        ("A", 5, "D and E families only"),  # A-family has no attached space here
        ("E", 0, "no roots"),
        ("D", 1, "norm > 2"),  # norm-4 generator, not a root basis
        ("D", 2, "disconnected diagram"),
        ("E", 1, "norm > 2"),  # norm-8 generator
        ("E", 2, "norm > 2"),
        ("E", 3, "disconnected diagram"),
        ("E", 9, "exceeds 8"),
    ):
        with pytest.raises(BadIndexError, match=message):
            wps_weights(kind, n)


def test_gm_weights_frozen():
    w8, w12 = gm_weights()
    assert w8 == (-4, -3, -2, 2, 3, 4)
    assert w12 == (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)
    assert sum(w8) == 0 and sum(w12) == 0


def test_lattice_dataclass_is_immutable():
    lat = root_lattice("A", 2)
    with pytest.raises(Exception):
        lat.name = "other"
    assert isinstance(lat, Lattice)


def test_chain_determinant_is_the_product_of_its_blocks():
    # every chain of a codimension-1 or -2 stratum: the lattice is the direct
    # sum of its components' root lattices
    strata = enumerate_divisors() + enumerate_codim2()
    assert len(strata) == 54 + 495
    for s in strata:
        st = StableType(tuple(component(p[0], int(p[1:])) for p in s.label.split()))
        blocks = math.prod(root_lattice(c.kind, c.index).determinant() for c in st.components)
        assert blocks == stable_type_lattice(st).determinant(), s.label
