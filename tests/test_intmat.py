"""Exact linear algebra: rank, determinant, unimodularity, kernels, circuits."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from diagminors import fixtures
from diagminors.encoding import build_AG
from diagminors.graphs import Graph
from diagminors.intmat import (IntMatrix, IntVector, det, is_totally_unimodular,
                               _lattice_classes, kernel_lattice_basis,
                               matrix_circuits, matrix_graver, rank)
from references import _hyperplane_circuits, _pottier_graver


def _rank_fractions(entries):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    a = [[Fraction(e) for e in row] for row in entries]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _det_cofactor(entries):
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_intvector_basics():
    v = IntVector((0, 3, -6, 0, 9))
    assert v.support == (1, 2, 4)
    assert not v.is_primitive
    w = v.primitive_normalized()
    assert w.entries == (0, 1, -2, 0, 3)
    assert w.is_primitive
    neg = IntVector((0, -2, 4)).primitive_normalized()
    assert neg.entries == (0, 1, -2)
    assert IntVector((1, 2)).dot(IntVector((3, -1))) == 1
    assert IntVector(()).primitive_normalized().entries == ()


def test_intmatrix_construction_and_errors():
    m = IntMatrix([[1, 2], [3, 4]], ["a", "b"])
    assert (m.rows, m.cols) == (2, 2)
    assert m.column(1).entries == (2, 4)
    assert m.row(0).entries == (1, 2)
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert m.submatrix((1,), (0,)).entries == ((3,),)
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], ["a"])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], ["a", "a"])


def test_rank_examples():
    assert rank(IntMatrix([[2, 4], [1, 2]])) == 1
    assert rank(IntMatrix([[1, 0], [0, 1]])) == 2
    assert rank(IntMatrix([[0, 0], [0, 0]])) == 0
    assert rank(IntMatrix([[1, 2, 3]])) == 1


def test_rank_random_against_fraction_oracle():
    rnd = random.Random(1131)
    for _ in range(60):
        nrows = rnd.randint(1, 5)
        ncols = rnd.randint(1, 6)
        entries = [[rnd.randint(-4, 4) for _ in range(ncols)]
                   for _ in range(nrows)]
        assert rank(IntMatrix(entries)) == _rank_fractions(entries)


def test_det_examples():
    assert det(IntMatrix([[1, 1], [1, -1]])) == -2
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[2, 4], [1, 2]])) == 0
    assert det(IntMatrix([])) == 1
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3]]))


def test_det_random_against_cofactor_and_big_integers():
    rnd = random.Random(2718)
    for _ in range(40):
        n = rnd.randint(1, 4)
        entries = [[rnd.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(entries)) == _det_cofactor(entries)
    big = [[rnd.randint(-10**12, 10**12) for _ in range(3)] for _ in range(3)]
    assert det(IntMatrix(big)) == _det_cofactor(big)


def test_totally_unimodular_yes():
    # incidence matrix of a 4-cycle (bipartite), a classic unimodular matrix
    inc = IntMatrix([[1, 0, 0, 1],
                     [1, 1, 0, 0],
                     [0, 1, 1, 0],
                     [0, 0, 1, 1]])
    tu, witness = is_totally_unimodular(inc)
    assert tu and witness is None
    # interval (consecutive-ones) matrix
    tu, witness = is_totally_unimodular(IntMatrix([[1, 1, 0], [0, 1, 1],
                                                   [1, 1, 1]]))
    assert tu and witness is None


def test_totally_unimodular_no_with_witness():
    tu, witness = is_totally_unimodular(IntMatrix([[1, 1], [1, -1]]))
    assert not tu
    assert witness == ((0, 1), (0, 1), -2)
    # an entry outside {-1, 0, 1} is an immediate 1x1 witness
    tu, witness = is_totally_unimodular(IntMatrix([[1, 0], [0, 2]]))
    assert not tu and witness == ((1,), (1,), 2)
    # incidence matrix of a triangle (odd cycle): minor of determinant +-2
    tri = IntMatrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    tu, witness = is_totally_unimodular(tri)
    assert not tu
    assert witness.det in (-2, 2)
    assert det(tri.submatrix(witness.rows, witness.cols)) == witness.det


def test_totally_unimodular_random_against_minor_scan():
    rnd = random.Random(99)
    for _ in range(30):
        entries = [[rnd.choice((-1, 0, 0, 1)) for _ in range(4)]
                   for _ in range(4)]
        m = IntMatrix(entries)
        brute = all(abs(det(m.submatrix(rs, cs))) <= 1
                    for size in range(1, 5)
                    for rs in combinations(range(4), size)
                    for cs in combinations(range(4), size))
        tu, witness = is_totally_unimodular(m)
        assert tu == brute
        if not tu:
            assert det(m.submatrix(witness.rows, witness.cols)) == witness.det
            assert witness.det not in (-1, 0, 1)


def test_kernel_lattice_basis_small():
    # configuration of a single edge: kernel is spanned by (1, 1, -1, -1)
    m = IntMatrix.from_columns([(1, 1, -1), (0, 0, 1), (1, 0, 0), (0, 1, 0)])
    assert kernel_lattice_basis(m) == [IntVector((1, 1, -1, -1))]
    # full column rank means an empty kernel
    assert kernel_lattice_basis(IntMatrix([[1, 0], [0, 1]])) == []
    # a saturated kernel even when the obvious solution is non-primitive
    m = IntMatrix([[2, -4]])
    assert kernel_lattice_basis(m) == [IntVector((2, 1))]


def test_kernel_lattice_basis_random():
    rnd = random.Random(4242)
    for _ in range(50):
        nrows = rnd.randint(1, 4)
        ncols = rnd.randint(1, 6)
        m = IntMatrix([[rnd.randint(-3, 3) for _ in range(ncols)]
                       for _ in range(nrows)])
        basis = kernel_lattice_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert v.is_primitive
            assert all(m.row(i).dot(v) == 0 for i in range(m.rows))
        if basis:
            stack = IntMatrix([list(v.entries) for v in basis])
            assert rank(stack) == len(basis)


def test_matrix_circuits_single_edge():
    m = IntMatrix.from_columns([(1, 1, -1), (0, 0, 1), (1, 0, 0), (0, 1, 0)])
    assert matrix_circuits(m) == [IntVector((1, 1, -1, -1))]
    assert matrix_circuits(IntMatrix([[1, 0], [0, 1]])) == []


def _random_matrices():
    """The seeded matrices the circuit and Graver property tests share."""
    rnd = random.Random(6060)
    for _ in range(25):
        nrows = rnd.randint(1, 3)
        ncols = rnd.randint(2, 6)
        yield IntMatrix([[rnd.randint(-2, 2) for _ in range(ncols)]
                         for _ in range(nrows)])


def test_matrix_circuits_properties_random():
    for m in _random_matrices():
        out = matrix_circuits(m)
        assert out == _hyperplane_circuits(m)
        keys = [(len(v.support), v.support) for v in out]
        assert keys == sorted(keys)
        supports = [set(v.support) for v in out]
        for v in out:
            assert v.support
            assert v.is_primitive
            assert v.entries[v.support[0]] > 0
            assert all(m.row(i).dot(v) == 0 for i in range(m.rows))
        for a, b in combinations(supports, 2):
            assert not a < b and not b < a


def _below(u, v):
    """Conformal order: u's entries are zero or v's sign, none larger."""
    return all(a == 0 or (a * b > 0 and abs(a) <= abs(b))
               for a, b in zip(u, v))


def test_matrix_graver_properties_random():
    for m in _random_matrices():
        out = matrix_graver(m)
        keys = [(len(v.support), v.support, v.entries) for v in out]
        assert keys == sorted(set(keys))
        for v in out:
            assert v.support
            assert v.is_primitive
            assert v.entries[v.support[0]] > 0
            assert all(m.row(i).dot(v) == 0 for i in range(m.rows))
        signed = [v.entries for v in out] + [
            tuple(-e for e in v.entries) for v in out]
        for u, v in combinations(signed, 2):
            assert not _below(u, v) and not _below(v, u)
        assert set(_hyperplane_circuits(m)) <= set(out)
    assert matrix_graver(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_matrix_graver_box_oracle():
    # Inside a box, the Graver elements are exactly the conformally minimal
    # nonzero kernel vectors of the box: whatever lies below a box vector
    # lies in the box too.
    mats = [IntMatrix([[1, 2, 3]]), IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])]
    mats += [m for m in _random_matrices() if m.cols <= 4]
    for m in mats:
        box = [v for v in product(range(-4, 5), repeat=m.cols)
               if any(v) and all(sum(a * b for a, b in zip(row, v)) == 0
                                 for row in m.entries)]
        minimal = {IntVector(v).primitive_normalized() for v in box
                   if not any(u != v and _below(u, v) for u in box)}
        inside = {v for v in matrix_graver(m)
                  if all(abs(e) <= 4 for e in v.entries)}
        assert inside == minimal
    assert [v.entries for v in matrix_graver(IntMatrix([[1, 2, 3]]))] == [
        (2, -1, 0), (3, 0, -1), (0, 3, -2), (1, -2, 1), (1, 1, -1)]
    # twisted cubic: the four circuits and x1*x4 - x2*x3
    cubic = IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    assert [v.entries for v in matrix_graver(cubic)] == [
        v.entries for v in _hyperplane_circuits(cubic)] + [(1, -1, -1, 1)]


def test_matrix_graver_matches_pottier_reference():
    # one representative per sign class against the completion over a
    # lattice basis and its negatives: the same list, order included
    rnd = random.Random(1996)
    mats = [IntMatrix([[rnd.randint(-2, 2) for _ in range(ncols)]
                       for _ in range(rnd.randint(1, 4))])
            for ncols in [rnd.randint(2, 6) for _ in range(150)]]
    for _ in range(30):
        pairs = list(combinations(range(1, rnd.randint(2, 7) + 1), 2))
        edges = rnd.sample(pairs, rnd.randint(1, min(len(pairs), 7)))
        mats.append(build_AG(Graph((), edges)).matrix)
    mats += [build_AG(g).matrix for g in fixtures.fixture_battery().values()]
    # coordinates equal, negated or zero on the whole kernel lattice, which
    # matrix_graver merges: a row e_j - sign * e_new ties a new coordinate
    # to coordinate j; a column independent of the rest and the diagonal
    # x77 of an isolated vertex are zero on the lattice. Duplicated and
    # negated columns tie nothing (they put e_j -+ e_new in the kernel).
    def tied(rows, j, sign):
        tie = [0] * len(rows[0]) + [-sign]
        tie[j] = 1
        return IntMatrix([list(row) + [0] for row in rows] + [tie])

    cubic = [[1, 1, 1, 1], [0, 1, 2, 3]]
    merged = [tied(cubic, 1, 1), tied(cubic, 2, -1),
              IntMatrix([row + [0] for row in cubic] + [[0, 0, 0, 0, 1]]),
              build_AG(Graph((7,), [(1, 2), (2, 3), (1, 3), (3, 4)])).matrix]
    merged += [tied(m.entries, rnd.randrange(m.cols), rnd.choice((1, -1)))
               for m in mats[:100] if m.cols <= 4]
    for m in merged:
        basis = [v.entries for v in kernel_lattice_basis(m)]
        assert len(_lattice_classes(basis, m.cols)[0]) < m.cols
    mats += merged
    mats.append(IntMatrix([row + [row[1], -row[2]] for row in cubic]))
    for m in mats:
        assert matrix_graver(m) == _pottier_graver(m)
