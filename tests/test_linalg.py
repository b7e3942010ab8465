"""The integer kernels of `linalg` against the Fraction reference routines.

`solve_columns` back-substitutes in integers and returns integer
numerators over the last pivot's absolute value; `nullspace` runs a
fraction-free Gauss-Jordan.  Both must agree exactly with the Fraction
routines in `helpers`, and every solution is also checked by substituting
it back into the system.
"""

import random
from fractions import Fraction

import pytest

from tropinv import linalg
from tropinv.linalg import InexactDivision, SingularMatrix, invert, nullspace, solve_columns

from helpers import reference_nullspace, reference_solve_columns


def _entry(rng, fractions):
    num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 12)) if fractions else num


def _matrix(rng, nrows, ncols, fractions, rank=None):
    """Seeded nrows x ncols matrix; with `rank`, a product through `rank` inner dimensions."""
    if rank is None:
        return [[_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    left = _matrix(rng, nrows, rank, fractions)
    right = _matrix(rng, rank, ncols, fractions)
    return [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]


def _times(a_rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in a_rows]


def _solve(a_rows, b_columns):
    """`solve_columns`, checked to return integers over d > 0, read as Fractions."""
    d, ys = solve_columns(a_rows, b_columns)
    assert type(d) is int and d > 0
    assert all(type(y) is int for col in ys for y in col)
    return [[Fraction(y, d) for y in col] for col in ys]


def _assert_solve_matches_reference(a_rows, b_columns):
    try:
        expected = reference_solve_columns(a_rows, b_columns)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            solve_columns(a_rows, b_columns)
        return False
    got = _solve(a_rows, b_columns)
    assert got == expected
    assert all(isinstance(v, Fraction) for x in got for v in x)
    for x, b in zip(got, b_columns):
        assert _times(a_rows, x) == list(b)
    return True


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_solve_matches_reference_on_seeded_matrices(fractions):
    rng = random.Random(8 + fractions)
    solved = singular = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        singular_rank = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.2 else None
        a_rows = _matrix(rng, n, n, fractions, rank=singular_rank)
        b_columns = _matrix(rng, rng.randint(1, 3), n, fractions)
        if _assert_solve_matches_reference(a_rows, b_columns):
            solved += 1
        else:
            singular += 1
    assert solved > 100 and singular > 10


def test_solve_edge_cases():
    assert _solve([[Fraction(3, 4)]], [[Fraction(1, 2)], [-3]]) == [[Fraction(2, 3)], [-4]]
    assert _solve([[-5]], [[10]]) == reference_solve_columns([[-5]], [[10]]) == [[-2]]
    # a negative last pivot still returns d > 0
    assert solve_columns([[-5]], [[10]]) == (5, [[-10]])
    assert _solve([], [[]]) == reference_solve_columns([], [[]]) == [[]]
    assert solve_columns([], []) == (1, [])
    for a_rows in ([[0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[Fraction(1, 3), 1], [1, 3]]):
        _assert_solve_matches_reference(a_rows, [[1] * len(a_rows)])
        with pytest.raises(SingularMatrix):
            solve_columns(a_rows, [[1] * len(a_rows)])


def test_invert_grounded_laplacians():
    """The inverse of seeded grounded weighted Laplacians, the engine's own systems."""
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 9)
        lap = [[Fraction(0)] * n for _ in range(n)]
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        for i, j in edges:
            if i == j:
                continue
            c = 1 / Fraction(rng.randint(1, 12), rng.randint(1, 12))
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
        reduced = [row[1:] for row in lap[1:]]
        d, numerators = invert(reduced)
        assert type(d) is int and d > 0
        assert all(type(y) is int for row in numerators for y in row)
        inverse = [[Fraction(y, d) for y in row] for row in numerators]
        identity = [[Fraction(int(i == j)) for j in range(n - 1)] for i in range(n - 1)]
        assert [_times(reduced, col) for col in zip(*inverse)] == identity
        assert [list(col) for col in zip(*inverse)] == reference_solve_columns(reduced, identity)


def _assert_nullspace_matches_reference(rows):
    basis = nullspace(rows)
    assert basis == reference_nullspace(rows)
    for v in basis:
        assert all(isinstance(x, Fraction) for x in v)
        assert _times(rows, v) == [0] * len(rows)
    return basis


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_nullspace_matches_reference_on_seeded_matrices(fractions):
    rng = random.Random(18 + fractions)
    shapes = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        rank = rng.randint(0, min(nrows, ncols))
        rows = _matrix(rng, nrows, ncols, fractions, rank=rank)
        basis = _assert_nullspace_matches_reference(rows)
        shapes.add(("wide" if ncols > nrows else "tall", len(basis) > 0, rank < min(nrows, ncols)))
    # wide and tall matrices, rank-deficient ones, with and without a kernel
    assert len(shapes) >= 5


def test_nullspace_edge_cases():
    assert nullspace([]) == reference_nullspace([]) == []
    assert _assert_nullspace_matches_reference([[0]]) == [[1]]
    assert _assert_nullspace_matches_reference([[Fraction(5, 7)]]) == []
    zero = [[0] * 4 for _ in range(3)]
    assert _assert_nullspace_matches_reference(zero) == [
        [int(i == j) for i in range(4)] for j in range(4)
    ]
    assert _assert_nullspace_matches_reference([[1, 2, 3]]) == [[-2, 1, 0], [-3, 0, 1]]
    # a zero column between pivots, and a negative last pivot
    rows = [[2, 0, 1, 4], [-6, 0, 5, 1], [4, 0, -3, -1]]
    assert _assert_nullspace_matches_reference(rows)[0][1] == 1
    assert _assert_nullspace_matches_reference([[3, 1], [1, -1]]) == []


def test_nullspace_of_a_fit_system():
    """A fit-shaped system: monomial rows against a value times lower-degree rows."""
    rng = random.Random(5)
    rows = []
    for _ in range(12):
        x, y = rng.randint(1, 97), rng.randint(1, 97)
        value = Fraction(x * y, 12 * (x + y))  # phi-like: P/Q with P = x y, Q = 12 (x + y)
        rows.append([x * x, x * y, y * y] + [-value * x, -value * y])
    basis = _assert_nullspace_matches_reference(rows)
    assert basis == [[0, Fraction(1, 12), 0, 1, 1]]


def test_exact_quotient_refuses_a_remainder():
    assert linalg._exact_quotient(-12, 4) == -3
    assert linalg._exact_quotient(12, -4) == -3
    with pytest.raises(InexactDivision):
        linalg._exact_quotient(7, 2)
    with pytest.raises(InexactDivision):
        linalg._exact_quotient(-7, 2)


def test_forward_elimination_refuses_a_remainder():
    # the rows must be integers; a stray Fraction makes the first division
    # inexact, and flooring it would eliminate a different system
    with pytest.raises(InexactDivision):
        linalg._bareiss_forward([[2, 1], [1, Fraction(1, 3)]], 2, 2)
    assert linalg._bareiss_forward([[2, 1], [1, 3]], 2, 2) == [[2, 1], [0, 5]]
