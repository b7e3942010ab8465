"""Exact linear algebra kernels, in integers until the last division.

Rational systems are scaled row-wise to integer matrices and eliminated
fraction-free (Bareiss, partial pivoting by magnitude): every entry stays a
minor of the scaled matrix, so every division in the elimination is exact.
The last pivot d is then the determinant of the (row-permuted) scaled
matrix; for a grounded weighted Laplacian it is, up to sign, a weighted
spanning-tree count (Kirchhoff's matrix-tree theorem).  By Cramer's rule
|d| x is integral, so `solve_columns` back-substitutes y = |d| x in integers
and returns |d| with the integer y: no Fraction leaves it or `invert`.  A
caller that reads many entries over the one denominator (the vertex
resistance table) stays in integers and makes a Fraction only for a value
it hands on.  `nullspace` runs the same elimination Gauss-Jordan style,
leaving d times the reduced row echelon form, and divides by d once per
basis entry.  Every division that theory says is exact is checked: a
remainder raises `InexactDivision`.
"""

from fractions import Fraction
from math import lcm


class SingularMatrix(Exception):
    """Internal: the system has no unique solution.

    Callers guard their preconditions (e.g. connectivity makes a grounded
    Laplacian positive definite), so reaching this is a bug, not bad input.
    """


class InexactDivision(ArithmeticError):
    """Internal: a division the elimination proves exact left a remainder."""


def _exact_quotient(num, den):
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"a division by a {den.bit_length()}-bit integer left a remainder")
    return quotient


def _scaled_int_rows(rows):
    """Scale each row by the lcm of its denominators; returns integer rows."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([f.numerator * (mult // f.denominator) for f in fracs])
    return out


def _bareiss_forward(m, n, width):
    """Eliminate below the diagonal of the first n columns, in place.

    Fraction-free one-step division with partial pivoting on absolute value.
    Entries stay integral throughout (they are minors of the scaled matrix),
    so every division is exact; a remainder raises `InexactDivision`.
    """
    prev = 1
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0:
            raise SingularMatrix(f"no pivot in column {k}")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            if mik == 0 and pk == prev:
                continue
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, width):
                # `_exact_quotient` inlined: this loop is the O(n^3) part
                row_i[j], remainder = divmod(row_i[j] * pk - mik * row_k[j], prev)
                if remainder:
                    raise InexactDivision(f"a division by a {prev.bit_length()}-bit integer left a remainder")
            row_i[k] = 0
        prev = pk
    return m


def solve_columns(a_rows, b_columns):
    """Solve A x = b for several right-hand sides, exactly.

    `a_rows` is an n-by-n matrix and `b_columns` a list of length-n vectors;
    entries may be ints or Fractions.  Returns (d, ys): d > 0, and one list
    ys[c] of ints per input column with x = ys[c] / d (d = 1 when n = 0).
    Raises SingularMatrix when A is singular.
    """
    n = len(a_rows)
    k = len(b_columns)
    aug = [list(a_rows[i]) + [col[i] for col in b_columns] for i in range(n)]
    m = _scaled_int_rows(aug)
    _bareiss_forward(m, n, n + k)
    # |d| x is integral as well as d x; U y = |d| b' is solved exactly, row by row
    d = abs(m[n - 1][n - 1]) if n else 1
    solutions = []
    for c in range(k):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            s = d * row[n + c]
            for j in range(i + 1, n):
                s -= row[j] * y[j]
            y[i] = _exact_quotient(s, row[i])
        solutions.append(y)
    return d, solutions


def invert(a_rows):
    """Exact inverse of a small nonsingular matrix, as (d, Y).

    d > 0 and Y is a list of integer rows with inverse = Y / d.
    """
    n = len(a_rows)
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    d, cols = solve_columns(a_rows, identity)
    # cols[j][i] is entry (i, j) of the inverse
    return d, [[cols[j][i] for j in range(n)] for i in range(n)]


def nullspace(rows):
    """Basis of the kernel of a rational matrix (list of Fraction vectors).

    Fraction-free Gauss-Jordan on the row-scaled integer matrix: each pivot
    pk turns every other row, above and below, into
    (row * pk - row[c] * pivot_row) / prev, prev the pivot before, an exact
    division.  The pivot is the largest absolute value in its column, lowest
    row index on ties; a column with no nonzero entry left is skipped.  At
    the end each pivot row holds the last pivot d in its pivot column, so the
    matrix is d times its reduced row echelon form, which is unique: the
    basis vector of a free column fc is e_fc minus the entries m[i][fc] / d
    at the pivot columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m = _scaled_int_rows(rows)
    nrows = len(m)
    pivot_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        if m[pivot_row][c] == 0:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row_r = m[r]
        pk = row_r[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [_exact_quotient(x * pk - f * y, prev) for x, y in zip(m[i], row_r)]
        prev = pk
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = Fraction(-m[i][fc], prev)
        basis.append(v)
    return basis
