"""Exact linear algebra kernels, in integers until the last division.

Rational systems are scaled row-wise to integer matrices and eliminated
fraction-free (Bareiss, partial pivoting by magnitude): every entry stays a
minor of the scaled matrix, so every division in the elimination is exact.
One forward elimination and one integer back-substitution serve both the
solve and the kernel.  The last pivot d is the determinant of the
(row-permuted) scaled matrix on its pivot rows and columns; for a grounded
weighted Laplacian it is, up to sign, a weighted spanning-tree count
(Kirchhoff's matrix-tree theorem).  By Cramer's rule |d| x is integral, so
U y = |d| b is back-substituted in integers.
`solve_columns` does this for each right-hand side and returns |d| with the
integer y: no Fraction leaves it or `invert`.  A caller that reads many
entries over the one denominator (the vertex resistance table) stays in
integers and makes a Fraction only for a value it hands on.  `nullspace`
back-substitutes each column without a pivot in place of a right-hand side.
Every division that theory says is exact is checked: a remainder raises
`InexactDivision`.
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


def _bareiss_forward(m, ncols):
    """Eliminate below the pivots of the first `ncols` columns, in place.

    Fraction-free one-step division with partial pivoting on absolute value,
    lowest row index on ties.  A column with no nonzero entry left below the
    pivots so far is skipped.  Entries stay integral throughout (they are
    minors of the scaled matrix), so every division is exact; a remainder
    raises `InexactDivision`.  Returns the pivot columns, in order, and the
    last pivot (1 when there is none); pivot i sits in row i.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    pivot_cols = []
    prev = 1
    for k in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        pivot_row = max(range(r, nrows), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pk = m[r][k]
        for i in range(r + 1, nrows):
            mik = m[i][k]
            if mik == 0 and pk == prev:
                continue
            row_i = m[i]
            row_k = m[r]
            for j in range(k + 1, width):
                # `_exact_quotient` inlined: this loop is the O(n^3) part
                row_i[j], remainder = divmod(row_i[j] * pk - mik * row_k[j], prev)
                if remainder:
                    raise InexactDivision(f"a division by a {prev.bit_length()}-bit integer left a remainder")
            row_i[k] = 0
        prev = pk
        pivot_cols.append(k)
    return pivot_cols, prev


def _back_substitute(m, pivot_cols, d, cols):
    """Integer y with U y = d b for each column index in `cols`, b that column of m.

    U is m on its pivot rows and pivot columns, triangular with the pivots
    on its diagonal; when |d| x is integral (Cramer's rule), each quotient
    is exact and checked.
    """
    rank = len(pivot_cols)
    u = [[m[i][c] for c in pivot_cols] for i in range(rank)]
    ys = []
    for col in cols:
        y = [0] * rank
        for i in range(rank - 1, -1, -1):
            row = u[i]
            s = d * m[i][col]
            for j in range(i + 1, rank):
                s -= row[j] * y[j]
            y[i] = _exact_quotient(s, row[i])
        ys.append(y)
    return ys


def solve_columns(a_rows, b_columns):
    """Solve A x = b for several right-hand sides, exactly.

    `a_rows` is an n-by-n matrix and `b_columns` a list of length-n vectors;
    entries may be ints or Fractions.  Returns (d, ys): d > 0, and one list
    ys[c] of ints per input column with x = ys[c] / d (d = 1 when n = 0).
    Raises SingularMatrix when A is singular.
    """
    n = len(a_rows)
    aug = [list(a_rows[i]) + [col[i] for col in b_columns] for i in range(n)]
    m = _scaled_int_rows(aug)
    pivot_cols, last = _bareiss_forward(m, n)
    if len(pivot_cols) < n:
        k = next((i for i, c in enumerate(pivot_cols) if c != i), len(pivot_cols))
        raise SingularMatrix(f"no pivot in column {k}")
    # |d| x is integral as well as d x
    d = abs(last)
    return d, _back_substitute(m, pivot_cols, d, range(n, n + len(b_columns)))


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

    The forward elimination of `solve_columns` on the row-scaled integer
    matrix, then one back-substitution per free column fc: the basis vector
    is the unique kernel vector with 1 at fc and 0 at the other free
    columns, e_fc with -y / d at the pivot columns, where U y = d u_fc and
    d is the absolute value of the last pivot.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m = _scaled_int_rows(rows)
    pivot_cols, last = _bareiss_forward(m, ncols)
    d = abs(last)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc, y in zip(free_cols, _back_substitute(m, pivot_cols, d, free_cols)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, num in zip(pivot_cols, y):
            v[pc] = Fraction(-num, d)
        basis.append(v)
    return basis
