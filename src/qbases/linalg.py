"""Dense exact linear algebra over any field-like coefficient type.

Entries must support +, -, *, / and truthiness (nonzero test);
fractions.Fraction and RatFunc qualify, and so do Python ints, which
are promoted to Fraction wherever a pivot divides.  Matrices are lists
of lists.  rank divides only exactly, so an int matrix keeps int
entries throughout; rref, nullspace, solve and inverse return exact
rationals, never floats.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in mat]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        if inv != 1:
            if isinstance(inv, int):
                # int / int is a float
                inv = Fraction(inv)
            rows[r] = [x / inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rank(mat):
    """Rank by fraction-free (Bareiss) elimination.

    Each row below the pivot p becomes (p row - f pivot row) / p', with
    p' the previous pivot.  Every entry stays a minor of mat, so the
    quotient is exact: ints divide with // and stay ints, other entries
    divide with /.
    """
    rows = [list(row) for row in mat]
    r, prev = 0, None
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p, top = rows[r][c], rows[r][c + 1:]
        for row in rows[r + 1:]:
            f = row[c]
            new = [p * x - f * y for x, y in zip(row[c + 1:], top)]
            if prev is not None:
                # an int minor has an int previous pivot
                new = [x // prev if type(x) is int else x / prev
                       for x in new]
            row[c + 1:] = new
        prev = p
        r += 1
        if r == len(rows):
            break
    return r


def nullspace(mat):
    """Basis of the right kernel, one vector per free column."""
    if not mat:
        return []
    m = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """Solve mat @ x = rhs; returns x or raises ValueError (no/ambiguous
    solution).  rhs is a flat vector."""
    if not mat:
        if any(rhs):
            raise ValueError("inconsistent linear system")
        return []
    m = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    rows, pivots = rref(aug)
    if m in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < m:
        raise ValueError("underdetermined linear system")
    x = [None] * m
    for r, c in enumerate(pivots):
        x[c] = rows[r][m]
    return x


def inverse(mat):
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]
