"""Dense exact linear algebra over any field-like coefficient type.

Entries must support +, -, *, / and truthiness (nonzero test); both
fractions.Fraction and RatFunc qualify.  Matrices are lists of lists.
"""

from __future__ import annotations


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


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


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
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def nullspace(mat, one, zero):
    """Basis of the right kernel, one vector per free column."""
    if not mat:
        return []
    m = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - rows[r][fc]
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


def inverse(mat, one, zero):
    n = len(mat)
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]
