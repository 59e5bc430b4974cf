"""Dense exact linear algebra: the division-free rank against the RREF
pivot count, and int input that must never produce a float."""

import random
from fractions import Fraction

import pytest

from qbases.laurent import RatFunc
from qbases.linalg import inverse, nullspace, rank, rref, solve


def ref_rank(mat):
    """The slow route: pivots of the reduced row echelon form."""
    return len(rref(mat)[1])


def _random_matrix(rng, n, m, kind):
    """An n x m matrix with entries in -3..3, about half of them zero,
    rank-deficient in about half of the draws (a row made from others)."""
    def entry():
        v = rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -3))
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return v
        return Fraction(v, rng.choice((1, 2, 3, -5)))

    mat = [[entry() for _ in range(m)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        i = rng.randrange(n)
        mat[i] = [sum(rng.choice((0, 1, -2)) * row[j]
                      for k, row in enumerate(mat) if k != i)
                  for j in range(m)]
    return mat


def _shapes():
    # 1 x N, N x 1, square, wide and tall
    return [(1, 5), (5, 1), (1, 1), (3, 3), (4, 6), (6, 4), (7, 7)]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_rank_two_routes_random(kind):
    rng = random.Random({"int": 1, "fraction": 2, "mixed": 3}[kind])
    for n, m in _shapes():
        for _ in range(40):
            mat = _random_matrix(rng, n, m, kind)
            assert rank(mat) == ref_rank(mat), mat


def test_rank_two_routes_zero_rows_and_columns():
    rng = random.Random(4)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_matrix(rng, n, m, "mixed")
        for i in rng.sample(range(n), rng.randint(0, n)):
            mat[i] = [0] * m
        for j in rng.sample(range(m), rng.randint(0, m)):
            for row in mat:
                row[j] = 0
        assert rank(mat) == ref_rank(mat), mat
    assert rank([[0, 0], [0, 0]]) == ref_rank([[0, 0], [0, 0]]) == 0
    assert rank([[0, -2], [0, -4]]) == ref_rank([[0, -2], [0, -4]]) == 1


def test_rank_two_routes_empty():
    for mat in ([], [[]], [[], [], []]):
        assert rank(mat) == ref_rank(mat) == 0
    # tuples of tuples, as preproj passes its arrow matrices
    assert rank(((1, 2), (2, 4))) == ref_rank(((1, 2), (2, 4))) == 1


def test_rank_two_routes_ratfunc():
    q = RatFunc({1: 1})
    one = RatFunc(1)
    a = [one, q, q * q + one]
    b = [q / (one + q), one, RatFunc(0)]
    dep = [x * q - y * (one - q) for x, y in zip(a, b)]
    for mat in ([a, b], [a, b, dep], [dep, a, b, [RatFunc(0)] * 3]):
        assert rank(mat) == ref_rank(mat)
    assert rank([a, b, dep]) == 2


def test_rank_is_exact_where_floats_are_not():
    # the determinant is -1, but dividing in floats cancels it away
    big = 10 ** 20
    assert rank([[big, 1], [big + 1, 1]]) == 2
    assert rank([[big, 1], [2 * big, 2]]) == 1
    # the last row is a combination of the others; eliminating it with
    # true division leaves rounding noise, so a float route reads rank 4
    rows = [[989, 98693, 10250, -89388], [-32127, 34027, 27383, 6151],
            [-20489, 24937, -6140, 52930]]
    k = (-42737, 32300, -63491)
    last = [sum(c * row[j] for c, row in zip(k, rows)) for j in range(4)]
    assert rank(rows + [last]) == ref_rank(rows + [last]) == 3


def _entries(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _entries(x)
    else:
        yield obj


def _as_fractions(mat):
    return [[Fraction(x) for x in row] for row in mat]


def test_int_input_never_gives_floats():
    rng = random.Random(5)
    for n, m in _shapes():
        for _ in range(20):
            mat = _random_matrix(rng, n, m, "int")
            frac = _as_fractions(mat)
            rows, pivots = rref(mat)
            assert not any(isinstance(x, float) for x in _entries(rows))
            assert (rows, pivots) == rref(frac)
            kernel = nullspace(mat)
            assert not any(isinstance(x, float) for x in _entries(kernel))
            assert kernel == nullspace(frac)
            if n == m and len(pivots) == n:
                inv = inverse(mat)
                assert not any(isinstance(x, float)
                               for x in _entries(inv))
                assert inv == inverse(frac)
                rhs = [rng.randint(-3, 3) for _ in range(n)]
                x = solve(mat, rhs)
                assert not any(isinstance(v, float) for v in x)
                assert x == solve(frac, [Fraction(v) for v in rhs])


def test_int_inverse_is_exact():
    inv = inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    inv = inverse([[3]])
    assert inv == [[Fraction(1, 3)]] and type(inv[0][0]) is Fraction
