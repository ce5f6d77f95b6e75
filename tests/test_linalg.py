"""Exact linear algebra over Q, checked against independent exact oracles:
the Leibniz permutation sum for determinants and minors, and Descartes'
rule of signs on the characteristic polynomial for the inertia."""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicforms._linalg import det, inertia, rational_inverse, row_reduce
from cubicforms.fqm import U_GRAM, W_GRAM
from lattices import direct_sum

entries = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 1, 2, 3)))


def _sign(perm) -> int:
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def leibniz(mat) -> F:
    n = len(mat)
    return sum(
        (_sign(p) * prod((mat[i][p[i]] for i in range(n)), start=F(1))
         for p in permutations(range(n))),
        F(0),
    )


def minor(mat, rows, cols) -> F:
    return leibniz([[mat[r][c] for c in cols] for r in rows])


def rank(mat, cols) -> int:
    """Largest k with a nonzero k x k minor in the given columns."""
    for k in range(min(len(mat), len(cols)), 0, -1):
        for rs in combinations(range(len(mat)), k):
            if any(minor(mat, rs, cs) for cs in combinations(cols, k)):
                return k
    return 0


@st.composite
def matrices(draw, rows=st.integers(1, 5), cols=None, singular=False):
    m = draw(rows)
    n = m if cols is None else draw(cols)
    mat = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if singular and m > 1:
        # the last row becomes a combination of the others
        cs = [draw(entries) for _ in range(m - 1)]
        mat[-1] = [sum((c * row[j] for c, row in zip(cs, mat)), F(0)) for j in range(n)]
    return mat


@st.composite
def unimodular(draw, n):
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            c = draw(st.integers(-3, 3))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        elif op == "swap":
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = [-x for x in p[i]]
    return p


@st.composite
def symmetric(draw, n=st.integers(1, 4)):
    size = draw(n)
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    assume(leibniz(a) != 0)
    return a


def descartes_inertia(a) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a nondegenerate symmetric
    matrix: its characteristic polynomial sum_k (-1)^k E_k x^(n-k), E_k the
    sum of principal k-minors, has only real roots, so sign changes count
    them exactly."""
    n = len(a)
    e = [
        sum((minor(a, s, s) for s in combinations(range(n), k)), F(0))
        for k in range(n + 1)
    ]
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]  # x^n down to x^0
    mirrored = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]  # p(-x)

    def changes(seq):
        signs = [c > 0 for c in seq if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(coeffs), changes(mirrored)


def transpose(m):
    return [list(col) for col in zip(*m)]


def mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a
    ]


@settings(deadline=None, max_examples=80)
@given(st.one_of(matrices(), matrices(singular=True)))
def test_det_matches_leibniz(mat):
    assert det(mat) == leibniz(mat)


def test_det_of_empty_matrix_is_one():
    assert det([]) == 1


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rational_inverse_is_left_inverse(mat):
    assume(leibniz(mat) != 0)
    n = len(mat)
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert mul(rational_inverse(mat), mat) == identity


@settings(deadline=None, max_examples=40)
@given(matrices(rows=st.integers(2, 5), singular=True))
def test_rational_inverse_rejects_singular(mat):
    with pytest.raises(ValueError, match="singular matrix"):
        rational_inverse(mat)


@settings(deadline=None, max_examples=60)
@given(st.one_of(
    matrices(rows=st.integers(1, 4), cols=st.integers(1, 6)),
    matrices(rows=st.integers(2, 4), cols=st.integers(1, 6), singular=True),
))
def test_row_reduce_pivots_are_earliest_independent_columns(mat):
    greedy: list[int] = []
    for j in range(len(mat[0])):
        if rank(mat, greedy + [j]) > len(greedy):
            greedy.append(j)
    reduced, pivots, _ = row_reduce(mat)
    assert pivots == greedy
    for i, col in enumerate(pivots):
        assert [row[col] for row in reduced] == [int(r == i) for r in range(len(mat))]
    assert all(not any(row) for row in reduced[len(pivots):])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_row_reduce_keeps_trailing_columns_and_signs_the_pivot_product(data):
    mat = data.draw(matrices(rows=st.integers(1, 4)))
    extra = [[data.draw(entries)] for _ in mat]
    n = len(mat)
    reduced, pivots, product = row_reduce([r + e for r, e in zip(mat, extra)], n)
    assert pivots == sorted(pivots) and all(p < n for p in pivots)
    if len(pivots) == n:
        assert product == leibniz(mat)
        # the trailing column is now the solution of mat x = extra
        x = [row[n] for row in reduced]
        assert mul(mat, [[v] for v in x]) == extra


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_inertia_invariant_under_unimodular_congruence(data):
    a = data.draw(symmetric())
    p = data.draw(unimodular(len(a)))
    congruent = mul(mul(transpose(p), a), p)
    assert inertia(congruent) == inertia(a) == descartes_inertia(a)


@settings(deadline=None, max_examples=40)
@given(symmetric(st.integers(1, 3)), symmetric(st.integers(1, 3)))
def test_inertia_adds_under_direct_sums(a, b):
    pa, na = inertia(a)
    pb, nb = inertia(b)
    assert inertia(direct_sum(a, b)) == (pa + pb, na + nb)


def test_inertia_of_hyperbolic_plane():
    assert inertia(U_GRAM) == (1, 1)
    assert inertia(direct_sum(W_GRAM, U_GRAM)) == (3, 1)
