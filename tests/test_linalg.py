"""Exact linear algebra over Z, checked against independent exact oracles:
the Leibniz permutation sum for determinants and minors, Descartes' rule of
signs on the characteristic polynomial for the inertia, and the Fraction
eliminations that the fraction-free ones replaced.  ``_linalg`` takes
integer matrices only: rational draws are fed to it scaled to integers, row
by row for ``row_reduce`` (the same reduced rows) and by one positive lcm
for ``inertia`` (the same inertia), while the oracles see the rational
matrix.  ``row_reduce`` answers in integers, so its rows are compared with
the Fraction Gauss-Jordan rows at the scale it documents: every row over
the last pivot P.  ``fqm._scaled_inverse``, which reads d * G^-1, d and
det G off one ``row_reduce``, is checked here too."""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicforms._linalg import det, inertia, row_reduce
from cubicforms.fqm import E8_GRAM, U_GRAM, W_GRAM, _scaled_inverse
from lattices import direct_sum, lambda0_prime_gram
from test_package import _fraction_news

entries = st.integers(-6, 6)
rationals = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 1, 2, 3)))


def integral_rows(mat):
    """Each row times the lcm of its denominators: integer rows with the
    same reduced rows."""
    out = []
    for row in mat:
        s = lcm(1, *(F(x).denominator for x in row))
        out.append([int(x * s) for x in row])
    return out


def integral(mat):
    """The matrix times the lcm of all its denominators, one positive
    scalar: a symmetric matrix stays symmetric, with the same inertia."""
    s = lcm(1, *(F(x).denominator for row in mat for x in row))
    return [[int(x * s) for x in row] for row in mat]


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
        mat[-1] = [sum(c * row[j] for c, row in zip(cs, mat)) for j in range(n)]
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


@st.composite
def integer_matrices(draw, rows=st.integers(1, 5), singular=False):
    """Square integer matrices, as ``_scaled_inverse`` takes a Gram matrix."""
    n = draw(rows)
    mat = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    if singular and n > 1:
        cs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
        mat[-1] = [sum(c * row[j] for c, row in zip(cs, mat)) for j in range(n)]
    return mat


@settings(deadline=None, max_examples=60)
@given(integer_matrices())
def test_inverse_is_left_inverse(mat):
    # (d * G^-1) * G = d * I for the least d, with det G the Leibniz sum
    assume(leibniz(mat) != 0)
    n = len(mat)
    scaled, d, det_g = _scaled_inverse(mat)
    assert d > 0 and all(type(x) is int for row in scaled for x in row)
    assert mul(scaled, mat) == [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert gcd(d, *(x for row in scaled for x in row)) == 1
    assert type(det_g) is int and det_g == leibniz(mat)


@settings(deadline=None, max_examples=40)
@given(integer_matrices(rows=st.integers(2, 5), singular=True))
def test_inverse_rejects_singular(mat):
    with pytest.raises(ValueError, match="singular matrix"):
        _scaled_inverse(mat)


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
    rows, pivots, last, _ = row_reduce(mat)
    assert pivots == greedy
    for i, col in enumerate(pivots):
        assert [row[col] for row in rows] == [last * (r == i) for r in range(len(mat))]
    assert all(not any(row) for row in rows[len(pivots):])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_row_reduce_keeps_trailing_columns_and_signs_the_pivot_product(data):
    mat = data.draw(matrices(rows=st.integers(1, 4)))
    extra = [[data.draw(entries)] for _ in mat]
    n = len(mat)
    rows, pivots, last, product = row_reduce([r + e for r, e in zip(mat, extra)], n)
    assert pivots == sorted(pivots) and all(p < n for p in pivots)
    if len(pivots) == n:
        assert product == leibniz(mat)
        # the trailing column over the last pivot solves mat x = extra
        x = [F(row[n], last) for row in rows]
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


# ---------------------------------------------------------------------------
# the Fraction eliminations that row_reduce and inertia replaced, as oracles
# ---------------------------------------------------------------------------

def fraction_row_reduce(rows, ncols=None):
    """Gauss-Jordan over Q on Fraction rows, each pivot row divided by its
    lead: the pivot rule, swaps and row order that row_reduce keeps."""
    a = [[F(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    product = F(1)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            product = -product
        lead = a[r][col]
        product *= lead
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots, product


def fraction_inverse_and_det(mat):
    """G^-1 and det G from the Fraction Gauss-Jordan of [G | I], as the
    package computed them before ``_scaled_inverse`` read them in integers."""
    n = len(mat)
    reduced, pivots, product = fraction_row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n
    )
    assert len(pivots) == n
    return [row[n:] for row in reduced], product


def fraction_inertia(mat):
    """Symmetric reduction over Q: the first remaining nonzero diagonal entry
    pivots, and e_i += e_j makes one when every remaining one vanishes."""
    n = len(mat)
    a = [[F(x) for x in row] for row in mat]
    pos = neg = 0
    remaining = list(range(n))
    while remaining:
        k = next((i for i in remaining if a[i][i] != 0), None)
        if k is None:
            i = remaining[0]
            j = next(j for j in remaining if a[i][j] != 0)
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            k = i
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        remaining.remove(k)
        for i in remaining:
            if a[i][k]:
                f = a[i][k] / a[k][k]
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, neg


@st.composite
def eliminations(draw):
    """(rows, ncols): rational rows, often rank-deficient, each scaled to
    integers by the lcm of its denominators, with ncols up to the width, a
    zero leading column or a zero leading entry that forces a row swap."""
    m = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    mat = [[draw(rationals) for _ in range(width)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a later row becomes a combination of the rows before it
        r = draw(st.integers(1, m - 1))
        cs = [draw(rationals) for _ in range(r)]
        mat[r] = [sum((c * row[j] for c, row in zip(cs, mat)), F(0)) for j in range(width)]
    shape = draw(st.sampled_from(("plain", "zero-column", "swap")))
    if shape == "zero-column":
        for row in mat:
            row[0] = F(0)
    elif shape == "swap":
        mat[0][0] = F(0)
    ncols = draw(st.one_of(st.none(), st.integers(0, width)))
    return integral_rows(mat), ncols


def assert_matches_fraction_oracle(mat, ncols):
    """The integer answer of row_reduce against the Fraction rows of the
    same integer matrix: the same pivots and product, and every row the
    reduced row times the last pivot P."""
    rows, pivots, last, product = row_reduce(mat, ncols)
    reduced, want_pivots, want_product = fraction_row_reduce(mat, ncols)
    assert (pivots, product) == (want_pivots, want_product)
    assert all(type(x) is int for row in rows for x in row)
    assert type(last) is int and type(product) is int
    assert rows == [[last * x for x in want] for want in reduced]


@settings(deadline=None, max_examples=200)
@given(eliminations())
def test_row_reduce_matches_fraction_oracle(case):
    assert_matches_fraction_oracle(*case)


@pytest.mark.parametrize(
    "mat, ncols",
    [
        ([[0, 1], [1, 0]], None),  # the first column pivots on row 1
        ([[0, 0, 1], [0, 2, 3]], None),  # a zero leading column, then a swap
        ([[1, 2, 5], [2, 4, 7]], 2),  # rank 1 in the eliminated columns
        # [[1/2, 1/3, 1], [1/4, 1/6, 2/5]], each row times its lcm
        ([[3, 2, 6], [15, 10, 24]], 2),
        ([[0, 0], [0, 0]], None),  # rank 0: no pivot, product 1
    ],
)
def test_row_reduce_pinned_cases_match_fraction_oracle(mat, ncols):
    assert_matches_fraction_oracle(mat, ncols)


@settings(deadline=None, max_examples=80)
@given(st.one_of(symmetric(), symmetric().map(lambda a: [[F(x, 6) for x in r] for r in a])))
def test_inertia_matches_fraction_oracle(a):
    assert inertia(integral(a)) == fraction_inertia(a)


@pytest.mark.parametrize(
    "gram, expected",
    [
        (U_GRAM, (1, 1)),
        (direct_sum(W_GRAM, U_GRAM), (3, 1)),
        (lambda0_prime_gram(), (2, 20)),  # two U blocks: the zero-diagonal branch
    ],
)
def test_inertia_of_indefinite_lattices_matches_fraction_oracle(gram, expected):
    assert inertia(gram) == fraction_inertia(gram) == expected


@pytest.mark.parametrize(
    "mat",
    [
        [[0]],
        [[0, 0], [0, 0]],
        [[1, 1], [1, 1]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],  # a zero row beside U: all diagonals vanish
        [[9, 6], [6, 4]],  # [[1/2, 1/3], [1/3, 2/9]] times 18
        direct_sum(U_GRAM, [[0]]),
        direct_sum(W_GRAM, [[2, 2], [2, 2]]),
    ],
)
def test_inertia_of_degenerate_matrix_raises(mat):
    assert leibniz(mat) == 0
    with pytest.raises(ValueError, match="degenerate"):
        inertia(mat)


@st.composite
def any_symmetric(draw):
    """Symmetric matrices, degenerate about as often as not: small entries,
    or M^T D M with M of fewer rows than columns (rank below the size)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(st.integers(-2, 2))
    else:
        k = draw(st.integers(0, n - 1))
        m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        d = [draw(st.integers(-3, 3)) for _ in range(k)]
        a = [[sum(m[r][i] * d[r] * m[r][j] for r in range(k)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        a = [[F(x, 6) for x in row] for row in a]
    return a


@settings(deadline=None, max_examples=200)
@given(any_symmetric())
def test_inertia_raises_exactly_when_det_is_zero(a):
    if leibniz(a) == 0:
        with pytest.raises(ValueError, match="degenerate"):
            inertia(integral(a))
    else:
        assert inertia(integral(a)) == fraction_inertia(a) == descartes_inertia(a)


def test_scaled_inverse_builds_no_fraction():
    """Every Fraction made while inverting E8 and lambda0', counted at its
    constructor: none, as the elimination runs and answers in integers."""
    for gram in (E8_GRAM, lambda0_prime_gram()):
        answers = []
        assert _fraction_news(lambda: answers.append(_scaled_inverse(gram))) == 0
        scaled, d, det_g = answers[0]
        n = len(gram)
        assert mul(scaled, gram) == [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert det_g == det(gram)

