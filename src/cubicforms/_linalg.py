"""Small exact linear algebra helpers over Z and Q (internal plumbing).

``row_reduce`` is the one elimination over Q: ``det``, ``rational_inverse``,
``qseries.solve_linear_combination`` and ``vvmf.fit_alpha_beta`` read their
answers off its reduced rows, pivot columns and pivot product.  ``inertia``
keeps a symmetric congruence (row operations alone do not preserve inertia)
and ``smith_normal_form`` an elimination over Z.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class _Worksheet:
    """Integer matrix with row/column operations mirrored into U and V,
    maintaining U * original * V = m throughout."""

    def __init__(self, mat: Matrix):
        self.m = [row[:] for row in mat]
        self.rows = len(self.m)
        self.cols = len(self.m[0])
        self.U = identity(self.rows)
        self.V = identity(self.cols)

    def swap_rows(self, i, j):
        self.m[i], self.m[j] = self.m[j], self.m[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]

    def swap_cols(self, i, j):
        for row in self.m:
            row[i], row[j] = row[j], row[i]
        for row in self.V:
            row[i], row[j] = row[j], row[i]

    def add_row(self, src, dst, c):  # row_dst += c * row_src
        self.m[dst] = [x + c * y for x, y in zip(self.m[dst], self.m[src])]
        self.U[dst] = [x + c * y for x, y in zip(self.U[dst], self.U[src])]

    def add_col(self, src, dst, c):  # col_dst += c * col_src
        for row in self.m:
            row[dst] += c * row[src]
        for row in self.V:
            row[dst] += c * row[src]

    def negate_row(self, i):
        self.m[i] = [-x for x in self.m[i]]
        self.U[i] = [-x for x in self.U[i]]


def smith_normal_form(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V), U and V unimodular, U*mat*V = D diagonal with
    d_1 | d_2 | ... and nonnegative diagonal."""
    w = _Worksheet(mat)
    m = w.m
    size = min(w.rows, w.cols)

    for t in range(size):
        while True:
            pivot = None
            for i in range(t, w.rows):
                for j in range(t, w.cols):
                    if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break  # remaining block is zero
            w.swap_rows(t, pivot[0])
            w.swap_cols(t, pivot[1])
            p = m[t][t]
            bad = False
            for i in range(t + 1, w.rows):
                if m[i][t] % p:
                    w.add_row(t, i, -(m[i][t] // p))
                    bad = True  # leaves a smaller nonzero remainder
            for j in range(t + 1, w.cols):
                if m[t][j] % p:
                    w.add_col(t, j, -(m[t][j] // p))
                    bad = True
            if bad:
                continue
            for i in range(t + 1, w.rows):
                if m[i][t]:
                    w.add_row(t, i, -(m[i][t] // p))
            for j in range(t + 1, w.cols):
                if m[t][j]:
                    w.add_col(t, j, -(m[t][j] // p))
            break
        if m[t][t] < 0:
            w.negate_row(t)

    # divisibility chain: fix adjacent violations until stable
    changed = True
    while changed:
        changed = False
        for t in range(size - 1):
            a, b = m[t][t], m[t + 1][t + 1]
            if a and b and b % a:
                changed = True
                w.add_col(t + 1, t, 1)  # block becomes [[a, 0], [b, b]]
                while m[t + 1][t]:
                    q = m[t][t] // m[t + 1][t]
                    w.add_row(t + 1, t, -q)
                    w.swap_rows(t, t + 1)
                g = m[t][t]
                # block entries are Z-combinations of a and b, so g divides them
                if m[t][t + 1]:
                    w.add_col(t, t + 1, -(m[t][t + 1] // g))
                if m[t][t] < 0:
                    w.negate_row(t)
                if m[t + 1][t + 1] < 0:
                    w.negate_row(t + 1)
    return w.U, m, w.V


def row_reduce(rows, ncols=None):
    """Gauss-Jordan elimination over Q on a Fraction copy of ``rows``.

    Only the first ``ncols`` columns (default: all) are eliminated; later
    columns, such as a right-hand side or an identity block, ride along.
    Each column pivots on its first nonzero entry among the rows not yet
    used, and the pivot row is scaled to lead with 1.  Returns the reduced
    rows, the pivot columns (the earliest columns independent of those
    before them) and the product of the pivots, negated once per row swap.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    product = Fraction(1)
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


def rational_inverse(mat) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix, exactly over Q."""
    n = len(mat)
    reduced, pivots, _ = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n
    )
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced]


def inertia(mat) -> tuple[int, int]:
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix, by
    exact symmetric reduction (Sylvester's law of inertia)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    remaining = list(range(n))
    while remaining:
        k = next((i for i in remaining if a[i][i] != 0), None)
        if k is None:
            # all remaining diagonal entries vanish; e_i += e_j makes
            # the (i,i) entry 2*a[i][j] != 0
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


def det(mat) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    _, pivots, product = row_reduce(mat)
    return product if len(pivots) == len(mat) else Fraction(0)
