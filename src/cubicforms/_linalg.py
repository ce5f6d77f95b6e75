"""Small exact linear algebra over Q (internal plumbing).

``row_reduce`` is the one elimination over Q: ``det``, ``inverse_and_det``,
``qseries.solve_linear_combination`` and ``vvmf.fit_alpha_beta`` read their
answers off its reduced rows, pivot columns and pivot product.  ``inertia``
keeps a symmetric congruence, since row operations alone do not preserve
inertia.  The discriminant group of a lattice needs no elimination over Z:
``fqm.DiscriminantForm`` closes the columns of G^-1 under addition mod 1.
"""

from __future__ import annotations

from fractions import Fraction


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


def inverse_and_det(mat) -> tuple[list[list[Fraction]], Fraction]:
    """Inverse and determinant of a nonsingular square matrix, exactly over
    Q, from one elimination of [A | I]: its pivot product is det A."""
    n = len(mat)
    reduced, pivots, product = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n
    )
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced], product


def rational_inverse(mat) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix, exactly over Q."""
    return inverse_and_det(mat)[0]


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
