"""Small exact linear algebra over Z (internal plumbing), the one place
that eliminates.  Both routines take integer rows, run fraction-free
(Bareiss, Math. Comp. 22, 1968) and answer in integers; a caller with
rational data scales it to integers first.  ``det``,
``fqm._scaled_inverse`` and ``qseries.solve_linear_combination`` read their
answers off ``row_reduce``.  Row operations alone do not preserve inertia,
so ``symmetric_reduce`` runs a congruence: ``inertia`` counts the signs of
its pivots, and ``fqm._short_vector_walk`` reads its window off the
pivot rows.
"""

from __future__ import annotations


def row_reduce(rows, ncols=None):
    """Gauss-Jordan elimination of integer ``rows``, fraction-free.

    Only the first ``ncols`` columns (default: all) are eliminated; later
    columns, such as a right-hand side or an identity block, ride along.
    Each column pivots on its first nonzero entry among the rows not yet
    used.  Returns the rows, the pivot columns (the earliest columns
    independent of those before them), the last pivot P (1 if none) and
    +-P, negated once per row swap.  P is the product of the pivots of the
    elimination over Q, so +-P is det of a square input of full rank, and
    every row is its reduced row over Q times P.

    A pivot p updates every other row as (p*x - f*y) // prev, prev the pivot
    before it (1 at first).  Every entry stays a minor of the input, so the
    division is exact, and each earlier pivot row's pivot becomes p.
    """
    a = list(rows)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        for piv in range(r, len(a)):
            if a[piv][col]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return a, pivots, prev, sign * prev


def symmetric_reduce(mat) -> list[tuple[int, list[int], int]]:
    """Symmetric reduction of a nondegenerate symmetric integer matrix: one
    (k, row, prev) per step, row[k] the pivot and prev > 0 the divisor of
    the step before.

    Each step takes the first remaining k with a_kk != 0; if every remaining
    diagonal entry vanishes, e_i += e_j first makes a_ii = 2*a_ij != 0.
    Row and column i of each remaining i are scaled by a_kk before a_ik
    times row and column k is subtracted, a congruence; the remaining block
    is then divided by |a_kk| times the previous |pivot|, which is exact
    (Bareiss) and positive, so the pivots' signs follow Sylvester's law.
    The block a step pivots in is prev times a Schur complement S, so
    row[k] / prev = S_kk and row[j] / row[k] = S_kj / S_kk.  A degenerate
    matrix leaves a zero row in the remaining block: ValueError.
    """
    n = len(mat)
    a = [list(row) for row in mat]
    steps = []
    prev = 1
    remaining = list(range(n))
    while remaining:
        for k in remaining:
            if a[k][k]:
                break
        else:
            i = remaining[0]
            j = next((j for j in remaining if a[i][j]), None)
            if j is None:  # a zero row of the remaining block
                raise ValueError("inertia of a degenerate symmetric matrix (det 0)")
            for t in range(n):
                a[i][t] += a[j][t]
            for t in remaining:
                a[t][i] += a[t][j]
            k = i
        top = a[k]
        p = top[k]
        steps.append((k, top, prev))
        remaining.remove(k)
        q = prev if p > 0 else -prev
        for i in remaining:
            f = a[i][k]
            a[i] = [(p * x - f * y) // q for x, y in zip(a[i], top)]
        prev = abs(p)
    return steps


def inertia(mat) -> tuple[int, int]:
    """Signature (n_plus, n_minus) of a nondegenerate symmetric integer
    matrix: the signs of the pivots of ``symmetric_reduce`` (Sylvester's law
    of inertia).  A degenerate matrix raises ValueError."""
    steps = symmetric_reduce(mat)
    pos = sum(row[k] > 0 for k, row, _ in steps)
    return pos, len(steps) - pos


def det(mat) -> int:
    """Determinant of a square integer matrix: the signed last pivot of
    ``row_reduce``, or 0 if a column has no pivot."""
    _, pivots, _, product = row_reduce(mat)
    return product if len(pivots) == len(mat) else 0
