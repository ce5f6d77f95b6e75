"""Small exact linear algebra over Q (internal plumbing), the one place
that eliminates.  Both routines run fraction-free (Bareiss, Math. Comp. 22,
1968) on integer rows and answer in integers.  ``det``,
``fqm._scaled_inverse``, ``qseries.solve_linear_combination`` and
``vvmf.fit_alpha_beta`` read their answers off ``row_reduce``.  Row
operations alone do not preserve inertia, so ``symmetric_reduce`` runs a
congruence: ``inertia`` counts the signs of its pivots, and
``fqm._scaled_short_vectors`` reads an LDL^T form off its pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def row_reduce(rows, ncols=None):
    """Gauss-Jordan elimination over Q of ``rows`` (ints or Fractions).

    Only the first ``ncols`` columns (default: all) are eliminated; later
    columns, such as a right-hand side or an identity block, ride along.
    Each column pivots on its first nonzero entry among the rows not yet
    used.  Returns the integer rows, the pivot columns (the earliest columns
    independent of those before them), the last pivot P (1 if none) and the
    product of the pivots, negated once per row swap.  A pivot row is its
    reduced row times P, a non-pivot row its reduced row times P*s.

    Each row is scaled to integers by the lcm s > 0 of its denominators,
    and a pivot p updates every other row as (p*x - f*y) // prev, prev the
    pivot before it (1 at first).  Every entry stays a minor of the scaled
    rows, so the division is exact, and each earlier pivot row's pivot
    becomes p.  The pivot product, +-P over the product of the pivot rows'
    s, is the one ``Fraction`` built here.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scales = [lcm(1, *[d for _, d in row]) for row in ratios]
    a = [[n * (s // d) for n, d in row] for row, s in zip(ratios, scales)]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = used = 1  # used: product of the pivot rows' scales
    for col in range(ncols):
        r = len(pivots)
        for piv in range(r, len(a)):
            if a[piv][col]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            scales[r], scales[piv] = scales[piv], scales[r]
            sign = -sign
        top = a[r]
        p = top[col]
        used *= scales[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return a, pivots, prev, Fraction(sign * prev, used)


def symmetric_reduce(mat) -> list[tuple[int, list[int], int]]:
    """Symmetric reduction of a nondegenerate symmetric matrix, scaled to
    integers by one positive lcm: one (k, row, prev) per step, row[k] the
    pivot and prev > 0 the divisor of the step before.

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
    s = lcm(1, *(x.denominator for row in mat for x in row))
    a = [[x.numerator * (s // x.denominator) for x in row] for row in mat]
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
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix: the
    signs of the pivots of ``symmetric_reduce`` (Sylvester's law of
    inertia).  A degenerate matrix raises ValueError."""
    steps = symmetric_reduce(mat)
    pos = sum(row[k] > 0 for k, row, _ in steps)
    return pos, len(steps) - pos


def det(mat) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    _, pivots, _, product = row_reduce(mat)
    return product if len(pivots) == len(mat) else Fraction(0)
