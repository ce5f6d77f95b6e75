"""Small exact linear algebra over Q (internal plumbing).

``row_reduce`` is the one elimination over Q: ``det``, ``inverse_and_det``,
``qseries.solve_linear_combination`` and ``vvmf.fit_alpha_beta`` read their
answers off its reduced rows, pivot columns and pivot product.  It runs
fraction-free (Bareiss) on integer rows and builds ``Fraction``s only for
the answer.  ``inertia`` keeps a symmetric congruence, since row operations
alone do not preserve inertia; it too runs on integers.  The discriminant
group of a lattice needs no elimination over Z: ``fqm.DiscriminantForm``
closes the columns of d * G^-1 under addition mod d, in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_row(row) -> tuple[list[int], int]:
    """The row times s, the lcm of its entries' denominators, and s."""
    ratios = [x.as_integer_ratio() for x in row]
    s = lcm(1, *[d for _, d in ratios])
    return [n * (s // d) for n, d in ratios], s


def row_reduce(rows, ncols=None):
    """Gauss-Jordan elimination over Q of ``rows`` (ints or Fractions).

    Only the first ``ncols`` columns (default: all) are eliminated; later
    columns, such as a right-hand side or an identity block, ride along.
    Each column pivots on its first nonzero entry among the rows not yet
    used, and the pivot row is scaled to lead with 1.  Returns the reduced
    rows, the pivot columns (the earliest columns independent of those
    before them) and the product of the pivots, negated once per row swap.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    row is scaled to integers by the lcm s of its denominators, and a pivot
    p updates every other row as (p*x - f*y) // prev, prev the pivot before
    it (1 at first).  Every entry stays a minor of the scaled rows, so the
    division is exact, and each earlier pivot row's pivot becomes p.  With
    P the last pivot, a pivot row is its reduced row times P, a non-pivot
    row its reduced row times P*s, and the pivot product is +-P over the
    product of the pivot rows' s; only these quotients are Fractions.
    """
    a, scales = [], []
    for row in rows:
        ints, s = _integer_row(row)
        a.append(ints)
        scales.append(s)
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
    rank = len(pivots)
    reduced = [
        [Fraction(x, prev if i < rank else prev * scales[i]) for x in row]
        for i, row in enumerate(a)
    ]
    return reduced, pivots, Fraction(sign * prev, used)


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


def inertia(mat) -> tuple[int, int]:
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix, by
    exact symmetric reduction (Sylvester's law of inertia).

    The matrix is scaled to integers by one positive lcm.  Each step takes
    the first remaining k with a_kk != 0 and counts its sign; if every
    remaining diagonal entry vanishes, e_i += e_j first makes a_ii =
    2*a_ij != 0.  Row and column i of each remaining i are scaled by a_kk
    before a_ik times row and column k is subtracted, a congruence that
    leaves the remaining block a_kk^2 times the Schur complement.  That
    block is then divided by |a_kk| times the previous |pivot|, which is
    exact (Bareiss) and positive, so the signs still follow Sylvester's law.
    A degenerate matrix leaves a remaining block with a zero row, which
    raises ValueError.
    """
    n = len(mat)
    rows = [_integer_row(row) for row in mat]
    s = lcm(1, *[si for _, si in rows])
    a = [[x * (s // si) for x in ints] for ints, si in rows]
    pos = neg = 0
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
            for t in range(n):
                a[t][i] += a[t][j]
            k = i
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        remaining.remove(k)
        top, q = a[k], prev if p > 0 else -prev
        for i in remaining:
            f = a[i][k]
            a[i] = [(p * x - f * y) // q for x, y in zip(a[i], top)]
        prev = abs(p)
    return pos, neg


def det(mat) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    _, pivots, product = row_reduce(mat)
    return product if len(pivots) == len(mat) else Fraction(0)
