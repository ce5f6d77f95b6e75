"""Gram matrices built only for the tests."""

from cubicforms.fqm import E8_GRAM, U_GRAM, W_GRAM


def direct_sum(*blocks):
    """The block-diagonal Gram matrix of the orthogonal sum of the blocks."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in out)


def lambda0_prime_gram():
    """Gram matrix of -(W + U + U + E8 + E8), signature (2, 20): a rank-22
    lattice with the discriminant form of -W."""
    lambda0 = direct_sum(W_GRAM, U_GRAM, U_GRAM, E8_GRAM, E8_GRAM)
    return tuple(tuple(-x for x in row) for row in lambda0)
