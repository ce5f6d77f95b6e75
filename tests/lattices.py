"""Gram matrices and lattice theta series built only for the tests."""

from cubicforms.eisenstein import _coset_thetas
from cubicforms.fqm import E8_GRAM, U_GRAM, W_GRAM, discriminant_form


# the Cartan matrix of the E6 root lattice, nodes 1-3-4-5-6 in a chain and 2
# on 4 (Bourbaki): det 3, and the discriminant form of -W
E6_GRAM = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


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


def theta_e6(prec):
    """theta_E6 on the cosets of W = A2, from the glue code E6 = A2^3[111]
    (Conway-Sloane, SPLAG ch. 4): (theta_0^3 + 2 theta_1^3, 3 theta_0
    theta_1^2, 3 theta_0 theta_2^2), with theta_i the coset series of W.
    E6 has the discriminant form of -W, so this lies in M_3(rho_{-W})."""
    t0, t1, t2 = _coset_thetas(discriminant_form(W_GRAM), prec)
    return (t0**3 + t1**3 * 2, t0 * t1**2 * 3, t0 * t2**2 * 3)
