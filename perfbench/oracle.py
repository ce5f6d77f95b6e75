"""Independent degree series Theta(q) = -2 + sum_d deg(C_d) q^(d/6).

Stdlib only; imports nothing from ``cubicforms``.  The route differs from the
package's Euler-product pipeline:

* E5 = 2 * theta_W * E4 componentwise, with theta_W the theta series of the
  A2 lattice (norm x^2 + xy + y^2) on its trivial coset and on the coset
  shifted by (1/3, 1/3).  The space of weight 5 is one-dimensional, so the
  Eisenstein series equals twice the theta series of W + E8, and the E8
  factor is E4.
* E4 and E6 from divisor sums.
* F0 = [E5, E6]_0 = E5 * E6 and F1 = [E5, E4]_1 = 5 E5 DE4 - 4 DE5 E4,
  with D = q d/dq.
* psi = c0 F0 + c1 F1 with constant term -2 on the trivial coset and a zero
  q^(1/3) coefficient on the shifted coset.
* Theta = psi0 + psi1; the two nonzero cosets carry equal series.

Component 0 holds exponents n, component 1 exponents n + 1/3, as lists
indexed by n = 0 .. prec - 1.

Run ``python3 perfbench/oracle.py 4`` to print the first degrees.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def _divisor_sums(power: int, prec: int) -> list[int]:
    sums = [0] * prec
    for d in range(1, prec):
        dp = d**power
        for m in range(d, prec, d):
            sums[m] += dp
    return sums


def eisenstein(k: int, prec: int) -> list[int]:
    """E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n."""
    factor = {4: 240, 6: -504}[k]
    series = [factor * s for s in _divisor_sums(k - 1, prec)]
    series[0] = 1
    return series


def theta_a2(prec: int) -> tuple[list[int], list[int]]:
    """Counts of A2 vectors by norm on the two coset classes: x^2+xy+y^2 = n
    and (x+1/3)^2 + (x+1/3)(y+1/3) + (y+1/3)^2 = n + 1/3."""
    zero = [0] * prec
    shifted = [0] * prec
    # x^2 + xy + y^2 >= (3/4) max(|x|,|y|)^2, so |x|,|y| <= r covers norms < prec
    r = 2 + int((4 * prec / 3) ** 0.5)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            n = x * x + x * y + y * y
            if n < prec:
                zero[n] += 1
            m = n + x + y  # shifted norm minus 1/3
            if 0 <= m < prec:
                shifted[m] += 1
    return zero, shifted


def _mul(a: list, b: list) -> list:
    prec = len(a)
    out = [0] * prec
    for i, x in enumerate(a):
        if x:
            for j in range(prec - i):
                out[i + j] += x * b[j]
    return out


def _derivative(a: list, offset: Fraction) -> list:
    return [(n + offset) * c for n, c in enumerate(a)]


def degree_series(prec: int) -> tuple[int, dict[int, int]]:
    """(constant term, {d: deg(C_d)}) for every d = 0, 2 mod 6 with d/6 < prec."""
    if prec < 2:
        raise ValueError("need at least two integer q-steps")
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    offsets = (Fraction(0), Fraction(1, 3))
    e5 = [[2 * c for c in _mul(t, e4)] for t in theta_a2(prec)]
    de4 = _derivative(e4, Fraction(0))
    f0 = [_mul(c, e6) for c in e5]
    f1 = [
        [5 * x - 4 * y for x, y in zip(_mul(c, de4), _mul(_derivative(c, o), e4))]
        for c, o in zip(e5, offsets)
    ]
    # D kills constants, so F1 has constant term 0 and c0 alone fixes the -2
    if f1[0][0] != 0:
        raise ArithmeticError("bracket F1 has a constant term")
    c0 = Fraction(-2, f0[0][0])
    c1 = -c0 * f0[1][0] / f1[1][0]
    psi = [[c0 * a + c1 * b for a, b in zip(p, q)] for p, q in zip(f0, f1)]
    degrees = {}
    for d in range(2, 6 * prec, 2):
        if d % 6 == 0:
            value = psi[0][d // 6]
        elif d % 6 == 2:
            value = psi[1][d // 6]
        else:
            continue
        if value.denominator != 1:
            raise ArithmeticError(f"degree at d={d} is not an integer: {value}")
        degrees[d] = int(value)
    constant = psi[0][0]
    if constant != -2:
        raise ArithmeticError(f"constant term {constant} is not -2")
    return int(constant), degrees


if __name__ == "__main__":
    const, table = degree_series(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
    print(f"constant {const}")
    for d, deg in table.items():
        print(f"deg(C_{d}) = {deg}")
