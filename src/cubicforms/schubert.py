"""Exact intersection rings of P^5 and Gr(3,6), Chern class machinery for the
two bundle computations giving deg(C_6) = 192 and deg(C_8) = 3402, and the
Segre-class shortcut that recomputes both degrees independently.

Everything is integer arithmetic: graded pieces are truncated at the base
dimension, and Chern inversion needs no division at all.  H*(Gr(3,6)) is
Lambda_3 / (h_4, h_5, h_6): sigma_lam is the Schur polynomial s_lam in the
Chern roots x1, x2, x3 of S*, and s_nu vanishes when nu_1 > 3.  Products of
Schubert classes and the Chern series of Sym^3 S* are read in the Schur
basis off one product with an alternant.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .exactmath import _Value

__all__ = [
    "RingClassP5",
    "RingClassGr36",
    "ChernSeries",
    "lr_coefficient",
    "box_partitions",
    "chern_jet",
    "chern_invert",
    "chern_sym3_dual_tautological",
    "proj_bundle_power",
    "segre_degree",
    "degree_c6_recurrence",
    "degree_c6_segre",
    "degree_c8_recurrence",
    "degree_c8_segre",
]

Partition = tuple[int, int, int]


def _check_power(m) -> None:
    if not isinstance(m, int):
        raise TypeError(f"power must be an int, not {type(m).__name__}")
    if m < 0:
        raise ValueError("negative powers are not supported")


# ---------------------------------------------------------------------------
# the ring Z[H]/(H^6)
# ---------------------------------------------------------------------------

class RingClassP5(_Value):
    """Integer class a_0 + a_1 H + ... + a_5 H^5 on P^5, its coefficients
    ints (``TypeError`` otherwise, a bool included) kept as a tuple.  It
    adds and subtracts classes of its own ring and multiplies by them or by
    an int; any other operand gives ``NotImplemented``, so Python raises
    ``TypeError``."""

    __slots__ = ("coeffs",)

    DIM = 5

    def __init__(self, coeffs: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)):
        if len(coeffs) != self.DIM + 1:
            raise ValueError(f"need {self.DIM + 1} coefficients, got {len(coeffs)}")
        if set(map(type, coeffs)) - {int}:
            raise TypeError(f"coefficients must be ints, not {coeffs!r}")
        self._set(tuple(coeffs))

    @classmethod
    def one(cls) -> "RingClassP5":
        return cls((1, 0, 0, 0, 0, 0))

    @classmethod
    def zero(cls) -> "RingClassP5":
        return cls()

    @classmethod
    def hyperplane_power(cls, k: int, c: int = 1) -> "RingClassP5":
        if not 0 <= k <= cls.DIM:
            raise ValueError(f"H^{k} is out of range")
        v = [0] * (cls.DIM + 1)
        v[k] = c
        return cls(tuple(v))

    def __add__(self, other):
        if not isinstance(other, RingClassP5):
            return NotImplemented
        return RingClassP5(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RingClassP5(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, RingClassP5):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingClassP5(tuple(a * other for a in self.coeffs))
        if not isinstance(other, RingClassP5):
            return NotImplemented
        out = [0] * (self.DIM + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b and i + j <= self.DIM:
                        out[i + j] += a * b
        return RingClassP5(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, m: int):
        _check_power(m)
        out = RingClassP5.one()
        for _ in range(m):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def degree(self) -> int:
        """Coefficient of the point class H^5."""
        return self.coeffs[self.DIM]

    def is_pure(self, k: int) -> bool:
        """Whether every nonzero term has degree k (the zero class has all)."""
        return not any(a for i, a in enumerate(self.coeffs) if i != k)


# ---------------------------------------------------------------------------
# the ring H*(Gr(3,6)) in the Schubert basis
# ---------------------------------------------------------------------------

def box_partitions() -> list[Partition]:
    """The 20 partitions with at most 3 parts, each at most 3."""
    return [
        (a, b, c)
        for a in range(4)
        for b in range(a + 1)
        for c in range(b + 1)
    ]


Monomial = tuple[int, int, int]

def _poly_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    q_terms = q.items()
    for (a1, a2, a3), a in p.items():
        for (b1, b2, b3), b in q_terms:
            m = (a1 + b1, a2 + b2, a3 + b3)
            if m in out:
                out[m] += a * b
            else:
                out[m] = a * b
    return {m: c for m, c in out.items() if c}


def _schur(lam: Partition) -> dict[Monomial, int]:
    """The Schur polynomial s_lam(x1, x2, x3), one monomial per
    Gelfand-Tsetlin pattern: mu = (m1, m2) interlaces lam, n interlaces mu,
    and the pattern weighs x1^n x2^(|mu| - n) x3^(|lam| - |mu|), the
    tableau-free form of s_lam as a sum over semistandard tableaux
    (Fulton, Young Tableaux, 1997)."""
    l1, l2, l3 = lam
    size = l1 + l2 + l3
    out: dict[Monomial, int] = {}
    for m1 in range(l2, l1 + 1):
        for m2 in range(l3, l2 + 1):
            for n in range(m2, m1 + 1):
                m = (n, m1 + m2 - n, size - m1 - m2)
                if m in out:
                    out[m] += 1
                else:
                    out[m] = 1
    return out


def _schur_expansion(f: dict[Monomial, int], mu: Partition = (0, 0, 0)) -> dict[Partition, int]:
    """The coefficients c_nu of f * s_mu = sum_nu c_nu s_nu, for a symmetric
    polynomial f in x1, x2, x3.  Jacobi's bialternant formula s_nu * a_delta =
    a_(nu + delta), delta = (2, 1, 0), a_alpha the alternant sum over S_3 of
    sign(w) x^w(alpha) (Macdonald, Symmetric Functions and Hall Polynomials,
    Ch. I), gives f * a_(mu + delta) = sum_nu c_nu a_(nu + delta); its only
    monomial with strictly decreasing exponents nu + delta has coefficient
    c_nu."""
    a1, a2, a3 = mu[0] + 2, mu[1] + 1, mu[2]
    alternant = {
        (a1, a2, a3): 1, (a2, a3, a1): 1, (a3, a1, a2): 1,
        (a2, a1, a3): -1, (a1, a3, a2): -1, (a3, a2, a1): -1,
    }
    return {
        (e1 - 2, e2 - 1, e3): c
        for (e1, e2, e3), c in _poly_mul(f, alternant).items()
        if e1 > e2 > e3
    }


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu} of partitions with at
    most 3 parts (tuples or lists of 3 entries): the coefficient of s_nu in
    s_lam * s_mu, read off one product with an alternant."""
    return _schur_expansion(_schur(lam), mu).get(tuple(nu), 0)


@lru_cache(maxsize=None)
def _lr_products(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    return tuple(sorted(
        (nu, c) for nu, c in _schur_expansion(_schur(lam), mu).items() if nu[0] <= 3
    ))


class RingClassGr36(_Value):
    """Integer combination of Schubert classes sigma_lambda on Gr(3,6), kept
    as sorted (partition, coefficient) pairs with no zero coefficient; a
    repeated partition keeps its last coefficient, and every coefficient must
    be an int (``TypeError`` otherwise, a bool included).  Its operands are
    as for ``RingClassP5``: classes of its own ring, or an int factor."""

    __slots__ = ("coeffs",)

    DIM = 9
    TOP = (3, 3, 3)  # the point class

    def __init__(self, coeffs: tuple[tuple[Partition, int], ...] = ()):
        terms = dict(coeffs)
        if set(map(type, terms.values())) - {int}:
            raise TypeError(f"coefficients must be ints, not {tuple(terms.values())!r}")
        self._set(tuple(sorted((lam, c) for lam, c in terms.items() if c)))

    @classmethod
    def sigma(cls, *lam: int, coeff: int = 1) -> "RingClassGr36":
        padded = tuple(sorted(lam, reverse=True)) + (0,) * (3 - len(lam))
        if len(padded) != 3 or padded[0] > 3 or any(x < 0 for x in padded):
            raise ValueError(f"{lam} is not a partition in the 3x3 box")
        return cls(((padded, coeff),))

    @classmethod
    def one(cls) -> "RingClassGr36":
        return cls.sigma()

    @classmethod
    def zero(cls) -> "RingClassGr36":
        return cls()

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, RingClassGr36):
            return NotImplemented
        d = self.as_dict()
        for lam, c in other.coeffs:
            d[lam] = d.get(lam, 0) + c
        return RingClassGr36(tuple(d.items()))

    def __neg__(self):
        return RingClassGr36(tuple((lam, -c) for lam, c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, RingClassGr36):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingClassGr36(tuple((lam, c * other) for lam, c in self.coeffs))
        if not isinstance(other, RingClassGr36):
            return NotImplemented
        acc: dict[Partition, int] = {}
        for lam, a in self.coeffs:
            for mu, b in other.coeffs:
                if sum(lam) + sum(mu) > self.DIM:
                    continue
                for nu, c in _lr_products(lam, mu):
                    acc[nu] = acc.get(nu, 0) + a * b * c
        return RingClassGr36(tuple(acc.items()))

    __rmul__ = __mul__

    def __pow__(self, m: int):
        _check_power(m)
        out = RingClassGr36.one()
        for _ in range(m):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Coefficient of the point class sigma_(3,3,3)."""
        return self.as_dict().get(self.TOP, 0)

    def is_pure(self, k: int) -> bool:
        """Whether every nonzero term has degree k (the zero class has all)."""
        return all(sum(lam) == k for lam, _ in self.coeffs)


# ---------------------------------------------------------------------------
# Chern series
# ---------------------------------------------------------------------------

class ChernSeries(_Value):
    """Total Chern class c_0 + c_1 + ... + c_dim with c_0 = 1, each c_k a
    pure-degree-k integer class of the base ring."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple):
        if not classes:
            raise ValueError("need at least c_0")
        ring = type(classes[0])
        if len(classes) > ring.DIM + 1:
            raise ValueError("series longer than base dimension + 1")
        if classes[0] != ring.one():
            raise ValueError("c_0 must be 1")
        for k, c in enumerate(classes):
            if type(c) is not ring or not c.is_pure(k):
                raise ValueError(f"c_{k} is not a pure degree-{k} class of {ring.__name__}")
        self._set(classes)

    @property
    def ring(self):
        return type(self.classes[0])

    @property
    def dim(self) -> int:
        return self.ring.DIM

    def padded(self) -> list:
        out = list(self.classes)
        while len(out) < self.dim + 1:
            out.append(self.ring.zero())
        return out

    def chern(self, k: int):
        """The class c_k, zero for k < 0 and above the base dimension; the
        way callers read one Chern class, as the kernel displays do."""
        p = self.padded()
        return p[k] if 0 <= k < len(p) else self.ring.zero()


def chern_invert(c: ChernSeries) -> ChernSeries:
    """Multiplicative inverse truncated at the base dimension; from c_0 = 1
    the recursion s_k = -(c_1 s_{k-1} + ... + c_k s_0) is division-free."""
    cs = c.padded()
    ring = c.ring
    s = [ring.one()]
    for k in range(1, c.dim + 1):
        acc = ring.zero()
        for i in range(1, k + 1):
            acc = acc + cs[i] * s[k - i]
        s.append(-acc)
    return ChernSeries(tuple(s))


def chern_jet() -> ChernSeries:
    """Chern series of the first jet bundle J^1(O(3)) on P^5.  The jet
    sequence 0 -> Omega(3) -> J^1(O(3)) -> O(3) -> 0 and the Euler sequence
    0 -> Omega(1) -> O^6 -> O(1) -> 0, twisted by O(2), give
    J^1(O(3)) = O(2)^6, so c = (1 + 2H)^6 and c_k = C(6,k) 2^k H^k."""
    return ChernSeries(tuple(
        RingClassP5.hyperplane_power(k, comb(6, k) * 2 ** k)
        for k in range(RingClassP5.DIM + 1)
    ))


# ---------------------------------------------------------------------------
# Sym^3 of the dual tautological bundle on Gr(3,6)
# ---------------------------------------------------------------------------

def chern_sym3_dual_tautological() -> ChernSeries:
    """Chern series of Sym^3 of the dual tautological subbundle on Gr(3,6).
    By the splitting principle, with x1, x2, x3 the Chern roots of S*, so
    that c(S*) = 1 + sigma_1 + sigma_(1,1) + sigma_(1,1,1), the roots of
    Sym^3 S* are a*x1 + b*x2 + c*x3 over the 10 compositions a + b + c = 3.
    The series is prod(1 + root), read in the Schur basis by one
    ``_schur_expansion``, where s_nu is sigma_nu in the 3 x 3 box and 0
    outside it."""
    total: dict[Monomial, int] = {(0, 0, 0): 1}
    for a in range(4):
        for b in range(4 - a):
            factor = {(0, 0, 0): 1, (1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): 3 - a - b}
            total = _poly_mul(total, factor)
    graded: list[dict[Partition, int]] = [{} for _ in range(RingClassGr36.DIM + 1)]
    for nu, c in _schur_expansion(total).items():
        if nu[0] <= 3:
            graded[sum(nu)][nu] = c
    return ChernSeries(tuple(RingClassGr36(tuple(piece.items())) for piece in graded))


# ---------------------------------------------------------------------------
# degrees via the projective bundle relation and via Segre classes
# ---------------------------------------------------------------------------

def proj_bundle_power(c_kernel: ChernSeries, rank: int, power: int) -> int:
    """Degree of xi^power on the projectivization of a rank-``rank`` bundle
    with Chern series ``c_kernel``, reduced by the defining relation
    xi^rank = -(c_1 xi^(rank-1) + ... ).

    Writing xi^(rank-1+s) = sum_i B_i xi^(rank-1-i), each multiply-by-xi step
    shifts B and feeds back -B_0 * c; after s steps the pushforward is the
    degree of B_0.
    """
    if power < rank - 1:
        raise ValueError(f"xi^{power} needs power >= rank-1 = {rank - 1}")
    ring = c_kernel.ring
    dim = c_kernel.dim
    cs = c_kernel.padded() + [ring.zero()]  # c_{dim+1} = 0
    B = [ring.one()] + [ring.zero()] * dim
    for _ in range(power - rank + 1):
        head = B[0]
        B = [
            (B[i + 1] if i + 1 <= dim else ring.zero()) - head * cs[i + 1]
            for i in range(dim + 1)
        ]
    return B[0].degree()


def segre_degree(c_complement: ChernSeries) -> int:
    """Independent path: the total Segre class of the kernel bundle equals
    the Chern series of its complement in the defining exact sequence, so the
    top pushforward is just that series' top graded piece."""
    return c_complement.padded()[c_complement.dim].degree()


def degree_c6_recurrence() -> int:
    """deg(C_6) = xi^54 over P^5 for the rank-50 kernel of Sym^3 V* -> J^1(O(3))."""
    return proj_bundle_power(chern_invert(chern_jet()), 50, 54)


def degree_c6_segre() -> int:
    return segre_degree(chern_jet())


def degree_c8_recurrence() -> int:
    """deg(C_8) = xi^54 over Gr(3,6) for the rank-46 kernel of
    Sym^3 V* -> Sym^3 S*."""
    return proj_bundle_power(chern_invert(chern_sym3_dual_tautological()), 46, 54)


def degree_c8_segre() -> int:
    return segre_degree(chern_sym3_dual_tautological())
