"""Exact intersection rings of P^5 and Gr(3,6), Chern class machinery for the
two bundle computations giving deg(C_6) = 192 and deg(C_8) = 3402, and the
Segre-class shortcut that recomputes both degrees independently.

Everything is integer arithmetic: graded pieces are truncated at the base
dimension, Littlewood-Richardson coefficients come from direct tableau
enumeration in the 3x3 box, and Chern inversion needs no division at all.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
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


# ---------------------------------------------------------------------------
# the ring Z[H]/(H^6)
# ---------------------------------------------------------------------------

class RingClassP5(_Value):
    """Integer class a_0 + a_1 H + ... + a_5 H^5 on P^5."""

    __slots__ = ("coeffs",)

    DIM = 5

    def __init__(self, coeffs: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)):
        if len(coeffs) != self.DIM + 1:
            raise ValueError(f"need {self.DIM + 1} coefficients, got {len(coeffs)}")
        self._set(coeffs)

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
        return RingClassP5(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RingClassP5(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingClassP5(tuple(a * other for a in self.coeffs))
        out = [0] * (self.DIM + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b and i + j <= self.DIM:
                        out[i + j] += a * b
        return RingClassP5(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, m: int):
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


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}: the number of
    semistandard skew tableaux of shape nu/lam and content mu whose reverse
    reading word is a lattice word, counted by direct backtracking."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    # cells of nu/lam in reverse reading order: rows top to bottom, each row
    # right to left, so the lattice condition can be checked prefix by prefix
    order: list[tuple[int, int]] = []
    for r in range(3):
        for c in range(nu[r] - 1, lam[r] - 1, -1):
            order.append((r, c))
    filling: dict[tuple[int, int], int] = {}
    remaining = list(mu)
    counts = [0, 0, 0]
    total = 0

    def place(pos: int):
        nonlocal total
        if pos == len(order):
            total += 1
            return
        r, c = order[pos]
        for v in range(3):
            if remaining[v] == 0:
                continue
            if v > 0 and counts[v - 1] <= counts[v]:
                continue  # lattice word fails
            right = filling.get((r, c + 1))
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            above = filling.get((r - 1, c))
            if above is not None and v <= above:
                continue  # columns strictly increase
            filling[(r, c)] = v
            counts[v] += 1
            remaining[v] -= 1
            place(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1
            remaining[v] += 1

    place(0)
    return total


@lru_cache(maxsize=None)
def _lr_products(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    size = sum(lam) + sum(mu)
    out = []
    for nu in box_partitions():
        if sum(nu) == size:
            c = lr_coefficient(lam, mu, nu)
            if c:
                out.append((nu, c))
    return tuple(out)


class RingClassGr36(_Value):
    """Integer combination of Schubert classes sigma_lambda on Gr(3,6), kept
    as sorted (partition, coefficient) pairs with no zero coefficient; a
    repeated partition keeps its last coefficient."""

    __slots__ = ("coeffs",)

    DIM = 9
    TOP = (3, 3, 3)  # the point class

    def __init__(self, coeffs: tuple[tuple[Partition, int], ...] = ()):
        cleaned = tuple(sorted((lam, c) for lam, c in dict(coeffs).items() if c))
        self._set(cleaned)

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
        d = self.as_dict()
        for lam, c in other.coeffs:
            d[lam] = d.get(lam, 0) + c
        return RingClassGr36(tuple(d.items()))

    def __neg__(self):
        return RingClassGr36(tuple((lam, -c) for lam, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingClassGr36(tuple((lam, c * other) for lam, c in self.coeffs))
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

Monomial = tuple[int, int, int]


def _poly_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for ma, a in p.items():
        for mb, b in q.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + a * b
    return {m: c for m, c in out.items() if c}


def _elementary(i: int) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for picks in product((0, 1), repeat=3):
        if sum(picks) == i:
            out[picks] = 1
    return out


def _to_elementary(poly: dict[Monomial, int]) -> dict[Monomial, int]:
    """Rewrite a symmetric polynomial in x1,x2,x3 as a polynomial in the
    elementary symmetric functions; key (i,j,k) means e1^i e2^j e3^k."""
    work = dict(poly)
    out: dict[Monomial, int] = {}
    while work:
        lead = max(work)  # lex-leading monomial has sorted exponents
        a1, a2, a3 = lead
        if not a1 >= a2 >= a3:
            raise AssertionError("polynomial is not symmetric")
        c = work[lead]
        key = (a1 - a2, a2 - a3, a3)
        out[key] = out.get(key, 0) + c
        sub: dict[Monomial, int] = {(0, 0, 0): c}
        for e_index, e_power in ((1, a1 - a2), (2, a2 - a3), (3, a3)):
            basis = _elementary(e_index)
            for _ in range(e_power):
                sub = _poly_mul(sub, basis)
        for m, v in sub.items():
            work[m] = work.get(m, 0) - v
            if work[m] == 0:
                del work[m]
    return out


@lru_cache(maxsize=None)
def _sym3_elementary_expansion() -> tuple[tuple[Monomial, tuple[Monomial, int]], ...]:
    """Graded expansion of prod(1 + root) over the 10 roots of Sym^3 of a
    rank-3 bundle with Chern roots x1,x2,x3, reduced to the elementary
    symmetric basis once and for all."""
    def unit(i: int) -> Monomial:
        m = [0, 0, 0]
        m[i] = 1
        return tuple(m)

    roots: list[dict[Monomial, int]] = []
    for i in range(3):
        roots.append({unit(i): 3})  # 3*x_i
    for i in range(3):
        for j in range(3):
            if i != j:
                roots.append({unit(i): 2, unit(j): 1})  # 2*x_i + x_j
    roots.append({unit(0): 1, unit(1): 1, unit(2): 1})  # x_1 + x_2 + x_3
    if len(roots) != 10:
        raise ArithmeticError(
            f"Sym^3 of a rank-3 bundle has 10 Chern roots, not {len(roots)}"
        )
    total: dict[Monomial, int] = {(0, 0, 0): 1}
    for r in roots:
        factor = dict(r)
        factor[(0, 0, 0)] = factor.get((0, 0, 0), 0) + 1  # (1 + root)
        total = _poly_mul(total, factor)
    return tuple(sorted(_to_elementary(total).items()))


def chern_sym3_dual_tautological() -> ChernSeries:
    """Chern series of Sym^3 of the dual tautological subbundle on Gr(3,6),
    with c(S*) = 1 + sigma_1 + sigma_(1,1) + sigma_(1,1,1), via the splitting
    principle and a one-time symmetric-function reduction."""
    e1 = RingClassGr36.sigma(1)
    e2 = RingClassGr36.sigma(1, 1)
    e3 = RingClassGr36.sigma(1, 1, 1)
    graded = [RingClassGr36.zero() for _ in range(RingClassGr36.DIM + 1)]
    for (i, j, k), c in _sym3_elementary_expansion():
        degree = i + 2 * j + 3 * k
        if degree > RingClassGr36.DIM:
            continue
        val = c * (e1 ** i) * (e2 ** j) * (e3 ** k)
        graded[degree] = graded[degree] + val
    return ChernSeries(tuple(graded))


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
