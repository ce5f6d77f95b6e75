"""Exact intersection rings of P^5 = Gr(1,6) and Gr(3,6), Chern class
machinery for the two bundle computations giving deg(C_6) = 192 and
deg(C_8) = 3402, and the Segre-class shortcut that recomputes both degrees.

Everything is integer arithmetic, truncated at the base dimension; Chern
inversion needs no division.  Both rings are one ring H*(Gr(r,n)) =
Lambda_r / (h_(n-r+1), ..., h_n): sigma_lam is the Schur polynomial s_lam
in the Chern roots x_1, ..., x_r of S*, and s_nu vanishes when nu_1 > n - r.
Products of Schubert classes and the Chern series of Sym^k S* are read by
Jacobi's bialternant formula, one lookup per partition of the box and w in S_r.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, product, repeat
from math import comb
from operator import add, itemgetter, sub

from .exactmath import _Ring, _Value

__all__ = [
    "RingClassP5",
    "RingClassGr36",
    "ChernSeries",
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

Partition = Monomial = tuple[int, ...]


def _box(r: int, width: int) -> list[Partition]:
    """The partitions with at most r parts, each at most ``width``, as
    r-tuples in increasing lexicographic order."""
    return list(combinations_with_replacement(range(width, -1, -1), r))[::-1]


def box_partitions() -> list[Partition]:
    """The 20 partitions with at most 3 parts, each at most 3."""
    return _box(3, 3)


def _poly_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    q_items = q.items()
    for a, x in p.items():
        for b, y in q_items:
            m = tuple(map(add, a, b))
            out[m] = out[m] + x * y if m in out else x * y
    return {m: c for m, c in out.items() if c}


def _schur(lam: Partition) -> dict[Monomial, int]:
    """The Schur polynomial s_lam(x_1, ..., x_r), r = len(lam), one monomial
    per Gelfand-Tsetlin pattern: rows g_r = lam, g_(r-1), ..., g_1, g_(k-1)
    interlacing g_k (g_k,i >= g_(k-1),i >= g_k,(i+1)), weighing
    x_k^(|g_k| - |g_(k-1)|) with |g_0| = 0; the tableau-free form of s_lam
    as a sum over semistandard tableaux (Fulton, Young Tableaux, 1997)."""
    # a pattern so far: its lowest row g_k, |g_k| and the exponents of x_(k+1),
    # ..., x_r; product and map give the rows below and their sizes
    patterns = [(lam, sum(lam), ())]
    for _ in lam[1:]:
        patterns = [
            (mu, mu_size, (size - mu_size,) + exps)
            for row, size, exps in patterns
            for mus in [list(product(*map(range, row[1:], map(add, row, repeat(1)))))]
            for mu, mu_size in zip(mus, map(sum, mus))
        ]
    out: dict[Monomial, int] = {}
    for _, size, exps in patterns:
        m = (size,) + exps
        out[m] = out[m] + 1 if m in out else 1
    return out


def _schur_expansion(f: dict[Monomial, int], mu: Partition, nus) -> dict[Partition, int]:
    """The nonzero c_nu, nu in ``nus`` and in its order, of f * s_mu = sum_nu
    c_nu s_nu, f symmetric in x_1, ..., x_r, r = len(mu).  Jacobi's
    bialternant formula s_nu a_delta = a_(nu + delta), delta = (r - 1, ...,
    0), a_alpha = sum over w in S_r of sign(w) x^w(alpha) (Macdonald,
    Symmetric Functions and Hall Polynomials, Ch. I), makes c_nu the
    coefficient of x^(nu + delta) in f a_(mu + delta): the sum over w of
    sign(w) [x^(nu + delta - w(mu + delta))] f."""
    delta = range(len(mu) - 1, -1, -1)
    # the terms (sign(w), w(mu + delta)): the k-th entry put at place i of an
    # arrangement of the first k entries adds k - i inversions
    alternant = [(1, ())]
    for k, a in enumerate(map(add, mu, delta)):
        alternant = [
            (-sign if (k - i) % 2 else sign, term[:i] + (a,) + term[i:])
            for sign, term in alternant
            for i in range(k + 1)
        ]
    out: dict[Partition, int] = {}
    for nu in nus:
        top = tuple(map(add, nu, delta))
        c = 0
        for sign, term in alternant:
            e = tuple(map(sub, top, term))
            if e in f:
                c += sign * f[e]
        if c:
            out[nu] = c
    return out


@lru_cache(maxsize=None)
def _lr_products(lam: Partition, mu: Partition, width: int) -> tuple[tuple[Partition, int], ...]:
    """sigma_lam * sigma_mu on Gr(r, r + width), r = len(lam), as sorted
    (nu, c^nu_{lam,mu}) pairs over the r x width box."""
    r, size = len(lam), sum(lam + mu)
    if size > r * width:
        return ()
    # s_lam * s_mu is homogeneous: only the box partitions of its size count
    box = _box(r, width)
    nus = [nu for nu, nu_size in zip(box, map(sum, box)) if nu_size == size]
    return tuple(_schur_expansion(_schur(lam), mu, nus).items())


# ---------------------------------------------------------------------------
# the ring H*(Gr(r,n)) in the Schubert basis
# ---------------------------------------------------------------------------

class _GrassmannianClass(_Ring, _Value):
    """Integer class of H*(Gr(R, N)) in the Schubert basis sigma_lam, lam in
    the R x (N - R) box.  A subclass sets R and N, which fix DIM, TOP (the
    point class) and the box, and names its field ``coeffs`` in ``__slots__``:
    sorted (partition, int) pairs with no zero, built from such pairs or a
    dict, a repeated key keeping its last.  A coefficient or part that is not
    an int (a bool included) raises ``TypeError``, a key that is not a
    partition in the box ``ValueError``.  An operand other than a class of
    the same ring, or an int factor, gives ``NotImplemented``, so Python
    raises ``TypeError``."""

    __slots__ = ()

    def __init_subclass__(cls):
        width = cls.N - cls.R
        cls.DIM, cls.TOP, cls._BOX = cls.R * width, (width,) * cls.R, frozenset(_box(cls.R, width))

    def __init__(self, coeffs: tuple[tuple[Partition, int], ...] = ()):
        terms = dict(coeffs)
        if set(map(type, terms.values())) - {int}:
            raise TypeError(f"coefficients must be ints, not {tuple(terms.values())!r}")
        # a key of floats or bools equal to a partition is in the box too
        if not terms.keys() <= self._BOX or set(map(type, chain(*terms))) - {int}:
            for lam in terms:
                self._check_partition(lam)
        self._set(tuple(sorted(filter(itemgetter(1), terms.items()))))

    @classmethod
    def _check_partition(cls, lam) -> None:
        if type(lam) is tuple and set(map(type, lam)) - {int}:
            raise TypeError(f"partition parts must be ints, not {lam!r}")
        if type(lam) is not tuple or lam not in cls._BOX:
            raise ValueError(f"{lam!r} is not a partition in the {cls.R}x{cls.N - cls.R} box")

    def as_dict(self) -> dict[Partition, int]:
        """The nonzero coefficients by partition, in a new dict."""
        return dict(self.coeffs)

    @classmethod
    def sigma(cls, *lam: int, coeff: int = 1):
        padded = tuple(sorted(lam, reverse=True)) + (0,) * (cls.R - len(lam))
        cls._check_partition(padded)
        return cls({padded: coeff})

    @classmethod
    def one(cls):
        return cls.sigma()

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = self.as_dict()
        for lam, c in other.coeffs:
            acc[lam] = acc[lam] + c if lam in acc else c
        return type(self)(acc)

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, int):
                return NotImplemented
            return type(self)({lam: c * other for lam, c in self.coeffs})
        width = self.N - self.R
        acc: dict[Partition, int] = {}
        for lam, a in self.coeffs:
            for mu, b in other.coeffs:
                # sigma_lam sigma_mu = sigma_mu sigma_lam: one table per unordered pair
                for nu, c in _lr_products(*((lam, mu) if lam <= mu else (mu, lam)), width):
                    acc[nu] = acc[nu] + a * b * c if nu in acc else a * b * c
        return type(self)(acc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Coefficient of the point class sigma_TOP."""
        return self.as_dict().get(self.TOP, 0)

    def is_pure(self, k: int) -> bool:
        """Whether every nonzero term has degree k (the zero class has all)."""
        return all(sum(lam) == k for lam, _ in self.coeffs)


class RingClassP5(_GrassmannianClass):
    """Integer class a_0 + a_1 H + ... + a_5 H^5 on P^5 = Gr(1,6), H^k the
    Schubert class sigma_k: the pairs ((k,), a_k) with a_k nonzero."""

    __slots__ = ("coeffs",)
    R, N = 1, 6

    @classmethod
    def hyperplane_power(cls, k: int, c: int = 1) -> "RingClassP5":
        return cls.sigma(k, coeff=c)


class RingClassGr36(_GrassmannianClass):
    """Integer combination of Schubert classes sigma_lambda on Gr(3,6)."""

    __slots__ = ("coeffs",)
    R, N = 3, 6


# ---------------------------------------------------------------------------
# Chern series
# ---------------------------------------------------------------------------

class ChernSeries(_Value):
    """Total Chern class c_0 + c_1 + ... + c_dim with c_0 = 1, each c_k a
    pure-degree-k integer class of the base ring, stored padded with zero
    classes up to c_dim, so one series has one layout."""

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
        pad = ring.DIM + 1 - len(classes)
        self._set(tuple(classes) + (ring.zero(),) * pad if pad else tuple(classes))

    @property
    def ring(self):
        return type(self.classes[0])

    @property
    def dim(self) -> int:
        return self.ring.DIM

    def chern(self, k: int):
        """The class c_k, zero for k < 0 and above the base dimension; the
        way callers read one Chern class, as the kernel displays do."""
        return self.classes[k] if 0 <= k <= self.dim else self.ring.zero()


def chern_invert(c: ChernSeries) -> ChernSeries:
    """Multiplicative inverse truncated at the base dimension; from c_0 = 1
    the recursion s_k = -(c_1 s_{k-1} + ... + c_k s_0) is division-free."""
    cs = c.classes
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
# Sym^k of the dual tautological bundle
# ---------------------------------------------------------------------------

def _chern_sym_dual(ring, k: int) -> ChernSeries:
    """Chern series of Sym^k S*, S the tautological subbundle of the
    Grassmannian of ``ring``.  With x_1, ..., x_r the Chern roots of S*, the
    roots of Sym^k S* are the sums of the k-element multisets of them, and
    prod(1 + root) is read in the Schur basis by one ``_schur_expansion``
    over the box, where s_nu is sigma_nu."""
    r = ring.R
    units = [(0,) * i + (1,) + (0,) * (r - 1 - i) for i in range(r)]
    total: dict[Monomial, int] = {(0,) * r: 1}
    for roots in combinations_with_replacement(units, k):
        factor = {(0,) * r: 1}
        for e in roots:
            factor[e] = factor[e] + 1 if e in factor else 1
        total = _poly_mul(total, factor)
    graded: list[dict[Partition, int]] = [{} for _ in range(ring.DIM + 1)]
    for nu, c in _schur_expansion(total, (0,) * r, _box(r, ring.N - r)).items():
        graded[sum(nu)][nu] = c
    return ChernSeries(tuple(map(ring, graded)))


def chern_sym3_dual_tautological() -> ChernSeries:
    """Chern series of Sym^3 of the dual tautological subbundle on Gr(3,6);
    its roots a*x1 + b*x2 + c*x3 run over the 10 compositions a + b + c = 3."""
    return _chern_sym_dual(RingClassGr36, 3)


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
    cs = c_kernel.classes + (ring.zero(),)  # c_{dim+1} = 0
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
    return c_complement.classes[-1].degree()


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
