"""Finite quadratic modules of even lattices and the Weil representation of
the metaplectic group Mp2(Z) on their group rings.

The discriminant group M_dual/M is the closure of {0} under adding the
columns of the inverse Gram matrix mod 1; its elements carry the Q/Z-valued
quadratic form q(gamma) = <gamma,gamma>/2 mod Z and bilinear form
b(gamma,delta) = <gamma,delta> mod Z.  Each class is kept in integers, as
d times its representative, d the common denominator of the inverse.
Representation matrices are exact matrices over a cyclotomic field.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import _linalg
from .exactmath import Cyclotomic, _Value, as_ratio, gauss_sum, jacobi_symbol

__all__ = [
    "EvenLattice",
    "DiscriminantForm",
    "Mp2Element",
    "WeilRep",
    "conjugate_transpose",
    "discriminant_form",
    "gauss_milgram_check",
    "short_vectors",
    "w_prime_form",
    "W_GRAM",
    "U_GRAM",
    "E8_GRAM",
    "W_PRIME_GRAM",
]


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

W_GRAM: tuple[tuple[int, ...], ...] = ((2, 1), (1, 2))
U_GRAM: tuple[tuple[int, ...], ...] = ((0, 1), (1, 0))

# E8 as the T(2,3,5) graph: trivalent node 0 with arms {1}, {2,3}, {4,5,6,7}
_E8_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7))
E8_GRAM: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        2 if i == j else (-1 if (i, j) in _E8_EDGES or (j, i) in _E8_EDGES else 0)
        for j in range(8)
    )
    for i in range(8)
)

W_PRIME_GRAM: tuple[tuple[int, ...], ...] = tuple(
    tuple(-x for x in row) for row in W_GRAM
)


class EvenLattice(_Value):
    """Nondegenerate even integral lattice given by its Gram matrix, kept as
    tuples, whose entries must be ints (``TypeError`` otherwise, a bool
    included)."""

    __slots__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        self._set(tuple(map(tuple, gram)))
        bad = [x for row in gram for x in row if type(x) is not int]
        if bad:
            raise TypeError(f"Gram entry {bad[0]!r} is not an int")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        if any(gram[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even (odd diagonal entry)")
        if self.det() == 0:
            raise ValueError("Gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _linalg.det(self.gram)

    @property
    def signature(self) -> tuple[int, int]:
        return _linalg.inertia(self.gram)


# ---------------------------------------------------------------------------
# discriminant forms
# ---------------------------------------------------------------------------

def _scaled_inverse(gram) -> tuple[list[list[int]], int, int]:
    """G^-1 in integers: the matrix M = d * G^-1 for the least d > 0 that
    makes it integral, d, and det G, from one elimination of [G | I].  Its
    identity block is P * G^-1, P the last pivot; M and d are the block
    and P over their gcd, signed as P."""
    n = len(gram)
    rows, pivots, last, product = _linalg.row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(gram)], n
    )
    if len(pivots) < n:
        raise ValueError("singular matrix")
    g = gcd(last, *(x for row in rows for x in row[n:])) * (1 if last > 0 else -1)
    return [[x // g for x in row[n:]] for row in rows], last // g, product


def _level(scaled, d) -> int:
    """Least N with N * G^-1 integral and with even diagonal, from G^-1 =
    scaled / d: the least N with N * q(gamma) integral for every coset, since
    q(G^-1 x) = x^T G^-1 x / 2.  The entries over d have common denominator
    d, and a diagonal entry over 2d refines its own."""
    return lcm(d, *(2 * d // gcd(row[i], 2 * d) for i, row in enumerate(scaled)))


class DiscriminantForm:
    """The finite quadratic module M_dual/M of an even lattice.

    With d the least common denominator of G^-1, each class is kept as the
    integer vector y = d*v mod d of its canonical representative v
    (coordinates in [0,1) with respect to the lattice basis).  The columns of
    d*G^-1 generate the group; the cosets are the closure of {0} under adding
    them mod d, and their number must be |det G|.  One elimination gives both
    G^-1 and det G.  The closure extends the subgroup H found so far by one
    generator g at a time, appending H + g, H + 2g, ... until a multiple of g
    falls in H, so each coset is made by one addition.  Group operations are
    integer vector arithmetic mod d and a lookup.  With y and z the vectors of
    two classes, q = y^T G y / (2 d^2) mod 1 and b = y^T G z / d^2 mod 1 are
    read off integer norms mod 2d^2 and d^2, with one ``Fraction`` per
    distinct q-value.  ``level`` is the least N with N * q(gamma) integral for
    every coset.  ``cosets`` lists the representatives v = y/d as ``Fraction``
    tuples: the zero class first and the remaining classes in lexicographic
    order.
    """

    def __init__(self, lattice: EvenLattice):
        self.lattice = lattice
        gram = lattice.gram
        scaled, d, det = _scaled_inverse(gram)
        self.level = _level(scaled, d)
        zero = (0,) * len(gram)
        members, seen = [zero], {zero}
        for g in {tuple(x % d for x in col) for col in zip(*scaled)} - {zero}:
            subgroup = members[:]
            shift = g
            while shift not in seen:  # the coset H + shift is new
                for h in subgroup:
                    s = tuple([(a + b) % d for a, b in zip(h, shift)])
                    members.append(s)
                    seen.add(s)
                shift = tuple([(a + b) % d for a, b in zip(shift, g)])
        self.order = len(members)
        size = abs(det)
        if self.order != size:
            raise ArithmeticError(
                f"discriminant group order {self.order} differs from |det| = {size}"
            )
        self._d = d
        self._ys = ys = [zero] + sorted(members[1:])
        self._index = {y: i for i, y in enumerate(ys)}
        unit = [Fraction(c, d) for c in range(d)]
        self.cosets: list[tuple[Fraction, ...]] = [tuple(map(unit.__getitem__, y)) for y in ys]

        self._gys = [tuple(sum(map(mul, row, y)) for row in gram) for y in ys]
        two_d2 = 2 * d * d
        norms = [sum(map(mul, y, gy)) % two_d2 for y, gy in zip(ys, self._gys)]
        # one q-value and one residue per distinct norm: the class -q(gamma)
        # mod Z of a component's exponents, as (num, den) in lowest terms
        values = {}
        for r in set(norms):
            s = -r % two_d2
            g = gcd(s, two_d2)
            values[r] = (Fraction(r, two_d2), (s // g, two_d2 // g))
        self.qvalues: list[Fraction] = [values[r][0] for r in norms]
        self._residues = [values[r][1] for r in norms]
        self._neg = [self.multiple(i, -1) for i in range(self.order)]

    # -- group structure ---------------------------------------------------

    def add(self, i: int, j: int) -> int:
        d = self._d
        return self._index[tuple([(a + b) % d for a, b in zip(self._ys[i], self._ys[j])])]

    def neg(self, i: int) -> int:
        return self._neg[i]

    def multiple(self, i: int, m: int) -> int:
        d = self._d
        return self._index[tuple([m * a % d for a in self._ys[i]])]

    def element_order(self, i: int) -> int:
        d = self._d
        return d // gcd(d, *self._ys[i])

    # -- quadratic/bilinear values ------------------------------------------

    def qvalue(self, i: int) -> Fraction:
        return self.qvalues[i]

    def bvalue(self, i: int, j: int) -> Fraction:
        d2 = self._d * self._d
        return Fraction(sum(map(mul, self._ys[i], self._gys[j])) % d2, d2)

    def __repr__(self):
        return f"DiscriminantForm(order {self.order}, q-values {self.qvalues})"


@lru_cache(maxsize=None)
def _cached_form(gram: tuple[tuple[int, ...], ...]) -> DiscriminantForm:
    return DiscriminantForm(EvenLattice(gram))


def discriminant_form(lattice: EvenLattice | tuple) -> DiscriminantForm:
    if isinstance(lattice, EvenLattice):
        return _cached_form(lattice.gram)
    return _cached_form(tuple(tuple(row) for row in lattice))


def w_prime_form() -> DiscriminantForm:
    """The order-3 discriminant form of -W, in the canonical labeling."""
    return discriminant_form(W_PRIME_GRAM)


# ---------------------------------------------------------------------------
# the metaplectic group
# ---------------------------------------------------------------------------

def _upper(re: int, im: int) -> bool:
    """Arg(re + im*i) lies in (0, pi]."""
    return im > 0 or (im == 0 and re < 0)


class Mp2Element(_Value):
    """Element (A, phi) of Mp2(Z): A in SL2(Z) and phi(tau) = eps*sqrt(c*tau+d)
    with the principal square root and eps in {+1, -1}.  Every entry and the
    branch must be an int (``TypeError`` otherwise, a bool included)."""

    __slots__ = ("a", "b", "c", "d", "eps")

    def __init__(self, a: int, b: int, c: int, d: int, eps: int = 1):
        if {type(a), type(b), type(c), type(d), type(eps)} != {int}:
            fields = zip(self.__slots__, (a, b, c, d, eps))
            name, bad = next(f for f in fields if type(f[1]) is not int)
            raise TypeError(f"Mp2Element {name} = {bad!r} is not an int")
        if a * d - b * c != 1:
            raise ValueError("matrix is not in SL2(Z)")
        if eps not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        self._set(a, b, c, d, eps)

    @property
    def matrix(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "Mp2Element":
        return cls(1, 0, 0, 1, 1)

    @classmethod
    def T(cls, n: int = 1) -> "Mp2Element":
        return cls(1, n, 0, 1, 1)

    @classmethod
    def S(cls) -> "Mp2Element":
        return cls(0, -1, 1, 0, 1)

    def phi(self, tau: complex) -> complex:
        return self.eps * cmath.sqrt(self.c * tau + self.d)

    def act(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def __mul__(self, other: "Mp2Element") -> "Mp2Element":
        if not isinstance(other, Mp2Element):
            return NotImplemented
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        # The branch cocycle at tau = i, in Gaussian integers.  With
        # z_X = c_X*i + d_X, the product's phi is eps_A*eps_B*sqrt(w)*sqrt(v)
        # for v = z_B and w = z_AB / z_B, against sqrt(z_AB) = sqrt(w*v).
        # The principal roots differ by -1 exactly when Arg w + Arg v leaves
        # (-pi, pi]: above pi, both arguments lie in (0, pi] and Arg z_AB does
        # not; at or below -pi, both are negative and Arg z_AB lies in
        # (0, pi].  Arg w = Arg u for the Gaussian integer u = z_AB*conj(z_B).
        vr, vi = other.d, other.c
        ur, ui = d * vr + c * vi, c * vr - d * vi
        if _upper(ur, ui) and _upper(vr, vi):
            flip = not _upper(d, c)
        else:
            flip = ui < 0 and vi < 0 and _upper(d, c)
        eps = -self.eps * other.eps if flip else self.eps * other.eps
        return Mp2Element(a, b, c, d, eps)

    def word_in_generators(self) -> list[tuple[str, int]]:
        """Deterministic word [('T', n) | ('S', 1)] whose product equals self.

        Euclidean reduction on the first column; a possible leftover central
        element (I, -1) is expressed as S^4.
        """
        word: list[tuple[str, int]] = []
        a, b, c, d = self.matrix
        while c != 0:
            # n = nearest integer to a/c so the remainder shrinks by half
            n = (2 * a + c) // (2 * c) if c > 0 else (2 * a - c) // (2 * c)
            if n:
                word.append(("T", n))
            word.append(("S", 1))
            # strip T^n * S from the left:  (a b; c d) = T^n S (c d; -(a-nc) -(b-nd))
            a, b, c, d = c, d, -(a - n * c), -(b - n * d)
        if a == 1:
            if b:
                word.append(("T", b))
        else:  # a == d == -1: the rest is S^2 * T^{-b}
            word.extend([("S", 1), ("S", 1)])
            if b:
                word.append(("T", -b))
        prod = Mp2Element.identity()
        for kind, n in word:
            prod = prod * (Mp2Element.T(n) if kind == "T" else Mp2Element.S())
        if prod.matrix != self.matrix:
            raise ArithmeticError(
                f"word for the matrix {self.matrix} multiplies out to {prod.matrix}"
            )
        if prod.eps != self.eps:
            word.extend([("S", 1)] * 4)  # S^4 = (identity, -1)
        return word


# ---------------------------------------------------------------------------
# the Weil representation
# ---------------------------------------------------------------------------

def _mat_mul_cyc(x, y):
    cols = list(zip(*y))
    return [[Cyclotomic.dot(row, col) for col in cols] for row in x]


def _mat_identity_cyc(n):
    one = Cyclotomic.one()
    zero = Cyclotomic.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def conjugate_transpose(m):
    n = len(m)
    return [[m[j][i].conjugate() for j in range(n)] for i in range(n)]


class WeilRep:
    """Weil representation rho_F of Mp2(Z) on the group ring of a
    discriminant form F, with exact cyclotomic matrices.  Its dual rho*_F is
    rho_{-F}: build it on the form of the negated Gram matrix, whose cosets
    come in the same order.

    Matrices act on column vectors indexed by the cosets; rho(g) is computed
    by decomposing g into a word in the generators S and T.  rho(T^n) is
    diagonal, so a T step scales the columns of the running product by
    e(n*q(gamma)); an S step is a product with rho(S), built once.
    """

    def __init__(self, form: DiscriminantForm):
        self.form = form
        self._cache: dict[tuple[int, int, int, int, int], tuple[tuple[Cyclotomic, ...], ...]] = {}
        self._s = self.s_matrix()

    def s_matrix(self):
        """rho(S): (sqrt(i)^(b- - b+)/sqrt(order)) * (e(-<gamma,delta>))."""
        form = self.form
        bplus, bminus = form.lattice.signature
        front = Cyclotomic.zeta_power(3 * ((bminus - bplus) % 8))  # sqrt(i)^k
        front = front * Cyclotomic.sqrt_int(form.order) * Fraction(1, form.order)
        return [
            [
                front * Cyclotomic.root_of_unity(-form.bvalue(i, j))
                for j in range(form.order)
            ]
            for i in range(form.order)
        ]

    # -- arbitrary elements ---------------------------------------------------

    def rho(self, g: Mp2Element):
        """rho(g) as a new list of row lists; the cache keeps its own rows."""
        key = (*g.matrix, g.eps)
        if key in self._cache:
            return list(map(list, self._cache[key]))
        out = _mat_identity_cyc(self.form.order)
        for kind, n in g.word_in_generators():
            if kind == "T":  # out * rho(T^n) scales column gamma by e(n*q(gamma))
                diag = [Cyclotomic.root_of_unity(n * q) for q in self.form.qvalues]
                out = [[x * t for x, t in zip(row, diag)] for row in out]
            else:
                out = _mat_mul_cyc(out, self._s)
        self._cache[key] = tuple(map(tuple, out))
        return out

    def rho_gamma0_formula(self, g: Mp2Element):
        """Closed form for elements of Gamma0(N), N the level of the form:

            rho(g) v_gamma =
                (a/order) * e((1-a)*oddity/8) * e(b*d*q(gamma)) * v_{d*gamma}

        Only odd-order forms are supported; their 2-adic part is trivial, so
        the oddity is 0 and the middle factor is 1.  The branch eps of g
        changes nothing: an even lattice with odd |det| has even rank, so
        the central element (I, -1) acts as (-1)^(b+ - b-) I = I.
        """
        form = self.form
        N = form.level
        if g.c % N != 0:
            raise ValueError(f"element is not in Gamma0({N})")
        if form.order % 2 == 0:
            raise NotImplementedError("closed form implemented for odd order only")
        zero = Cyclotomic.zero()
        out = [[zero] * form.order for _ in range(form.order)]
        sign = jacobi_symbol(g.a, form.order)
        for i in range(form.order):
            phase = Cyclotomic.root_of_unity(g.b * g.d * form.qvalue(i))
            target = form.multiple(i, g.d % form.order)
            out[target][i] = out[target][i] + phase * sign
        return out

    def is_unitary(self, m) -> bool:
        prod = _mat_mul_cyc(m, conjugate_transpose(m))
        ident = _mat_identity_cyc(self.form.order)
        return all(
            prod[i][j] == ident[i][j]
            for i in range(self.form.order)
            for j in range(self.form.order)
        )


def gauss_milgram_check(form: DiscriminantForm) -> bool:
    """Milgram's formula sum_gamma e(q(gamma)) = sqrt(order) * e((b+ - b-)/8),
    exactly, for the lattice's signature (b+, b-), which the form fixes mod 8."""
    total = gauss_sum(1, form.qvalues)
    bplus, bminus = form.lattice.signature
    rhs = Cyclotomic.sqrt_int(form.order) * Cyclotomic.root_of_unity(
        Fraction(bplus - bminus, 8)
    )
    return total == rhs


# ---------------------------------------------------------------------------
# positive definite lattice point enumeration (for theta series)
# ---------------------------------------------------------------------------

def short_vectors(
    lattice: EvenLattice, offset, bound: Fraction
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """All vectors v = offset + x, x integral, with <v,v> <= bound, for a
    positive definite lattice.  Returns (coordinates, <v,v>) pairs, with the
    last coordinate varying slowest and each coordinate ascending.  The offset
    has one entry per coordinate (else ValueError); entries and bound are ints or Fractions.

    A ``Fraction`` view of the one integer walk, ``_short_vector_walk``,
    in list mode: completion of squares (Fincke-Pohst, Math. Comp. 44, 1985)
    over y = d*v, d the common denominator of the offset, read off the pivot
    rows of ``_linalg.symmetric_reduce``, which must all be positive and in
    order.  ``eisenstein._coset_thetas`` runs the same walk in dict mode,
    counting norms and keeping no vector.
    """
    d, leaves = _short_vector_walk(lattice, offset, bound, [])
    return [(tuple(Fraction(yk, d) for yk in y), Fraction(ygy, d * d)) for y, ygy in leaves]


def _short_vector_walk(lattice: EvenLattice, offset, bound: Fraction, out: list | dict):
    """The one walk over the vectors y = d*v of ``short_vectors``: the common
    denominator d of the offset and ``out``, to which the last level appends
    each leaf (y, y^T G y) if it is a list, the last coordinate varying
    slowest and each coordinate ascending, and adds y^T G y if it is a dict,
    {y^T G y: number of leaves}, in memory O(distinct norms), not
    O(vectors).  Rank 0 gives the one empty vector, a negative bound none.

    Step i of ``symmetric_reduce`` gives the row r_i, the pivot p_i = r_i[i]
    and the divisor prev_i, and Q(v) = sum_i (p_i / prev_i) * u_i^2 with
    u_i = sum_{j>=i} r_i[j] * v_j / p_i.  So t_i = sum_{j>=i} r_i[j] * y_j =
    d * p_i * u_i is an integer and Q(v) = sum_i t_i^2 / (d^2 prev_i p_i).
    With M = lcm(prev_i * p_i), W_i = den(bound) * M / (prev_i * p_i) and
    R = M * d^2 * num(bound), Q(v) <= bound is sum_i W_i * t_i^2 <= R, so
    level i keeps |t_i| <= isqrt(rem // W_i), rem being R less the levels
    above, where t_i = d * p_i * x_i + p_i * base_i + sum_{j>i} r_i[j] * y_j
    for y_i = base_i + d * x_i.  The norm y^T G y = d^2 <v,v> is built from
    the Gram rows, so it checks the window: level i adds y_i * (G_ii * y_i +
    2 * sum_{j>i} G_ij * y_j), both sums over j > i in one loop per node over
    a merged row of (j, r_i[j], 2*G_ij).  The last level keeps y when
    y^T G y * den(bound) <= num(bound) * d^2.
    """
    n = lattice.rank
    gram = lattice.gram
    offset = [as_ratio(x, "offset entry") for x in offset]
    if len(offset) != n:
        raise ValueError(f"offset has {len(offset)} entries for a lattice of rank {n}")
    num_bound, den_bound = as_ratio(bound, "bound")
    steps = _linalg.symmetric_reduce(gram)
    if any(k != i or row[k] <= 0 for i, (k, row, _) in enumerate(steps)):
        raise ValueError("lattice is not positive definite")
    d = lcm(1, *(den for _, den in offset))
    if num_bound < 0:
        return d, out
    binned = type(out) is dict
    base = [num * (d // den) for num, den in offset]  # y_i = base_i mod d
    m = lcm(1, *(prev * row[i] for i, row, prev in steps))
    levels = [
        (
            d * row[i],
            den_bound * m // (prev * row[i]),
            row[i] * base[i],
            gram[i][i],
            [(j, row[j], 2 * gram[i][j]) for j in range(i + 1, n) if row[j] or gram[i][j]],
        )
        for i, row, prev in steps
    ]
    y = [0] * n
    cap = num_bound * d * d

    def walk(i: int, rem: int, acc: int):
        di, wi, c, gii, row = levels[i]
        h = 0
        for j, k, g in row:
            yj = y[j]
            c += k * yj
            h += g * yj
        t_max = isqrt(rem // wi)
        xs = range(-((t_max + c) // di), (t_max - c) // di + 1)
        bi = base[i]
        if i:
            for xi in xs:
                t = di * xi + c
                y[i] = yi = bi + d * xi
                walk(i - 1, rem - wi * t * t, acc + yi * (gii * yi + h))
            return
        if binned:
            for xi in xs:
                yi = bi + d * xi
                ygy = acc + yi * (gii * yi + h)
                if ygy * den_bound <= cap:
                    out[ygy] = out[ygy] + 1 if ygy in out else 1
            return
        rest = tuple(y[1:])
        for xi in xs:
            yi = bi + d * xi
            ygy = acc + yi * (gii * yi + h)
            if ygy * den_bound <= cap:
                out.append(((yi, *rest), ygy))

    if n:
        walk(n - 1, m * cap, 0)
    elif binned:  # rank 0: the empty vector, whose norm 0 is within the bound
        out[0] = 1
    else:
        out.append(((), 0))
    return d, out
