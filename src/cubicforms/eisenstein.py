"""Eisenstein series: the classical level-1 series, the level-3 series with
quadratic character, and the vector-valued Eisenstein series attached to the
order-3 discriminant form, assembled from local Euler products.

The vector-valued coefficients are computed exactly: the transcendental parts
of the normalizing L-value cancel against Bernoulli sums, and every local
factor has a closed form, so the series is read off one twisted divisor sieve.
The same factors, assembled by ``local_euler_factor`` from representation
counts of a quadratic congruence by one memoized descent, are kept as the
tests' oracle of that closed form; nothing on the series path calls them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import cycle, product
from operator import mul

from .exactmath import (
    IntegralityError,
    _prime,
    as_fraction,
    as_integer,
    bernoulli_number,
    bernoulli_poly,
    chi_minus3,
    p_valuation,
)
from .fqm import (
    E8_GRAM,
    W_GRAM,
    DiscriminantForm,
    _short_vector_walk,
    discriminant_form,
    w_prime_form,
)
from .qseries import QSeries, VectorForm, _cutoff, _series

__all__ = [
    "eisenstein_level1",
    "eisenstein_chi",
    "alpha_series",
    "beta_series",
    "prime_power_counts",
    "local_euler_factor",
    "l_value_ratio",
    "vv_eisenstein",
    "theta_series_rank10",
]


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

def _divisor_sums(k: int, prec: int, chi: tuple[int, ...]) -> list[int]:
    """[s(0), ..., s(prec - 1)] with s(n) = sum_{d | n} d^(k-1) * chi(n/d)
    for n >= 1 and s(0) = 0, where chi is periodic with the values chi(1),
    chi(2), ...: one sieve over the multiples of each d, O(prec log prec)
    additions."""
    sums = [0] * prec
    for d in range(1, prec):
        p = d ** (k - 1)
        for n, c in zip(range(d, prec, d), cycle(chi)):
            if c:
                sums[n] += c * p
    return sums


def eisenstein_level1(k: int, prec: Fraction | int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum_{n>=1} sigma_{k-1}(n) q^n, weight k even >= 4."""
    if k < 4 or k % 2:
        raise ValueError(f"level-1 Eisenstein series needs even k >= 4, got {k}")
    stop = _cutoff(prec, 1, nonnegative=True)
    factor = -2 * k / bernoulli_number(k)
    a, b = factor.numerator, factor.denominator
    nums = {n: a * s for n, s in enumerate(_divisor_sums(k, stop, (1,)))}
    nums[0] = b
    return _series(nums, b, 1, stop)


def eisenstein_chi(k: int, prec: Fraction | int) -> QSeries:
    """Weight-k level-3 Eisenstein series with the quadratic character mod 3.

    k = 1 carries the 1 + 6*sum normalization; k >= 3 starts at q.  The q^n
    coefficient is the divisor sum of d^(k-1) * chi(n/d).
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"character Eisenstein series needs odd k >= 1, got {k}")
    stop = _cutoff(prec, 1, nonnegative=True)
    scale = 6 if k == 1 else 1
    sums = _divisor_sums(k, stop, tuple(scale * chi_minus3(m) for m in (1, 2, 3)))
    nums = dict(enumerate(sums))
    if k == 1:
        nums[0] = 1
    return _series(nums, 1, 1, stop)


def alpha_series(prec: int) -> QSeries:
    """The weight-1 generator 1 + 6q + 6q^3 + 6q^4 + 12q^7 + ..."""
    return eisenstein_chi(1, prec)


def beta_series(prec: int) -> QSeries:
    """The weight-3 generator q + 3q^2 + 9q^3 + 13q^4 + 24q^5 + ..."""
    return eisenstein_chi(3, prec)


# ---------------------------------------------------------------------------
# representation counts for the local Euler factors
# ---------------------------------------------------------------------------

def _integer_polynomial(form: DiscriminantForm, gamma: int, n: Fraction):
    """The congruence (1/2)(r-gamma)^2 + n as an integer polynomial in r.

    Evenness gives (1/2)<r,r> in Z[r]; duality gives <r,gamma> in Z[r]; and
    q(gamma) + n in Z makes the constant term integral.  Returns (G, lin, const)
    with lin = -G v and const = v^T G v / 2 + n off one product G v, v = cosets[gamma].
    """
    gram, rep = form.lattice.gram, form.cosets[gamma]
    g_rep = [sum(map(mul, row, rep)) for row in gram]
    lin = tuple(-as_integer(x, "dual pairing coefficient") for x in g_rep)
    half = sum(map(mul, rep, g_rep), 2 * n) / 2  # v^T G v / 2 + n
    return gram, lin, as_integer(half, f"q(gamma) + n for coset {gamma}, n = {n}")


def prime_power_counts(
    form: DiscriminantForm, gamma: int, n: Fraction, p: int, vmax: int
) -> list[int]:
    """Counts [N(p^0), ..., N(p^vmax)] of the same congruence, by descent at
    singular points, for a prime p and vmax >= 0 (else ``ValueError``).

    Write the congruence as f(r) = Q(r) + b.r + c with Q(r) = r^T G r / 2 and
    G even.  A solution x mod p with grad f(x) != 0 mod p is nonsingular: by
    Hensel it contributes p^((v-1)(rank-1)) solutions mod p^v.  A singular
    solution, grad f(x) = p*g, contributes 1 at v = 1; for v >= 2 it
    contributes nothing unless p^2 | f(x), and then p^rank * N_{f'}(p^(v-2)),
    because

        f(x + p*s) = f(x) + p^2 * f'(s),    f'(s) = Q(s) + g.s + f(x)/p^2.

    f' has the same G, so the counts recurse on it, to depth vmax/2.  Each
    level is seeded by the solutions mod p.  For rank 2 and p not dividing
    2 det G the only singular point is x = -G^(-1) b mod p, and with
    chi = (-det G / p) there are p - chi nonsingular solutions if
    f(x) != 0 mod p, and (p-1)(1+chi) if f(x) = 0 mod p.  Otherwise the
    p^rank residues are enumerated.  The tests pin these counts against a
    brute-force count over (Z/p^v)^rank.
    """
    if not isinstance(vmax, int) or vmax < 0:
        raise ValueError(f"vmax must be an integer >= 0, got {vmax!r}")
    n = as_fraction(n, "n")
    return list(_descent(*_integer_polynomial(form, gamma, n), _prime(p), vmax))


def _value(gram, lin, const, x) -> int:
    rank = len(gram)
    q2 = sum(gram[i][j] * x[i] * x[j] for i in range(rank) for j in range(rank))
    return q2 // 2 + sum(b * xi for b, xi in zip(lin, x)) + const


def _gradient(gram, lin, x) -> list[int]:
    return [sum(g * xj for g, xj in zip(row, x)) + b for row, b in zip(gram, lin)]


def _solutions_mod_p(gram, lin, const, p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(number of nonsingular solutions of f = 0 mod p, the singular ones),
    with the singular points as residues in [0, p)."""
    if len(gram) == 2:
        (a, h), (_, d) = gram
        det = a * d - h * h
        if (2 * det) % p:
            inv = pow(det, -1, p)
            x = ((h * lin[1] - d * lin[0]) * inv % p, (h * lin[0] - a * lin[1]) * inv % p)
            chi = 1 if pow(-det, (p - 1) // 2, p) == 1 else -1
            if _value(gram, lin, const, x) % p:
                return p - chi, ()
            return (p - 1) * (1 + chi), (x,)
    nonsingular = 0
    singular = []
    for x in product(range(p), repeat=len(gram)):
        if _value(gram, lin, const, x) % p == 0:
            if any(g % p for g in _gradient(gram, lin, x)):
                nonsingular += 1
            else:
                singular.append(x)
    return nonsingular, tuple(singular)


@lru_cache(maxsize=None)
def _descent(gram, lin, const: int, p: int, vmax: int) -> tuple[int, ...]:
    """(N(p^0), ..., N(p^vmax)) for f(r) = r^T gram r / 2 + lin.r + const."""
    rank = len(gram)
    counts = [1] + [0] * vmax
    if vmax == 0:
        return (1,)
    nonsingular, singular = _solutions_mod_p(gram, lin, const, p)
    for v in range(1, vmax + 1):
        counts[v] = nonsingular * p ** ((v - 1) * (rank - 1))
    counts[1] += len(singular)
    for x in singular:
        val = _value(gram, lin, const, x)
        if vmax < 2 or val % (p * p):
            continue
        g = tuple(d // p for d in _gradient(gram, lin, x))
        sub = _descent(gram, g, val // (p * p), p, vmax - 2)
        for v in range(2, vmax + 1):
            counts[v] += p**rank * sub[v - 2]
    return tuple(counts)


def local_euler_factor(
    k: int, form: DiscriminantForm, gamma: int, n: Fraction, p: int
) -> Fraction:
    """L_{gamma,n}(k,p) = (1-p^(1-k)) sum_{v<omega} N(p^v) p^(-kv)
                          + N(p^omega) p^(-k*omega),  p prime,

    with omega = 1 + 2 v_p(2 d_gamma n), d_gamma the order of gamma, an
    integer k >= 1 and n > 0; any other k, n < 0 and n = 0 (no valuation)
    raise ``ValueError`` before the descent runs.  The counts come from
    the descent of ``prime_power_counts``; the sum is taken by Horner over the
    denominator p^(k*omega+k-1), with one ``Fraction`` at the end.  It is the
    oracle, not the hot path: ``vv_eisenstein`` takes every factor in closed
    form, and the tests check each closed form against this descent.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    n = as_fraction(n, "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    two_d_n = as_integer(2 * form.element_order(gamma) * n, "2*d_gamma*n")
    w = 1 + 2 * p_valuation(two_d_n, p)  # which checks that p is a prime
    counts = _descent(*_integer_polynomial(form, gamma, n), p, w)
    pk, pk1 = p**k, p ** (k - 1)
    head = 0  # sum_{v<w} N(p^v) p^(k(w-v)), by Horner
    for c in counts[:w]:
        head = (head + c) * pk
    return Fraction((pk1 - 1) * head + pk1 * counts[w], pk1 * pk**w)


@lru_cache(maxsize=None)
def l_value_ratio(k: int) -> Fraction:
    """Exact rational value of (-1)^((k-1)/2) 2^(k+1) pi^k / (sqrt(3) Gamma(k) L(k,chi)).

    At odd k, L(k, chi) = (-1)^((k-1)/2) (2^(k-1) pi^k / (k! sqrt(3))) *
    sum_m chi(m) B_k(1-m/3) > 0, so the ratio is 4k / sum_m chi(m) B_k(1-m/3).
    B_k(1-x) = -B_k(x) at odd k and chi(3) = 0, so the sum is -2 B_k(1/3)
    and the ratio -2k / B_k(1/3), from one Bernoulli value.  Cached per k;
    only an int k gets past the body, so only ints are cached.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"L-value ratio needs odd k >= 3, got {k}")
    return -2 * k / bernoulli_poly(k, Fraction(1, 3))


# ---------------------------------------------------------------------------
# the vector-valued series
# ---------------------------------------------------------------------------

def vv_eisenstein(form: DiscriminantForm, k: int, prec: Fraction | int) -> VectorForm:
    """Vector-valued Eisenstein series for the order-3 form: constant term
    2*v_0, and coefficient of q^n v_gamma equal to

        eps * ratio * n^(k-1) * prod_{p | 18n} L_{gamma,n}(k,p) / (1 - chi(p) p^(-k)).

    Each factor has a closed form (Bruinier-Kuss, "Eisenstein series attached
    to lattices and modular forms on orthogonal groups", Manuscripta Math. 106
    (2001)).  With e = 3n, chi = chi_{-3} and t = v_p(e) it is
    sum_{j<=t} (chi(p) p^(1-k))^j at p != 3; at p = 3 it is 1 for gamma != 0
    and 1 + eps chi(u) 3^((1-k)t) for gamma = 0, where e = 3^t u, 3 not
    dividing u, and eps = chi(-3 q(gamma)) at any gamma != 0 is +1 on -W and
    -1 on W.  So with s(m) = sum_{d | m} chi(m/d) d^(k-1), from one sieve, and
    r = eps * ratio / 3^(k-1), the coefficient at q^(e/3) is

        r * s(e) for gamma != 0,    r * (s(e) + eps chi(u) s(u)) for gamma = 0.

    Bruinier-Kuss's sign (-1)^(b+/2) at signature (2, 2k - 2) is
    (-1)^((2k + sig)/4), which depends on k and sig = -2 eps mod 8
    (Milgram) alone: every non-constant coefficient has the sign
    (-1)^((k - eps)/2) of eps * ratio.  They are integers, and are checked
    to be, only at k = 3, 5 on -W and k = 3, 5, 7 on W.  Each component is
    its numerators over one scale, den(ratio) * 3^(k-1), reduced once, and
    a failed check raises at its first bad exponent.  ``local_euler_factor``
    is the tests' oracle of each factor.  One component serves each {gamma,
    -gamma} orbit; the series is computed afresh on the form given, and
    nothing keeps it.
    """
    if form.order != 3 or form.lattice.rank != 2:
        raise ValueError(
            "vector-valued Eisenstein series is wired to the rank-2, order-3 form"
        )
    stop = _cutoff(prec, 3, nonnegative=True)  # q^(e/3) is below prec iff e < stop
    sums = _divisor_sums(k, stop, (1, -1, 0))
    starts = [as_integer(-3 * q, "3 q(gamma)") % 3 for q in form.qvalues]
    eps = chi_minus3(starts[1])  # the class mod 3 of the exponents at gamma != 0
    ratio = l_value_ratio(k)
    r_num, r_den = eps * ratio.numerator, ratio.denominator * 3 ** (k - 1)
    sign = eps * (-1) ** ((k - 1) // 2)
    wrong = "negative" if sign > 0 else "positive"
    integral = k <= (5 if eps > 0 else 7)

    def component(gamma: int) -> QSeries:
        nums = {0: 2 * r_den} if gamma == 0 else {}
        for e in range(starts[gamma] or 3, stop, 3):
            total = sums[e]
            if gamma == 0:
                u = e // 3
                while u % 3 == 0:
                    u //= 3
                total += eps * chi_minus3(u) * sums[u]
            nums[e] = r_num * total
        series = _series(nums, r_den, 3, stop)
        signed = [sign * n for e, n in series.nums.items() if e]
        if min(signed, default=0) < 0 or (integral and series.scale != 1):
            for e, c in sorted(series.coeffs.items()):
                at = f"q^{Fraction(e, 3)} v_{gamma}"
                if integral:
                    as_integer(c, f"Eisenstein coefficient at {at}")
                if e and sign * c < 0:
                    raise IntegralityError(f"{wrong} Eisenstein coefficient {c} at {at}")
        return series

    return VectorForm.per_orbit(k, form, component)


def theta_series_rank10(prec: Fraction | int) -> VectorForm:
    """Siegel theta series of the rank-10 positive definite lattice W + E8,
    by lattice point enumeration: coefficient of q^(v^2/2) v_gamma counts
    dual vectors v in coset gamma.

    The product theta_W * theta_E8 of the two summands' ``_coset_thetas``,
    one product per {gamma, -gamma} orbit; the tests pin this against a
    walk of the rank-10 lattice in one pass.  Indexed against the canonical
    order-3 form; the two nonzero slots carry equal series, so the coset
    matching is forced.  Serves as the independent oracle for the
    Euler-product assembly.
    """
    (e8,) = _coset_thetas(discriminant_form(E8_GRAM), prec)
    w = _coset_thetas(discriminant_form(W_GRAM), prec)
    return VectorForm.per_orbit(Fraction(5), w_prime_form(), lambda i: w[i] * e8)


def _coset_thetas(form: DiscriminantForm, prec: Fraction | int) -> list[QSeries]:
    """The theta series sum q^(<v,v>/2) over each coset v + M of the positive
    definite lattice M of ``form``, in steps of q^(1/3), to prec, indexed as
    the cosets: one ``fqm._short_vector_walk`` in dict mode per {gamma,
    -gamma} orbit, whose two indices share the series.  Each integer norm
    y^T G y = d^2 <v,v> is keyed on the integer exponent 3 y^T G y / (2 d^2),
    with no vector kept and no Fraction per norm; a norm off the 1/3 grid
    raises ``ValueError``.  The precision's domain is checked before any
    walk."""
    stop = _cutoff(prec, 3, nonnegative=True)
    bound = Fraction(2 * stop - 2, 3)  # <v,v>/2 < prec on the 1/3 grid
    out: list[QSeries] = []
    for gamma, j in enumerate(form._neg):
        if j < gamma:
            out.append(out[j])
            continue
        d, counts = _short_vector_walk(form.lattice, form.cosets[gamma], bound, {})
        two_d2 = 2 * d * d
        nums = {}
        for ygy, c in counts.items():
            e, r = divmod(3 * ygy, two_d2)
            if r:
                raise ValueError(f"exponent {Fraction(ygy, two_d2)} is not on the 1/3 grid")
            nums[e] = c
        out.append(_series(nums, 1, 3, stop))
    return out
