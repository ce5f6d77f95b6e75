"""Exact arithmetic substrate: rationals, a small cyclotomic field, Bernoulli
machinery, the quadratic character mod 3, and elementary number theory.

All values are immutable and all functions are pure; nothing here ever
rounds.  Rational numbers are ``fractions.Fraction`` (always in lowest terms
with positive denominator), re-exported as ``Rational``.  A ``Cyclotomic``
holds eight integer numerators over one positive integer denominator, also in
lowest terms, and computes in integers only.

``_Value`` is the one definition of value semantics for the immutable
classes (``Cyclotomic`` here; ``EvenLattice``, ``Mp2Element``,
``VectorForm``, ``HeegnerSeries``, ``RingClassP5``, ``RingClassGr36`` and
``ChernSeries`` in the other modules): read-only ``__slots__`` fields set
once by ``__init__``, and equality, hashing, ``repr``, copy and pickle from
the field tuple; ``Cyclotomic`` keeps its own equality, hashing and ``repr``.
``_Ring`` is the one definition of the derived ring operations (negation,
subtraction and powers) for ``Cyclotomic``, ``qseries.QSeries`` and the
Grassmannian classes of ``schubert``.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Cyclotomic",
    "IntegralityError",
    "as_fraction",
    "as_integer",
    "as_ratio",
    "bernoulli_number",
    "bernoulli_poly",
    "chi_minus3",
    "factorize",
    "gauss_sum",
    "jacobi_symbol",
    "p_valuation",
    "prime_factors",
]


def _read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of every ``_Value``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class _Value:
    """Base of the immutable value classes.  A subclass names its fields in
    ``__slots__``; its ``__init__`` validates, normalizes and sets every
    field once with ``_set``.  Equality (same class only), hashing, ``repr``
    and copy/pickle (back through ``__init__``) all read the field tuple in
    slot order."""

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class _Ring:
    """Negation, subtraction and powers of the exact rings, from a
    subclass's ``__add__``, ``__mul__`` and ``one()``; an operand the ring
    cannot take gives ``NotImplemented``, so Python raises its own TypeError."""

    __slots__ = ()

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        try:
            other = -other
        except TypeError:
            return NotImplemented
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __pow__(self, m: int):
        if not isinstance(m, int):
            raise TypeError(f"power must be an int, not {type(m).__name__}")
        if m < 0:
            raise ValueError("negative powers are not supported")
        out = self.one()
        for _ in range(m):
            out = out * self
        return out


class IntegralityError(ArithmeticError):
    """A quantity that must be an integer came out non-integral."""


def as_fraction(x: Fraction | int, what: str = "value") -> Fraction:
    """An int or Fraction input as a Fraction (a Fraction itself comes back
    as it is); a float, which would enter as its binary expansion, or
    anything else raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {type(x).__name__}")
    return x if type(x) is Fraction else Fraction(x)


def as_ratio(x: Fraction | int, what: str = "value") -> tuple[int, int]:
    """An int or Fraction input as its ratio (numerator, denominator > 0) in
    lowest terms, read without building a Fraction; it type-checks as
    ``as_fraction`` does."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {type(x).__name__}")
    return x.as_integer_ratio()


def as_integer(x: Fraction | int, what: str = "value") -> int:
    """Convert an exact rational known to be integral, else raise."""
    n, d = as_ratio(x, what)
    if d != 1:
        raise IntegralityError(f"{what} = {x} is not an integer")
    return n


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, extended to all integers a."""
    if not isinstance(a, int) or not isinstance(n, int):
        raise TypeError(f"Jacobi symbol needs ints, not ({type(a).__name__}, {type(n).__name__})")
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    result = 1
    if a < 0:
        a = -a
        if n % 4 == 3:
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def chi_minus3(n: int) -> int:
    """Quadratic Dirichlet character mod 3: 0 on multiples of 3, +-1 else."""
    return (0, 1, -1)[n % 3]


def p_valuation(n: int | Fraction, p: int) -> int:
    """Exponent of the prime p in n (negative for p in the denominator)."""
    num, den = as_ratio(n, "n")
    _prime(p)
    if num == 0:
        raise ValueError("p-adic valuation of 0 is undefined")
    v = 0
    num = abs(num)
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if not isinstance(n, int):
        raise TypeError(f"cannot factorize a {type(n).__name__}")
    if n <= 0:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def _prime(p: int) -> int:
    if not isinstance(p, int) or p < 2 or prime_factors(p) != [p]:
        raise ValueError(f"p must be a prime, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by Gould's double sum

        B_k = sum_{j=0}^{k} 1/(j+1) sum_{i=0}^{j} (-1)^i C(j,i) i^k

    (H. W. Gould, "Explicit formulas for Bernoulli numbers", Amer. Math.
    Monthly 79 (1972)), in integers over the common denominator
    lcm(1, ..., k+1), with one Fraction at the end; it is the sum of
    ``bernoulli_poly`` at x = 0."""
    return _bernoulli(k, 0, 1)


def bernoulli_poly(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_{j=0}^{k} 1/(j+1) sum_{i=0}^{j} (-1)^i C(j,i) (x+i)^k,
    exactly: Gould's sum for B_k shifted by x (H. Hasse, Math. Z. 32 (1930)).
    At x = p/q it is one integer sum over the common denominator
    lcm(1, ..., k+1) * q^k, with one Fraction at the end."""
    return _bernoulli(k, *as_ratio(x, "x"))


def _bernoulli(k: int, p: int, q: int) -> Fraction:
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    den = lcm(*range(1, k + 2))
    # a[0] runs through the j-th forward differences of (p + i*q)^k at i = 0,
    # sum_i (-1)^(j-i) C(j,i) (p + i*q)^k, one subtraction per entry and step
    a = [(p + i * q) ** k for i in range(k + 1)]
    total = 0
    for j in range(k + 1):
        term = a[0] * (den // (j + 1))
        total += -term if j % 2 else term
        for i in range(k - j):
            a[i] = a[i + 1] - a[i]
    return Fraction(total, den * q**k)


# ---------------------------------------------------------------------------
# cyclotomic field Q(zeta_24)
# ---------------------------------------------------------------------------

_ORDER = 24
_DEGREE = 8  # phi(24); Phi_24 = x^8 - x^4 + 1, so zeta^8 = zeta^4 - 1


def _convolve_into(acc: list[int], a: Sequence[int], b: Sequence[int], m: int) -> None:
    """acc[i + j] += m * a[i] * b[j]: the unfolded 8x8 product of two
    power-basis numerator tuples, scaled by m."""
    for i, x in enumerate(a):
        if x:
            x *= m
            for j, y in enumerate(b):
                if y:
                    acc[i + j] += x * y


def _canonical(coeffs: list[int], den: int) -> "Cyclotomic":
    """sum_k coeffs[k] zeta^k / den (den > 0, len(coeffs) >= 8): folds the list
    in place by zeta^k = zeta^(k-4) - zeta^(k-8), top coefficient first, down
    to the power basis, then reduces to lowest terms."""
    for k in range(len(coeffs) - 1, _DEGREE - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k - 4] += c
            coeffs[k - 8] -= c
    nums = coeffs[:_DEGREE]
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    out = object.__new__(Cyclotomic)
    out._set(tuple(nums), den)
    return out


class Cyclotomic(_Ring, _Value):
    """Exact element of Q(zeta_24) in the power basis 1, zeta, ..., zeta^7,
    held read-only as integer numerators ``nums`` over one ``den`` > 0 with
    gcd(den, *nums) = 1, so equal elements have equal layouts.  ``coeffs`` is
    the ``Fraction`` view; a rational element hashes as its ``Fraction``.
    ``Cyclotomic(coeffs, den)`` is sum_k coeffs[k] zeta^k / den, so the field
    pair (nums, den) rebuilds the element on copy and pickle.

    The field contains i, sqrt(2), sqrt(3) and the eighth roots of unity,
    which covers every root of unity and surd this project needs.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Fraction | int], den: int = 1):
        if len(coeffs) != _DEGREE:
            raise ValueError(f"need {_DEGREE} coordinates for order {_ORDER}")
        coeffs = [as_fraction(c, "cyclotomic coordinate") for c in coeffs]
        if type(den) is not int:
            raise TypeError(f"cyclotomic denominator must be an int, not {type(den).__name__}")
        if den < 1:
            raise ValueError(f"cyclotomic denominator must be a positive integer, got {den!r}")
        scale = lcm(*(c.denominator for c in coeffs))
        nums = [(c * scale).numerator for c in coeffs]
        g = gcd(den, *nums)  # the numerators are already prime to scale
        self._set(tuple([n // g for n in nums]), scale * den // g)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return _canonical([0] * _DEGREE, 1)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return _canonical([1] + [0] * (_DEGREE - 1), 1)

    @classmethod
    def from_rational(cls, x: Fraction | int) -> "Cyclotomic":
        n, d = as_ratio(x, "rational")
        return _canonical([n] + [0] * (_DEGREE - 1), d)

    @classmethod
    def zeta_power(cls, k: int) -> "Cyclotomic":
        """zeta_24^k reduced into the power basis."""
        coeffs = [0] * _ORDER
        coeffs[k % _ORDER] = 1
        return _canonical(coeffs, 1)

    @classmethod
    def root_of_unity(cls, x: Fraction | int) -> "Cyclotomic":
        """e(x) = exp(2*pi*i*x) for rational x with denominator dividing 24."""
        n, d = as_ratio(x, "root of unity exponent")
        if _ORDER % d != 0:
            raise ValueError(f"e({x}) does not lie in the order-{_ORDER} field")
        return cls.zeta_power(n * (_ORDER // d))

    @classmethod
    def sqrt_int(cls, n: int) -> "Cyclotomic":
        """sqrt(n) for positive n whose squarefree part is prime to every
        prime but 2 and 3."""
        if n <= 0:
            raise ValueError("sqrt_int needs a positive integer")
        square, free = 1, 1
        for p, e in factorize(n).items():
            square *= p ** (e // 2)
            if e % 2:
                free *= p
        out = cls.from_rational(square)
        for p in factorize(free):
            if p == 2:
                root = cls.zeta_power(3) + cls.zeta_power(-3)
            elif p == 3:
                # Gauss sum: sum_a (a/3) zeta_3^a = i*sqrt(3)
                root = (cls.zeta_power(8) - cls.zeta_power(16)) * cls.zeta_power(-6)
            else:
                raise ValueError(f"sqrt({n}) does not lie in the order-{_ORDER} field")
            out = out * root
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclotomic.from_rational(other)
        da, db = self.den, other.den
        return _canonical([a * db + b * da for a, b in zip(self.nums, other.nums)], da * db)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclotomic.from_rational(other)
        prod = [0] * (2 * _DEGREE - 1)
        _convolve_into(prod, self.nums, other.nums, 1)
        return _canonical(prod, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Iterable["Cyclotomic"], ys: Iterable["Cyclotomic"]) -> "Cyclotomic":
        """sum x*y over the paired entries of two equally long sequences: the
        products are accumulated unfolded over the lcm of the term
        denominators, then folded and reduced once."""
        pairs = list(zip(xs, ys, strict=True))
        den = lcm(*[x.den * y.den for x, y in pairs])
        acc = [0] * (2 * _DEGREE - 1)
        for x, y in pairs:
            _convolve_into(acc, x.nums, y.nums, den // (x.den * y.den))
        return _canonical(acc, den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash(self.as_rational() if self.is_rational() else (self.nums, self.den))

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Cyclotomic(" + (" + ".join(terms) or "0") + ")"

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The eight coordinates as ``Fraction``s."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- structure maps ----------------------------------------------------

    def galois(self, a: int) -> "Cyclotomic":
        """Field automorphism zeta -> zeta^a for a coprime to 24."""
        if gcd(a, _ORDER) != 1:
            raise ValueError(f"{a} is not coprime to {_ORDER}")
        coeffs = [0] * _ORDER
        for j, c in enumerate(self.nums):
            coeffs[j * a % _ORDER] += c
        return _canonical(coeffs, self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^23."""
        return self.galois(_ORDER - 1)

    def real_part(self) -> "Cyclotomic":
        return (self + self.conjugate()) * Fraction(1, 2)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise IntegralityError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def to_complex(self) -> complex:
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * j / _ORDER)
            for j, c in enumerate(self.coeffs)
        )


def gauss_sum(a: int, qvalues: Iterable[Fraction]) -> Cyclotomic:
    """Quadratic Gauss sum sum_gamma e(a * q(gamma)) over the listed q-values.

    Negative a is the same sum with conjugated phases; a = 0 gives the number
    of q-values.  Equal q-values are counted first, so each distinct value
    adds count * e(a * q) once, a * q read by ``as_ratio`` (TypeError on a float).
    """
    out = Cyclotomic.zero()
    for qv, count in Counter(qvalues).items():
        out = out + Cyclotomic.root_of_unity(a * qv) * count
    return out
