"""Truncated formal q-expansions with exponents in (1/den)*Z and exact
rational coefficients, and the vector-valued forms built from them.

A ``QSeries`` is sum_e (nums[e]/scale) q^(e/den) + O(q^(cut/den)): it
stores four fields, the grid ``den`` (an int >= 1), the integer cutoff
``cut`` on that grid, integer numerators ``nums`` (none zero, none at an
exponent e >= cut) and one ``scale`` > 0 with gcd(scale, *nums) = 1.
Arithmetic, truncation included, runs in integers and reduces once per
result.  ``prec`` = Fraction(cut, den) and ``coeffs`` are derived
``Fraction`` views, built only when read.  Coefficients at exponents >= prec
are unknown (not zero), and asking for one raises.  ``cut = None`` (so
``prec = None``) marks a series known exactly to all orders (constants and
their products); it behaves as +infinity in the propagation rules.

A product is one big-integer multiply (Kronecker substitution; D. Harvey,
J. Symb. Comp. 44 (2009)).  Both factors lie on one progression lo + s*k of
the 1/den grid, with s the gcd of every exponent gap, so a series supported
on one residue class mod 3 stays dense.  Each factor packs into one integer
with a width-byte slot per k, wide enough for max|a| * max|b| * min(len)
and a sign bit; a bias of half the slot range keeps every slot nonnegative
while packing and unpacking and comes off once, times the repunit.  The
product is reduced to the slots below the cutoff with a mask (never with
``%``, whose long division is quadratic).  Packing and unpacking make no
interpreter call per slot: ``map`` runs ``int.to_bytes`` over the biased
slots and ``int.from_bytes`` over the product's chunks in C, and the zero
slots fall to the filter that every result passes through.

A ``VectorForm`` is an immutable ``_Value``: a weight, a discriminant form
and one ``QSeries`` per coset, with the gamma and -gamma components one
shared object wherever ``VectorForm.per_orbit`` built it, as every derived
form is.  It lives here, below ``eisenstein`` and ``vvmf``, so the package
imports in one direction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._linalg import row_reduce
from .exactmath import _read_only, _Ring, _Value, as_fraction, as_ratio

__all__ = [
    "QSeries",
    "LinearSolveError",
    "SingularSystemError",
    "InconsistentSystemError",
    "solve_linear_combination",
    "VectorForm",
]


class LinearSolveError(ValueError):
    pass


class SingularSystemError(LinearSolveError):
    """Constraint matrix does not have full column rank."""


class InconsistentSystemError(LinearSolveError):
    """Constraints admit no exact solution (and we never least-squares)."""


def _cutoff(x: Fraction | int, den: int, what: str = "prec", *, nonnegative: bool = False) -> int:
    """The integer key x * den of q^x on the 1/den grid, or ValueError if x
    is off it, or if it is negative and ``nonnegative`` is set, as the
    series builders ask.  For a precision it is the cutoff: q^(e/den) lies
    beyond prec exactly when e >= prec * den."""
    n, d = as_ratio(x, what)
    if den % d:
        raise ValueError(f"{what} {x} is not on the 1/{den} grid")
    if nonnegative and n < 0:
        raise ValueError(f"{what} {x} is negative")
    return n * (den // d)


def _check_den(den: int) -> None:
    # an int subclass such as bool would be stored and serialized as itself
    if type(den) is not int:
        raise TypeError(f"den must be an int, not {type(den).__name__}")
    if den < 1:
        raise ValueError("den must be a positive integer")


def _series(nums: dict[int, int], scale: int, den: int, cut: int | None) -> "QSeries":
    return object.__new__(QSeries)._set(nums, scale, den, cut)


def _pack(nums: dict[int, int], low: int, s: int, size: int, blank: bytes) -> int:
    """sum_k nums[low + s*k] * 2^(8*w*k) over the slots k < size, with
    w = len(blank): each numerator plus the bias 2^(8w - 1), whose
    little-endian bytes are ``blank``, fills its own w-byte slot, and the
    bias comes off once from every slot."""
    width = len(blank)
    bias = 1 << (8 * width - 1)
    slots = [bias] * size
    for e, n in nums.items():
        k = (e - low) // s
        if k < size:
            slots[k] = n + bias
    packed = b"".join(map(int.to_bytes, slots, repeat(width), repeat("little")))
    return int.from_bytes(packed, "little") - int.from_bytes(blank * size, "little")


class QSeries(_Ring):
    """Read-only integer numerators ``nums`` over one ``scale`` on the
    1/``den`` grid (see the module docstring); a series exact to all orders
    with support in {0} hashes as its constant ``Fraction``."""

    __slots__ = ("den", "cut", "nums", "scale")
    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        coeffs: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = (),
        den: int = 1,
        prec: Fraction | int | None = None,
    ):
        _check_den(den)
        cut = None if prec is None else _cutoff(prec, den)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        terms: dict[int, tuple[int, int]] = {}
        for e, c in items:
            if type(e) is not int:
                n, d = as_ratio(e, "exponent index")
                if d != 1:
                    raise ValueError(f"exponent index {e} is not an integer")
                e = n
            n, d = (c, 1) if type(c) is int else as_ratio(c, "coefficient")
            if n:
                terms[e] = (n, d)
        scale = lcm(*[d for _, d in terms.values()])
        self._set({e: n * (scale // d) for e, (n, d) in terms.items()}, scale, den, cut)

    def _set(self, nums: dict[int, int], scale: int, den: int, cut: int | None):
        """The one normalization: keep the nonzero numerators below the
        cutoff, then divide out gcd(scale, *nums)."""
        nums = {e: n for e, n in nums.items() if n and (cut is None or e < cut)}
        g = gcd(scale, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            scale //= g
        for name, value in zip(self.__slots__, (den, cut, MappingProxyType(nums), scale)):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        return _series, (dict(self.nums), self.scale, self.den, self.cut)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[Fraction | int, Fraction | int]],
        den: int = 1,
        prec: Fraction | int | None = None,
    ) -> "QSeries":
        """Build from (exponent, coefficient) pairs with rational exponents,
        each keyed on the 1/den grid by ``_cutoff``."""
        _check_den(den)
        return cls([(_cutoff(e, den, "exponent"), c) for e, c in terms], den, prec)

    @classmethod
    def zero(cls, den: int = 1, prec: Fraction | int | None = None) -> "QSeries":
        return cls((), den, prec)

    @classmethod
    def one(cls, den: int = 1, prec: Fraction | int | None = None) -> "QSeries":
        return cls({0: 1}, den, prec)

    @classmethod
    def constant(cls, c: Fraction | int, den: int = 1) -> "QSeries":
        return cls({0: c}, den, None)

    # -- inspection --------------------------------------------------------

    @property
    def prec(self) -> Fraction | None:
        """The truncation order Fraction(cut, den), or None if exact."""
        return None if self.cut is None else Fraction(self.cut, self.den)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The ``Fraction`` view {e: coefficient at q^(e/den)}, a fresh dict."""
        return {e: Fraction(n, self.scale) for e, n in self.nums.items()}

    def exponents(self) -> list[Fraction]:
        return sorted([Fraction(e, self.den) for e in self.nums])

    def coefficient(self, n: Fraction | int) -> Fraction:
        return Fraction(self._numerator(*as_ratio(n, "exponent")), self.scale)

    def _numerator(self, num: int, d: int) -> int:
        """The numerator over ``scale`` of the coefficient at q^(num/d), d > 0
        and the ratio in lowest terms; beyond the cutoff it is unknown."""
        if self.cut is not None and num * self.den >= self.cut * d:
            raise ValueError(
                f"coefficient at q^{Fraction(num, d)} is beyond the truncation order {self.prec}"
            )
        if self.den % d:  # q^(num/d) is off the 1/den grid
            return 0
        return self.nums.get(num * (self.den // d), 0)

    def is_zero(self) -> bool:
        return not self.nums

    def __repr__(self):
        return f"QSeries({self})"

    def __str__(self):
        if not self.nums:
            body = "0"
        else:
            parts = []
            for e in sorted(self.nums):
                c = Fraction(self.nums[e], self.scale)
                exp = Fraction(e, self.den)
                if exp == 0:
                    parts.append(str(c))
                elif exp == 1:
                    parts.append(f"{c}*q")
                else:
                    parts.append(f"{c}*q^({exp})")
            body = " + ".join(parts).replace("+ -", "- ")
        tail = "" if self.cut is None else f" + O(q^({self.prec}))"
        return body + tail

    def _normalized(self) -> tuple:
        """The layout on the coarsest grid that holds every exponent and the
        cutoff, so equal series on different grids compare equal."""
        g = gcd(self.den, self.cut or 0, *self.nums)
        terms = sorted([(e // g, n) for e, n in self.nums.items()])
        cut = None if self.cut is None else self.cut // g
        return self.den // g, cut, self.scale, tuple(terms)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSeries.constant(other)
        if self.den == other.den:
            return (self.cut, self.scale, self.nums) == (other.cut, other.scale, other.nums)
        return self._normalized() == other._normalized()

    def __hash__(self):
        if self.cut is None and self.nums.keys() <= {0}:
            return hash(Fraction(self.nums.get(0, 0), self.scale))
        return hash(self._normalized())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSeries.constant(other, self.den)
        den = lcm(self.den, other.den)
        scale = lcm(self.scale, other.scale)
        fa, ma = den // self.den, scale // self.scale
        fb, mb = den // other.den, scale // other.scale
        out = {e * fa: n * ma for e, n in self.nums.items()}
        for e, n in other.nums.items():
            e *= fb
            if e in out:
                out[e] += n * mb
            else:
                out[e] = n * mb
        cut_a = None if self.cut is None else self.cut * fa
        cut_b = None if other.cut is None else other.cut * fb
        cut = cut_b if cut_a is None else cut_a if cut_b is None else min(cut_a, cut_b)
        return _series(out, scale, den, cut)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p = other.numerator
            nums = {e: n * p for e, n in self.nums.items()}
            return _series(nums, self.scale * other.denominator, self.den, self.cut)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a = self.nums if fa == 1 else {e * fa: n for e, n in self.nums.items()}
        b = other.nums if fb == 1 else {e * fb: n for e, n in other.nums.items()}
        # sound truncation, in integer steps of 1/den: beyond-cutoff terms of
        # one factor meet at least the lowest known exponent of the other,
        # which is its cutoff if it has no terms, and None if it is exactly zero
        cut_a = None if self.cut is None else self.cut * fa
        cut_b = None if other.cut is None else other.cut * fb
        low_a = min(a) if a else cut_a
        low_b = min(b) if b else cut_b
        if cut_a is None and cut_b is None:
            cutoff = None
        elif cut_b is None:
            cutoff = cut_a + (low_b or 0)
        elif cut_a is None:
            cutoff = cut_b + (low_a or 0)
        else:
            cutoff = min(cut_a + low_b, cut_b + low_a)
        # one packed product on the progression lo + s*k of the 1/den grid
        # (module docstring); only the size slots below the cutoff unpack
        out: dict[int, int] = {}
        if a and b:
            lo = low_a + low_b
            s = gcd(*[e - low_a for e in a], *[e - low_b for e in b]) or 1
            top_a, top_b = (max(a) - low_a) // s, (max(b) - low_b) // s
            size = top_a + top_b + 1
            if cutoff is not None:
                size = min(size, (cutoff - lo + s - 1) // s)
            if size > 0:
                va, vb = a.values(), b.values()
                bound = max(max(va), -min(va)) * max(max(vb), -min(vb)) * min(len(a), len(b))
                width = bound.bit_length() // 8 + 1  # bytes, with a sign bit
                blank = bytes(width - 1) + b"\x80"  # the bias 2^(8*width - 1)
                packed = _pack(a, low_a, s, min(size, top_a + 1), blank) * _pack(
                    b, low_b, s, min(size, top_b + 1), blank
                )
                biased = packed + int.from_bytes(blank * size, "little")
                data = (biased & ((1 << (8 * width * size)) - 1)).to_bytes(width * size, "little")
                chunks = [data[i : i + width] for i in range(0, width * size, width)]
                values = map(int.from_bytes, chunks, repeat("little"))
                bias = 1 << (8 * width - 1)
                out = dict(zip(range(lo, lo + s * size, s), map(sub, values, repeat(bias))))
        return _series(out, self.scale * other.scale, den, cutoff)

    __rmul__ = __mul__

    def rescale_exponent(self, r: Fraction | int) -> "QSeries":
        """Substitute q -> q^r: the coefficient at q^n moves to q^(r*n)."""
        a, b = as_ratio(r, "rescaling factor")
        if a <= 0:
            raise ValueError("rescaling factor must be positive")
        # with r = a/b, q^(e/den) moves to q^(e*a/(den*b)), and so does the cutoff
        cut = None if self.cut is None else self.cut * a
        return _series({e * a: n for e, n in self.nums.items()}, self.scale, self.den * b, cut)

    def derivative(self, times: int = 1) -> "QSeries":
        """Apply D = q * d/dq ``times`` times: coefficient at q^n scales by n^times."""
        if not isinstance(times, int):
            raise TypeError(f"derivative order must be an int, not {type(times).__name__}")
        if times < 0:
            raise ValueError("derivative order must be nonnegative")
        if times == 0:
            return self
        nums = {e: n * e**times for e, n in self.nums.items()}
        return _series(nums, self.scale * self.den**times, self.den, self.cut)

    def truncate(self, prec: Fraction | int) -> "QSeries":
        n, d = as_ratio(prec, "prec")
        if self.cut is not None and n * self.den > self.cut * d:
            raise ValueError(f"cannot extend precision from {self.prec} to {prec}")
        return _series(self.nums, self.scale, self.den, _cutoff(prec, self.den))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        prec = self.prec
        if prec is None:
            raise ValueError("cannot serialize a series of unbounded precision")
        return {
            "den": self.den,
            "prec_num": str(prec.numerator),
            "prec_den": str(prec.denominator),
            "terms": [
                {"e": e, "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in sorted(self.coeffs.items())
            ],
        }


def solve_linear_combination(
    basis: Sequence[QSeries],
    targets: Sequence[tuple[Fraction | int, Fraction | int]],
) -> list[Fraction]:
    """Exact coefficients c with sum_j c_j * basis_j matching every target
    (exponent, value) constraint, each an int or a Fraction.

    Requires at least as many constraints as basis elements and full column
    rank; inconsistent constraints raise rather than being fit approximately.
    Exponents and values are read by ``as_ratio``, so only the answers are
    ``Fraction``s.  With D the values' common denominator, constraint e
    reads sum_j nums_j(e) * y_j = D * value_e for y_j = c_j * D / scale_j.
    One ``row_reduce`` gives P * y; then every constraint is checked, and
    the error names the first one, in the order given, that y misses.
    """
    ncols = len(basis)
    if len(targets) < ncols:
        raise SingularSystemError(
            f"{len(targets)} constraints cannot determine {ncols} coefficients"
        )
    exponents = [as_ratio(e, "exponent") for e, _ in targets]
    values = [as_ratio(v, "target value") for _, v in targets]
    D = lcm(*[dv for _, dv in values])
    rows = [
        [f._numerator(num, d) for f in basis] + [v * (D // dv)]
        for (num, d), (v, dv) in zip(exponents, values)
    ]
    reduced, pivots, last, _ = row_reduce(rows, ncols)
    if len(pivots) < ncols:
        raise SingularSystemError("constraint matrix is rank-deficient")
    y = [row[ncols] for row in reduced[:ncols]]  # P * y
    for (num, d), row in zip(exponents, rows):
        if sum(map(mul, row, y)) != last * row[ncols]:
            raise InconsistentSystemError(
                f"constraint at q^{Fraction(num, d)} is inconsistent with the others"
            )
    return [Fraction(yj * f.scale, last * D) for yj, f in zip(y, basis)]


# ---------------------------------------------------------------------------
# vector-valued forms
# ---------------------------------------------------------------------------

class VectorForm(_Value):
    """Weight-tagged tuple of q-series indexed by discriminant form cosets.

    Two structural facts are enforced at construction: components at gamma
    and -gamma coincide, and every exponent in the gamma component is
    congruent to -q(gamma) mod Z (the support condition for the dual
    representation).  ``form`` compares by identity.
    """

    __slots__ = ("weight", "form", "components")

    def __init__(self, weight: Fraction | int, form, components):
        if len(components) != form.order:
            raise ValueError("need one component per coset")
        components = tuple(components)
        for i, (j, (a, b), comp) in enumerate(zip(form._neg, form._residues, components)):
            if comp is not components[j] and comp != components[j]:
                raise ValueError(f"components at cosets {i} and -{i}={j} differ")
            # q^(e/den) lies in the class a/b mod Z exactly when b*e = a*den mod b*den
            den = comp.den
            off = [e for e in comp.nums if (b * e - a * den) % (b * den)]
            if off:
                raise ValueError(
                    f"component {i} has exponent {Fraction(min(off), den)} off its "
                    f"residue class {Fraction(a, b)} mod Z"
                )
        self._set(as_fraction(weight, "weight"), form, components)

    @classmethod
    def per_orbit(cls, weight: Fraction | int, form, make) -> "VectorForm":
        """The form whose gamma component is make(gamma): make runs once per
        {gamma, -gamma} orbit, on its smaller index, and -gamma shares the
        result.  Every derived form is built here."""
        components: list[QSeries] = []
        for gamma, j in enumerate(form._neg):
            components.append(components[j] if j < gamma else make(gamma))
        return cls(weight, form, components)

    def component(self, i: int) -> QSeries:
        return self.components[i]

    def coefficient(self, n: Fraction | int, i: int) -> Fraction:
        return self.components[i].coefficient(n)

    def __add__(self, other: "VectorForm") -> "VectorForm":
        if self.weight != other.weight or self.form is not other.form:
            raise ValueError("can only add forms of equal weight and type")
        return VectorForm.per_orbit(
            self.weight, self.form, lambda i: self.components[i] + other.components[i]
        )

    def truncate(self, prec: Fraction | int) -> "VectorForm":
        return VectorForm.per_orbit(
            self.weight, self.form, lambda i: self.components[i].truncate(prec)
        )

    def scale(self, c: Fraction | int) -> "VectorForm":
        c = as_fraction(c, "scale factor")
        return VectorForm.per_orbit(self.weight, self.form, lambda i: self.components[i] * c)

