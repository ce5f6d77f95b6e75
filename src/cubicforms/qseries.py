"""Truncated formal q-expansions with exponents in (1/den)*Z and exact
rational coefficients.

A ``QSeries`` stores a finite map {e: coefficient} where the key ``e``
represents the exponent e/den, together with the truncation order ``prec``:
coefficients at exponents >= prec are unknown (not zero), and asking for one
raises.  ``prec = None`` marks a series known exactly to all orders (constants
and their products); it behaves as +infinity in the propagation rules.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from ._linalg import row_reduce

__all__ = [
    "QSeries",
    "LinearSolveError",
    "SingularSystemError",
    "InconsistentSystemError",
    "solve_linear_combination",
]


class LinearSolveError(ValueError):
    pass


class SingularSystemError(LinearSolveError):
    """Constraint matrix does not have full column rank."""


class InconsistentSystemError(LinearSolveError):
    """Constraints admit no exact solution (and we never least-squares)."""


def _min_prec(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    __slots__ = ("den", "prec", "coeffs")

    def __init__(
        self,
        coeffs: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = (),
        den: int = 1,
        prec: Fraction | int | None = None,
    ):
        if den < 1:
            raise ValueError("den must be a positive integer")
        self.den = den
        if prec is not None:
            prec = Fraction(prec)
            if (prec * den).denominator != 1:
                raise ValueError(f"prec {prec} is not on the 1/{den} grid")
        self.prec = prec
        # q^(e/den) lies beyond prec exactly when e >= prec * den, an integer
        cutoff = None if prec is None else (prec * den).numerator
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        stored: dict[int, Fraction] = {}
        for e, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            if cutoff is not None and e >= cutoff:
                continue
            stored[int(e)] = c
        self.coeffs = stored

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[Fraction | int, Fraction | int]],
        den: int = 1,
        prec: Fraction | int | None = None,
    ) -> "QSeries":
        """Build from (exponent, coefficient) pairs with rational exponents."""
        keyed = []
        for e, c in terms:
            e = Fraction(e)
            key = e * den
            if key.denominator != 1:
                raise ValueError(f"exponent {e} is not on the 1/{den} grid")
            keyed.append((key.numerator, Fraction(c)))
        return cls(keyed, den, prec)

    @classmethod
    def zero(cls, den: int = 1, prec: Fraction | int | None = None) -> "QSeries":
        return cls((), den, prec)

    @classmethod
    def one(cls, den: int = 1, prec: Fraction | int | None = None) -> "QSeries":
        return cls({0: Fraction(1)}, den, prec)

    @classmethod
    def constant(cls, c: Fraction | int, den: int = 1) -> "QSeries":
        return cls({0: Fraction(c)}, den, None)

    # -- inspection --------------------------------------------------------

    def exponents(self) -> list[Fraction]:
        return sorted(Fraction(e, self.den) for e in self.coeffs)

    def lowest_exponent(self) -> Fraction | None:
        """Smallest exponent known to carry a nonzero coefficient; if there is
        none, everything below prec is known zero and prec itself is the
        earliest place a term could hide."""
        if self.coeffs:
            return Fraction(min(self.coeffs), self.den)
        return self.prec

    def coefficient(self, n: Fraction | int) -> Fraction:
        n = Fraction(n)
        if self.prec is not None and n >= self.prec:
            raise ValueError(
                f"coefficient at q^{n} is beyond the truncation order {self.prec}"
            )
        key = n * self.den
        if key.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(key.numerator, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"QSeries({self})"

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                exp = Fraction(e, self.den)
                if exp == 0:
                    parts.append(str(c))
                elif exp == 1:
                    parts.append(f"{c}*q")
                else:
                    parts.append(f"{c}*q^({exp})")
            body = " + ".join(parts).replace("+ -", "- ")
        tail = "" if self.prec is None else f" + O(q^({self.prec}))"
        return body + tail

    def _normalized(self) -> tuple:
        g = self.den
        for e in self.coeffs:
            g = gcd(g, e)
            if g == 1:
                break
        g = g or self.den
        return (
            self.den // g,
            self.prec,
            tuple(sorted((e // g, c) for e, c in self.coeffs.items())),
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._normalized() == other._normalized()

    def __hash__(self):
        return hash(self._normalized())

    # -- arithmetic --------------------------------------------------------

    def _align(self, other: "QSeries") -> tuple[int, dict[int, Fraction], dict[int, Fraction]]:
        den = self.den * other.den // gcd(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a = {e * fa: c for e, c in self.coeffs.items()}
        b = {e * fb: c for e, c in other.coeffs.items()}
        return den, a, b

    def _scaled_numerators(self, den: int) -> tuple[int, list[tuple[int, int]]]:
        """(m, [(exponent on the 1/den grid, m * coefficient)]) with m the lcm
        of the coefficient denominators, so every pair is integral."""
        step = den // self.den
        m = lcm(1, *(c.denominator for c in self.coeffs.values()))
        return m, [
            (e * step, c.numerator * (m // c.denominator))
            for e, c in self.coeffs.items()
        ]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.den)
        if not isinstance(other, QSeries):
            return NotImplemented
        den, a, b = self._align(other)
        for e, c in b.items():
            a[e] = a.get(e, Fraction(0)) + c
        return QSeries(a, den, _min_prec(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.den, self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.den)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return QSeries.zero(self.den, self.prec)
            return QSeries(
                {e: c * other for e, c in self.coeffs.items()}, self.den, self.prec
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        # sound truncation: beyond-prec terms of one factor meet at least the
        # lowest known exponent of the other
        low_a = self.lowest_exponent()
        low_b = other.lowest_exponent()
        prec = None
        if self.prec is not None:
            prec = self.prec + (low_b if low_b is not None else Fraction(0))
        if other.prec is not None:
            p2 = other.prec + (low_a if low_a is not None else Fraction(0))
            prec = p2 if prec is None else min(prec, p2)
        # operand precs and lowest exponents all sit on the 1/den grid
        assert prec is None or (prec * den).denominator == 1
        cutoff = None if prec is None else (prec * den).numerator
        # convolve integer numerators over each factor's common denominator;
        # b is sorted by exponent, so each row stops at the cutoff
        la, a = self._scaled_numerators(den)
        lb, b = other._scaled_numerators(den)
        b.sort()
        b_exps = [e for e, _ in b]
        out: dict[int, int] = {}
        for ea, ca in a:
            stop = len(b) if cutoff is None else bisect_left(b_exps, cutoff - ea)
            for eb, cb in islice(b, stop):
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        scale = la * lb
        return QSeries(
            {e: Fraction(v, scale) for e, v in out.items() if v}, den, prec
        )

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "QSeries":
        if m < 0:
            raise ValueError("negative powers are not supported")
        out = QSeries.one(self.den, None)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def rescale_exponent(self, r: Fraction | int) -> "QSeries":
        """Substitute q -> q^r: the coefficient at q^n moves to q^(r*n)."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("rescaling factor must be positive")
        den = self.den * r.denominator
        coeffs = {e * r.numerator: c for e, c in self.coeffs.items()}
        prec = None if self.prec is None else self.prec * r
        return QSeries(coeffs, den, prec)

    def derivative(self, times: int = 1) -> "QSeries":
        """Apply D = q * d/dq ``times`` times: coefficient at q^n scales by n^times."""
        if times < 0:
            raise ValueError("derivative order must be nonnegative")
        if times == 0:
            return self
        out = {
            e: c * Fraction(e, self.den) ** times for e, c in self.coeffs.items()
        }
        return QSeries(out, self.den, self.prec)

    def truncate(self, prec: Fraction | int) -> "QSeries":
        prec = Fraction(prec)
        if self.prec is not None and prec > self.prec:
            raise ValueError(f"cannot extend precision from {self.prec} to {prec}")
        return QSeries(self.coeffs, self.den, prec)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.prec is None:
            raise ValueError("cannot serialize a series of unbounded precision")
        return {
            "den": self.den,
            "prec_num": str(self.prec.numerator),
            "prec_den": str(self.prec.denominator),
            "terms": [
                {"e": e, "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        prec = Fraction(int(data["prec_num"]), int(data["prec_den"]))
        coeffs = {
            int(t["e"]): Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]
        }
        return cls(coeffs, int(data["den"]), prec)


def solve_linear_combination(
    basis: Sequence[QSeries],
    targets: Sequence[tuple[Fraction | int, Fraction | int]],
) -> list[Fraction]:
    """Exact coefficients c with sum_j c_j * basis_j matching every target
    (exponent, value) constraint.

    Requires at least as many constraints as basis elements and full column
    rank; inconsistent constraints raise rather than being fit approximately.
    """
    ncols = len(basis)
    if len(targets) < ncols:
        raise SingularSystemError(
            f"{len(targets)} constraints cannot determine {ncols} coefficients"
        )
    rows = [
        [f.coefficient(Fraction(e)) for f in basis] + [v]
        for e, v in targets
    ]
    reduced, pivots, _ = row_reduce(rows, ncols)
    if len(pivots) < ncols:
        raise SingularSystemError("constraint matrix is rank-deficient")
    if any(row[ncols] != 0 for row in reduced[ncols:]):
        raise InconsistentSystemError("constraints are mutually inconsistent")
    return [row[ncols] for row in reduced[:ncols]]
