"""Vector-valued modular forms for the dual Weil representation of the
order-3 discriminant form: Rankin-Cohen brackets, the dimension formula, the
weight-11 basis, the constrained solve for the degree-generating vector, and
the assembly of the scalar degree series.

``VectorForm`` is defined in ``qseries`` and imported here as the same
object; this module builds on ``eisenstein``, which never imports it.  Psi,
the one result a session asks for twice, is held in ``_MEMO`` at the
highest precision asked for; every other form is computed afresh.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import repeat
from math import comb

from .eisenstein import alpha_series, beta_series, eisenstein_level1, vv_eisenstein
from .exactmath import (
    Cyclotomic,
    IntegralityError,
    _Value,
    as_fraction,
    as_integer,
    gauss_sum,
)
from .fqm import Mp2Element, WeilRep, discriminant_form, w_prime_form
from .qseries import QSeries, VectorForm, solve_linear_combination
from .qseries import InconsistentSystemError, SingularSystemError

__all__ = [
    "VectorForm",
    "HeegnerSeries",
    "rankin_cohen",
    "dim_formula",
    "basis_weight11",
    "solve_psi",
    "assemble_theta",
    "theta_degrees",
    "fit_alpha_beta",
    "numeric_modularity_check",
]


# ---------------------------------------------------------------------------
# Rankin-Cohen brackets
# ---------------------------------------------------------------------------

def _scalar_bracket(f: QSeries, k1, g: QSeries, k2, n: int) -> QSeries:
    """[f, g]_n = sum_r (-1)^r C(n+k1-1, n-r) C(n+k2-1, r) D^r f * D^(n-r) g,
    with D = q d/dq."""
    out = None
    for r in range(n + 1):
        c = (-1) ** r * comb(n + k1 - 1, n - r) * comb(n + k2 - 1, r)
        term = f.derivative(r) * g.derivative(n - r) * c
        out = term if out is None else out + term
    return out


def rankin_cohen(F: VectorForm, g: QSeries, g_weight: int, n: int) -> VectorForm:
    """Componentwise bracket of a vector form with a scalar level-1 form;
    the result has weight k1 + k2 + 2n."""
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    if any(map(g.den.__rmod__, g.nums)):  # e % den for each exponent e
        raise ValueError("scalar factor must have integer exponents")
    k1 = as_integer(F.weight, "vector form weight")
    return VectorForm.per_orbit(
        k1 + g_weight + 2 * n,
        F.form,
        lambda i: _scalar_bracket(F.components[i], k1, g, g_weight, n),
    )


# ---------------------------------------------------------------------------
# dimension formula
# ---------------------------------------------------------------------------

def dim_formula(k: int) -> int:
    """Dimension of the weight-k space for the dual representation of the
    order-3 form, evaluated exactly in cyclotomic arithmetic:

        (2 - 1/2 - 2/3) + k/6
        - (1/(4 sqrt 3)) Re[e((k-1)/4) G(2)]
        - (1/9) Re[e((k+2)/6) (G(1) + G(-3))] - 1/3

    with G(a) the quadratic Gauss sum over the q-values of -W
    (``w_prime_form``), whose constants these are.  The result must be a
    nonnegative integer.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"dimension formula needs odd k >= 3, got {k}")
    qvals = w_prime_form().qvalues
    g1 = gauss_sum(1, qvals)
    g2 = gauss_sum(2, qvals)
    gm3 = gauss_sum(-3, qvals)
    sqrt3 = Cyclotomic.sqrt_int(3)

    # 1/(4 sqrt 3) = sqrt(3)/12, and the rational terms sum to (k + 3)/6
    term1 = (Cyclotomic.root_of_unity(Fraction(k - 1, 4)) * g2).real_part() * sqrt3
    term2 = (Cyclotomic.root_of_unity(Fraction(k + 2, 6)) * (g1 + gm3)).real_part()
    total = Cyclotomic.from_rational(Fraction(k + 3, 6)) - term1 * Fraction(1, 12)
    value = (total - term2 * Fraction(1, 9)).as_rational()
    dim = as_integer(value, f"dimension at weight {k}")
    if dim < 0:
        raise IntegralityError(f"dimension formula gave {dim} < 0 at weight {k}")
    return dim


# ---------------------------------------------------------------------------
# the weight-11 basis and the constrained solve
# ---------------------------------------------------------------------------

def _weight11_prec(prec: Fraction | int) -> Fraction:
    prec = as_fraction(prec, "prec")
    if prec < 2:
        raise ValueError("need at least two integer q-steps")
    return prec


def _constraint_minor(f0: VectorForm, f1: VectorForm):
    """(det, rows) of the two normalizations on c0*F0 + c1*F1: F_j reads a/s at
    q^0 on v_0 and b/s at q^(1/3) on v_1 for row j = (a, b, s) of integer
    numerators, s the product of the two scales; det = a0*b1 - a1*b0."""
    rows = [
        (v0._numerator(0, 1) * v1.scale, v1._numerator(1, 3) * v0.scale, v0.scale * v1.scale)
        for v0, v1, _ in (f0.components, f1.components)
    ]
    (a0, b0, _), (a1, b1, _) = rows
    return a0 * b1 - a1 * b0, rows


def basis_weight11(prec: Fraction | int) -> tuple[VectorForm, VectorForm]:
    """The two brackets [E5, E6]_0 and [E5, E4]_1 spanning the weight-11
    space; linear independence is certified by the nonzero determinant of
    the two normalizations that ``_psi_of_basis`` solves."""
    prec = _weight11_prec(prec)
    e5 = vv_eisenstein(w_prime_form(), 5, prec)
    iprec = int(prec) + (prec.denominator != 1)
    f0 = rankin_cohen(e5, eisenstein_level1(6, iprec), 6, 0)
    f1 = rankin_cohen(e5, eisenstein_level1(4, iprec), 4, 1)
    if _constraint_minor(f0, f1)[0] == 0:
        raise ArithmeticError("bracket basis is not linearly independent")
    return f0, f1


def _psi_of_basis(f0: VectorForm, f1: VectorForm) -> VectorForm:
    """c0*F0 + c1*F1 under the two normalizations pinning the degree series:
    constant coefficient -2 on the trivial coset (the Hodge bundle degree of
    a pencil) and vanishing q^(1/3) coefficient on the first nonzero coset
    (no discriminant-2 members in a general pencil).  Cramer's rule on
    ``_constraint_minor`` gives c0 = -2*b1*s0/det and c1 = 2*b0*s1/det."""
    det, ((_, b0, s0), (_, b1, s1)) = _constraint_minor(f0, f1)
    return f0.scale(Fraction(-2 * b1 * s0, det)) + f1.scale(Fraction(2 * b0 * s1, det))


_MEMO: dict[Fraction, VectorForm] = {}


def solve_psi(prec: Fraction | int) -> VectorForm:
    """Psi at ``prec``: ``_psi_of_basis`` on ``basis_weight11(prec)``.

    ``_MEMO`` holds one pair (precision, Psi), at the highest precision
    asked for so far.  The solve reads only two coefficients, below every
    precision accepted here, so Psi at a repeat or lower precision is the
    held Psi truncated, and runs neither the basis nor the solve.
    """
    prec = _weight11_prec(prec)
    top, psi = next(iter(_MEMO.items()), (0, None))
    if top < prec:
        top, psi = prec, _psi_of_basis(*basis_weight11(prec))
        _MEMO.clear()
        _MEMO[top] = psi
    return psi if top == prec else psi.truncate(prec)


# ---------------------------------------------------------------------------
# the scalar degree series
# ---------------------------------------------------------------------------

class HeegnerSeries(_Value):
    """The scalar series Psi_0 + Psi_1, one term per +- orbit, together with
    the integer degree table d -> N_d read off its 1/3-grid coefficients.
    The table is a dict, so the value is unhashable."""

    __slots__ = ("theta", "degrees")
    __hash__ = None

    def __init__(self, theta: QSeries, degrees: dict[int, int]):
        self._set(theta, degrees)

    def degree(self, d: int) -> int:
        """N_d; a d that is not an int is a ``TypeError``, and a d with no
        entry a ``ValueError`` that says why."""
        if type(d) is not int:
            raise TypeError(f"discriminant must be an int, not {type(d).__name__}")
        if d < 2 or d % 6 not in (0, 2):
            raise ValueError(f"no degree at discriminant {d}: need d >= 2 and d = 0, 2 mod 6")
        if d not in self.degrees:
            raise ValueError(f"discriminant {d} is past the table's last, {max(self.degrees)}")
        return self.degrees[d]


def assemble_theta(psi: VectorForm) -> HeegnerSeries:
    """Contract the vector form to the scalar degree series per +- orbit:
    {v_1, v_2} weighs 1/2 + 1/2 and ``VectorForm`` makes Psi_2 = Psi_1.  Every
    degree must come out an exact integer (half-integral values are a hard
    error); a Psi known to all orders has no last degree (``ValueError``)."""
    theta = psi.component(0) + psi.component(1)
    nums, scale, den, cut = theta.nums, theta.scale, theta.den, theta.cut
    if cut is None:
        raise ValueError("assembly needs a truncated series")
    # N_d is the coefficient at q^(d/6), the key d * den / 6 if that is
    # integral (None, never a key, if not); q^(d/6) is below the cutoff
    # exactly when d < 6 * cut / den
    ds = [d for d in range(2, -(-6 * cut // den), 2) if d % 6 in (0, 2)]
    keys = [d * den // 6 if d * den % 6 == 0 else None for d in ds]
    degrees = dict(zip(ds, map(nums.get, keys, repeat(0))))
    if scale != 1:  # a coefficient is fractional: name the first d that holds one
        for d, num in degrees.items():
            as_integer(Fraction(num, scale), f"degree at discriminant {d}")
        degrees = {d: num // scale for d, num in degrees.items()}
    return HeegnerSeries(theta, degrees)


def theta_degrees(prec: int = 30) -> HeegnerSeries:
    """The full modular pipeline at ``prec`` (integer q-steps), the one place
    that composes ``solve_psi`` and ``assemble_theta``: a repeat or lower
    precision in one process truncates the memo's Psi and only re-contracts it."""
    return assemble_theta(solve_psi(prec))


# ---------------------------------------------------------------------------
# polynomial identities in the weight-1 and weight-3 generators
# ---------------------------------------------------------------------------

def _monomials(weight: int, steps: int) -> list[QSeries]:
    alpha, beta = alpha_series(steps), beta_series(steps)
    return [alpha ** (weight - 3 * b) * beta**b for b in range(weight // 3 + 1)]


def fit_alpha_beta(f: QSeries, weight: int = 11, min_extra: int = 25) -> list[Fraction]:
    """Exact coefficients expressing f in the monomials a^(w-3b) * b^b of the
    two generators; a series in q^(1/3) is fitted as f.rescale_exponent(3).

    One ``solve_linear_combination`` runs on f's integer 1/den grid: every
    key below f's cutoff where f or a monomial (known to at least f's
    precision) has a term, with f's numerators as the values.  As many keys
    as there are monomials fix the coefficients, and each of the others, at
    least ``min_extra`` (else ``ValueError``, before the solve), verifies
    them; each answer is then divided by f's scale once.  A rank-deficient
    basis or a failed verification, which names its exponent, raises
    ``ArithmeticError``.
    """
    if f.cut is None:
        raise ValueError("fit needs a truncated series")
    den, cut = f.den, f.cut
    basis = _monomials(weight, -(-cut // den))  # the least integer >= prec
    # the monomials lie on the integer grid, key e * den on f's
    keys = {e * den for g in basis for e in g.nums} | f.nums.keys()
    grid = sorted([key for key in keys if key < cut])
    if len(grid) < len(basis) + min_extra:
        raise ValueError(f"only {len(grid)} exponents on the grid, need {len(basis)} + {min_extra}")
    targets = [
        (key // den if key % den == 0 else Fraction(key, den), f.nums.get(key, 0))
        for key in grid
    ]
    try:
        return [c / f.scale for c in solve_linear_combination(basis, targets)]
    except SingularSystemError:
        raise ArithmeticError("monomial basis is rank-deficient on the grid") from None
    except InconsistentSystemError as exc:
        raise ArithmeticError(f"fit fails verification: {exc}") from None


# ---------------------------------------------------------------------------
# numeric modularity check
# ---------------------------------------------------------------------------

def _eval_qseries(f: QSeries, tau: complex) -> complex:
    q_third = cmath.exp(2j * cmath.pi * tau / f.den)
    return sum(n / f.scale * q_third**e for e, n in f.nums.items())


def _truncation_bound(F: VectorForm, tau: complex) -> float:
    """Geometric tail estimate for the truncated evaluation at tau.

    Coefficients of holomorphic forms grow polynomially, so consecutive
    magnitude ratios settle down; the growth rate R is read off the trailing
    half of the stored coefficients (early ratios overshoot wildly) and the
    tail beyond prec is bounded by |c_last| R^(prec - e_last) x^prec/(1 - Rx).
    """
    x = abs(cmath.exp(2j * cmath.pi * tau))
    worst = 0.0
    for f in F.components:
        if f.prec is None:
            continue
        mags = [(e / f.den, abs(n) / f.scale) for e, n in sorted(f.nums.items())]
        if not mags:
            continue
        tail = mags[len(mags) // 2 :]
        ratio = 1.0
        for (e1, m1), (e2, m2) in zip(tail, tail[1:]):
            ratio = max(ratio, (m2 / m1) ** (1.0 / (e2 - e1)))
        if ratio * x >= 1:
            return float("inf")
        e_last, m_last = mags[-1]
        prec = float(f.prec)
        worst = max(
            worst,
            m_last * ratio ** max(0.0, prec - e_last) * x**prec / (1 - ratio * x),
        )
    return worst


def numeric_modularity_check(
    F: VectorForm, g: Mp2Element, tau0: complex, tol: float = 1e-6
) -> float:
    """Max-norm residual of F(g tau0) - phi(tau0)^(2k) rho*(g) F(tau0),
    evaluated in floating complex arithmetic from the truncated expansions.
    rho* is the dual Weil representation of F.form, built as ``WeilRep`` of
    the negated Gram matrix (W for ``w_prime_form()``).

    Refuses tau0 whose estimated truncation error exceeds tol/10.
    """
    if tau0.imag <= 0:
        raise ValueError("tau0 must lie in the upper half-plane")
    tau1 = g.act(tau0)
    bound = max(_truncation_bound(F, tau0), _truncation_bound(F, tau1))
    if not bound < tol / 10:
        raise ValueError(
            f"truncation error estimate {bound} exceeds {tol / 10}; "
            "raise the precision or move tau0 higher"
        )
    rep = WeilRep(discriminant_form([[-x for x in row] for row in F.form.lattice.gram]))
    rho = rep.rho(g)
    order = F.form.order
    values = [_eval_qseries(f, tau0) for f in F.components]
    transformed = [_eval_qseries(f, tau1) for f in F.components]
    autom = g.phi(tau0) ** int(2 * F.weight)
    residual = 0.0
    for i in range(order):
        rhs = autom * sum(
            rho[i][j].to_complex() * values[j] for j in range(order)
        )
        residual = max(residual, abs(transformed[i] - rhs))
    return residual
