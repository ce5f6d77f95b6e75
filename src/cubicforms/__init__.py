"""Exact computation of the degrees of the divisors of special cubic
fourfolds in the space of all cubics.

Two independent engines produce the numbers:

* a modular one: the vector-valued Eisenstein series of weight 5 for the dual
  Weil representation of an order-3 discriminant form, Rankin-Cohen brackets
  giving a weight-11 basis, a two-constraint solve, and the contraction to
  the scalar degree series with constant term -2;
* an intersection-theoretic one: Chern/Segre classes of the bundles whose
  projectivizations parametrize singular cubics (over P^5) and cubics
  containing a plane (over Gr(3,6)); it lives in ``cubicforms.schubert``,
  which ``import cubicforms`` does not load.

The first degrees are deg(C_6) = 192, deg(C_8) = 3402, deg(C_12) = 196272.

Caches.  Every cache is unbounded, as each has few keys.
``fqm._cached_form`` holds one form per Gram matrix the library names or
``discriminant_form`` is asked for, which ``VectorForm`` compares by
identity, and the negated form whose Weil representation
``numeric_modularity_check`` reads as the dual (W for -W); a caller's own
form, such as a ``verify --gram`` form, is built outside it and dies with
its last use.  ``vvmf._MEMO`` holds one Psi, at the highest precision
``solve_psi`` was asked for; the only other series kept is the weight-11
basis at precision 30 in ``cli.basis30``, which the modularity suite's two
checks share and which dies with them.  ``WeilRep._cache`` keeps one
``Cyclotomic`` matrix per element ``rho`` was asked for, which the ``weil``
suite's words revisit, and dies with its representation.  ``l_value_ratio``
and ``bernoulli_number`` keep one ``Fraction`` per weight;
``eisenstein._descent`` the local-density oracle's counts per integer
polynomial, prime and depth asked, never a form; ``schubert._lr_products``
one entry per unordered pair of box partitions and box width: at most 210
for Gr(3,6) and 21 for P^5.
"""

from .exactmath import (
    Cyclotomic,
    IntegralityError,
    Rational,
    bernoulli_number,
    bernoulli_poly,
    chi_minus3,
    gauss_sum,
    jacobi_symbol,
    p_valuation,
)
from .qseries import (
    InconsistentSystemError,
    QSeries,
    SingularSystemError,
    solve_linear_combination,
)
from .fqm import (
    DiscriminantForm,
    EvenLattice,
    Mp2Element,
    WeilRep,
    discriminant_form,
    gauss_milgram_check,
    w_prime_form,
)
from .vvmf import (
    HeegnerSeries,
    VectorForm,
    assemble_theta,
    basis_weight11,
    dim_formula,
    fit_alpha_beta,
    numeric_modularity_check,
    rankin_cohen,
    solve_psi,
    theta_degrees,
)
from .eisenstein import (
    alpha_series,
    beta_series,
    eisenstein_chi,
    eisenstein_level1,
    theta_series_rank10,
    vv_eisenstein,
)

__version__ = "0.1.0"

