"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything is exact equality except the numeric modularity
residuals (criterion 8), whose stated tolerance is 1e-6 in max-norm.
Criteria 3, 7, 9 and 10 run the named invariant suites of
``cubicforms.cli.SUITES``, the same checks that ``cubicforms verify`` runs.
"""

from fractions import Fraction as F

from cubicforms.cli import SUITES
from cubicforms.fqm import Mp2Element
from cubicforms.qseries import QSeries
from cubicforms.vvmf import (
    VectorForm,
    dim_formula,
    fit_alpha_beta,
    numeric_modularity_check,
)

PREC = 30


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def run_suites(*names):
    for name in names:
        for prop, check in SUITES[name](None):
            assert check() is True, (name, prop)


def test_criterion_1_theta_coefficients(heegner30, psi30):
    theta = heegner30.theta
    assert theta.coefficient(0) == -2
    assert heegner30.degree(6) == 192
    assert heegner30.degree(8) == 3402
    assert heegner30.degree(12) == 196272
    # the q^(7/3) value: internally consistent with the vector slot, and it
    # is 917568 (the digit-transposed reading 915678 is wrong)
    value = theta.coefficient(F(7, 3))
    assert value == psi30.coefficient(F(7, 3), 1)
    assert value == 917568 and value != 915678
    report(1, f"theta = -2 + 192q + 3402q^(4/3) + 196272q^2 + {value}q^(7/3) + ...")


def test_criterion_2_eisenstein_displays(e5):
    assert [e5.coefficient(n, 0) for n in range(4)] == [2, 492, 7200, 39372]
    for i in (1, 2):
        assert [e5.coefficient(F(3 * n + 1, 3), i) for n in range(3)] == [
            6,
            1446,
            14412,
        ]
    assert e5.component(1) == e5.component(2)
    report(2, "weight-5 vector Eisenstein series matches all displayed terms")


def test_criterion_3_oracle_equivalence():
    run_suites("eisenstein")
    report(3, "Euler products equal twice the rank-10 theta series up to q^3")


def test_criterion_4_dimension_formula():
    assert dim_formula(3) == 1
    assert dim_formula(5) == 1
    assert dim_formula(11) == 2
    report(4, "dimensions (k=3,5,11) = (1,1,2), exact cyclotomic evaluation")


def test_criterion_5_polynomial_identities(psi30):
    fit0 = fit_alpha_beta(psi30.component(0), 11, min_extra=25)
    assert fit0 == [-2, 324, 183708, 4408992]
    theta_prime = psi30.component(0) + psi30.component(1) + psi30.component(2)
    fitp = fit_alpha_beta(theta_prime.rescale_exponent(3), 11, min_extra=25)
    assert fitp == [-2, 132, -2772, 18144]
    report(5, "generator-polynomial fits verified on 25+ extra coefficients")


def test_criterion_6_dual_path_degrees(heegner30):
    from cubicforms.schubert import (
        chern_invert,
        chern_sym3_dual_tautological,
        degree_c6_recurrence,
        degree_c6_segre,
        degree_c8_recurrence,
        degree_c8_segre,
    )
    from test_schubert import kernel_chern_displays

    assert heegner30.degree(6) == degree_c6_recurrence() == degree_c6_segre() == 192
    ckp = chern_invert(chern_sym3_dual_tautological())
    for i, expected in kernel_chern_displays().items():
        assert ckp.chern(i) == expected
    assert heegner30.degree(8) == degree_c8_recurrence() == degree_c8_segre() == 3402
    report(6, "192 and 3402 via series, bundle recurrence, and Segre classes")


def test_criterion_7_weil_representation():
    run_suites("milgram", "weil")
    report(7, "Milgram x4, closed form on 20 level-3 elements, 50 unitary words")


def test_criterion_8_numeric_modularity(basis30, psi30):
    f0, _ = basis30
    r0 = numeric_modularity_check(f0, Mp2Element.S(), 1j, 1e-6)
    r1 = numeric_modularity_check(psi30, Mp2Element.S(), 1j, 1e-6)
    assert r0 < 1e-6 and r1 < 1e-6
    report(8, f"S-transform residuals at tau=i: {r0:.2e}, {r1:.2e} < 1e-6")


def test_criterion_9_schubert_kernel():
    run_suites("schubert")
    report(9, "sigma_1^9 = 42 * point, Poincare pairing, LR associativity")


def test_criterion_10_property_suites(w_prime, e5, basis30, psi30):
    run_suites("qseries")
    # support condition on every constructed vector form
    for form in (e5, *basis30, psi30):
        for i in range(3):
            residue = (-form.form.qvalue(i)) % 1
            assert all((e - residue) % 1 == 0 for e in form.component(i).exponents())
    # and the constructor rejects violations
    bad = QSeries.from_terms([(1, 1)], 3, 2)
    try:
        VectorForm(11, w_prime, (QSeries.zero(3, 2), bad, bad))
        raise AssertionError("support violation was not rejected")
    except ValueError:
        pass
    report(10, "ring axioms, Leibniz, truncation soundness, support condition")
