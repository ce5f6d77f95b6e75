import io
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicforms import cli, vvmf
from cubicforms.eisenstein import eisenstein_level1
from cubicforms.fqm import W_GRAM, W_PRIME_GRAM, Mp2Element, discriminant_form
from cubicforms.qseries import QSeries, solve_linear_combination
from cubicforms.vvmf import (
    VectorForm,
    assemble_theta,
    basis_weight11,
    dim_formula,
    fit_alpha_beta,
    numeric_modularity_check,
    rankin_cohen,
)
from lattices import lambda0_prime_gram, theta_e6


def is_cuspidal(F: VectorForm) -> bool:
    """True iff every component has vanishing constant term."""
    return all(f.coefficient(0) == 0 for f in F.components)


@pytest.fixture
def memo():
    """The Psi memo, empty for the test and restored after it."""
    saved = dict(vvmf._MEMO)
    vvmf._MEMO.clear()
    yield vvmf._MEMO
    vvmf._MEMO.clear()
    vvmf._MEMO.update(saved)


def weighted_contraction(psi: VectorForm):
    """Theta = Psi_0 + (1/2)(Psi_1 + Psi_2), each coset weighted by itself,
    and the degree table N_d = Theta at q^(d/6) below Theta's precision."""
    theta = psi.component(0) + (psi.component(1) + psi.component(2)) * F(1, 2)
    ds = [d for d in range(2, ceil(6 * theta.prec), 2) if d % 6 in (0, 2)]
    return theta, {d: theta.coefficient(F(d, 6)) for d in ds}


class TestVectorForm:
    def test_floats_raise_type_error(self, e5):
        # Fraction(0.1) is 3602879701896397/36028797018963968: a float weight
        # or scale factor would enter as its binary expansion
        with pytest.raises(TypeError, match="weight must be an int or a Fraction"):
            VectorForm(0.1, e5.form, e5.components)
        with pytest.raises(TypeError, match="scale factor must be an int or a Fraction"):
            e5.scale(0.1)
        assert e5.scale(F(1, 10)).coefficient(0, 0) == F(1, 5)

    def test_symmetry_enforced(self, w_prime):
        a = QSeries.from_terms([(F(1, 3), 1)], 3, 2)
        b = QSeries.from_terms([(F(1, 3), 2)], 3, 2)
        zero = QSeries.zero(3, 2)
        with pytest.raises(ValueError):
            VectorForm(5, w_prime, (zero, a, b))

    def test_support_condition_enforced(self, w_prime):
        bad = QSeries.from_terms([(1, 1)], 3, 2)  # integer exponent on v1
        zero = QSeries.zero(3, 2)
        with pytest.raises(ValueError):
            VectorForm(5, w_prime, (zero, bad, bad))

    @pytest.mark.parametrize(
        "v0, v1, message",
        [
            (
                ([(0, 1), (F(1, 3), 2), (F(-2, 3), 5)], 3),
                ([(F(1, 3), 1)], 3),
                "component 0 has exponent -2/3 off its residue class 0 mod Z",
            ),
            (
                ([(0, 1)], 3),
                ([(1, 1), (-1, 2)], 1),
                "component 1 has exponent -1 off its residue class 1/3 mod Z",
            ),
            (
                ([(0, 1)], 3),
                ([(F(-2, 3), 4), (F(4, 3), 1), (F(1, 2), 2), (F(-1, 6), 3)], 6),
                "component 1 has exponent -1/6 off its residue class 1/3 mod Z",
            ),
        ],
    )
    def test_support_message_names_first_offending_exponent(self, w_prime, v0, v1, message):
        # messages as the Fraction residue check printed them
        v0, v1 = (QSeries.from_terms(terms, den, 2) for terms, den in (v0, v1))
        with pytest.raises(ValueError) as err:
            VectorForm(5, w_prime, (v0, v1, v1))
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        gram=st.sampled_from([W_GRAM, W_PRIME_GRAM, ((2, 0), (0, 6))]),
        den=st.sampled_from([1, 2, 3, 6]),
        coset=st.integers(0, 11),
        e=st.integers(-40, 19),
    )
    def test_integer_support_rule_matches_fraction_rule(self, gram, den, coset, e):
        # the oracle is the Fraction rule: q^(e/den) lies in the class of
        # -q(gamma) mod Z exactly when residue * den is an integer r and
        # e = r mod den; the third form has order 12
        form = discriminant_form(gram)
        i = coset % form.order
        j = form.neg(i)
        residue = (-form.qvalue(i)) % 1
        r = residue * den
        off = r.denominator != 1 or (e - r.numerator) % den != 0
        term, zero = QSeries({e: 1}, den, 20), QSeries.zero(den, 20)
        comps = [term if c in (i, j) else zero for c in range(form.order)]
        if not off:
            VectorForm(5, form, comps)
            return
        with pytest.raises(ValueError) as err:
            VectorForm(5, form, comps)
        assert str(err.value) == (
            f"component {min(i, j)} has exponent {F(e, den)} off its "
            f"residue class {residue} mod Z"
        )

    def test_constructed_forms_satisfy_support(self, e5, basis30, psi30):
        for form in (e5, *basis30, psi30):
            for i in range(3):
                residue = (-form.form.qvalue(i)) % 1
                for e in form.component(i).exponents():
                    assert (e - residue) % 1 == 0


class TestRankinCohen:
    def test_order_zero_is_product(self, e5):
        e6 = eisenstein_level1(6, 30)
        bracket = rankin_cohen(e5, e6, 6, 0)
        for i in range(3):
            assert bracket.component(i) == e5.component(i) * e6
        assert bracket.weight == 11

    def test_first_bracket_constant_terms(self, basis30):
        f0, f1 = basis30
        assert f0.coefficient(0, 0) == 2
        assert f1.coefficient(0, 0) == 0

    def test_weights(self, basis30):
        f0, f1 = basis30
        assert f0.weight == f1.weight == 11

    def test_bracket_rejects_fractional_scalar(self, e5):
        frac = QSeries.from_terms([(F(1, 3), 1)], 3, 2)
        with pytest.raises(ValueError):
            rankin_cohen(e5, frac, 4, 1)


class TestDimensionFormula:
    @pytest.mark.parametrize("k,expected", [(3, 1), (5, 1), (11, 2)])
    def test_values(self, k, expected):
        assert dim_formula(k) == expected

    def test_general_odd_weights_are_integral(self):
        for k in range(3, 30, 2):
            assert dim_formula(k) >= 0

    def test_free_module_oracle(self):
        # M_k = theta_W * M_(k-1)(SL2) + E_3 * M_(k-3)(SL2), with the level-1
        # dimension floor(j/12) + (0 if j = 2 mod 12 else 1) at even j >= 0
        def dim_level1(j):
            return 0 if j < 0 else j // 12 + (j % 12 != 2)

        for k in range(3, 100, 2):
            assert dim_formula(k) == dim_level1(k - 1) + dim_level1(k - 3), k

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            dim_formula(4)


class TestBasisAndPsi:
    def test_leading_minor_nonsingular(self, basis30):
        f0, f1 = basis30
        minor = f0.coefficient(0, 0) * f1.coefficient(1, 0) - f1.coefficient(
            0, 0
        ) * f0.coefficient(1, 0)
        assert minor != 0

    def test_cusp_space_dimension(self, basis30):
        # dim 2 total, one Eisenstein-type constant term: cusp space is the
        # line spanned by the second bracket
        f0, f1 = basis30
        assert is_cuspidal(f1) and not is_cuspidal(f0)
        assert dim_formula(11) - 1 == 1

    def test_solution_coefficients(self, basis30, psi30):
        # psi = -F0 - (3/4) F1, reconstructed from the solved output
        f0, f1 = basis30
        recon = f0.scale(-1) + f1.scale(F(-3, 4))
        assert psi30 == recon

    @pytest.mark.parametrize("prec", [2, F(7, 3), 30, 120])
    def test_psi_equals_the_general_solve(self, prec):
        # Cramer's rule on the one 2x2 determinant against row_reduce on the
        # same two constraints, read off as two series
        f0, f1 = basis_weight11(prec)
        third = F(1, 3)
        rows = [
            QSeries.from_terms([(0, f.coefficient(0, 0)), (third, f.coefficient(third, 1))], 3, 1)
            for f in (f0, f1)
        ]
        c0, c1 = solve_linear_combination(rows, [(0, -2), (third, 0)])
        psi = vvmf._psi_of_basis(f0, f1)
        assert psi == f0.scale(c0) + f1.scale(c1)
        assert (psi.coefficient(0, 0), psi.coefficient(third, 1)) == (-2, 0)
        # the two normalizations pin Psi in the span, whatever basis spans
        # it: rescaled brackets give each row its own scale
        assert vvmf._psi_of_basis(f0.scale(F(-1, 3)), f1.scale(F(2, 5))) == psi

    def test_psi_path_runs_no_general_solve(self, memo, monkeypatch):
        # the certificate and the solve read one determinant: neither the
        # general solver nor a throw-away series runs on the way to Psi
        def refuse(*args, **kwargs):
            raise AssertionError("the general solve ran")

        monkeypatch.setattr(vvmf, "solve_linear_combination", refuse)
        monkeypatch.setattr(QSeries, "from_terms", refuse)
        assert vvmf.theta_degrees(4).degree(8) == 3402

    def test_singular_basis_is_an_integrity_error(self, memo, monkeypatch, capsys):
        # a planted F1 = 2*F0: the determinant that certifies the basis and
        # solves for Psi is 0, and theta exits 1 with the error
        real, made = vvmf.rankin_cohen, []

        def planted(F, g, g_weight, n):
            made.append(made[0].scale(2) if made else real(F, g, g_weight, n))
            return made[-1]

        monkeypatch.setattr(vvmf, "rankin_cohen", planted)
        with pytest.raises(ArithmeticError, match="^bracket basis is not linearly independent$"):
            basis_weight11(4)
        made.clear()
        assert cli.main(["theta", "--terms", "4"], out=io.StringIO()) == 1
        assert capsys.readouterr().err == "error: bracket basis is not linearly independent\n"
        assert memo == {}

    def test_psi_displays(self, psi30):
        assert [psi30.coefficient(n, 0) for n in range(3)] == [-2, 192, 196272]
        assert [psi30.coefficient(F(3 * n + 1, 3), 1) for n in range(3)] == [
            0,
            3402,
            917568,
        ]
        assert psi30.component(1) == psi30.component(2)

    def test_is_cuspidal_zero_form(self, w_prime):
        zero = QSeries.zero(3, 2)
        assert is_cuspidal(VectorForm(11, w_prime, (zero, zero, zero)))


class TestAssemble:
    def test_degree_table(self, heegner30):
        assert heegner30.theta.coefficient(0) == -2
        assert heegner30.degree(2) == 0
        assert heegner30.degree(6) == 192
        assert heegner30.degree(8) == 3402
        assert heegner30.degree(12) == 196272

    def test_seventh_third_internal_consistency(self, psi30, heegner30):
        # the scalar series and the vector slot must agree at q^(7/3); the
        # value is 917568, not the digit-transposed 915678
        scalar = heegner30.theta.coefficient(F(7, 3))
        vector = psi30.coefficient(F(7, 3), 1)
        assert scalar == vector == 917568
        assert scalar != 915678

    def test_every_degree_is_integer(self, heegner30):
        for d, deg in heegner30.degrees.items():
            assert isinstance(deg, int)
            assert d % 6 in (0, 2)

    @pytest.mark.parametrize("d", [6.0, F(6), True, "6"])
    def test_degree_needs_an_int(self, heegner30, d):
        # degree(6.0) once read the table's entry at 6 and returned 192
        with pytest.raises(TypeError, match="discriminant must be an int"):
            heegner30.degree(d)

    @pytest.mark.parametrize("d", [4, 10, 178, 0, -6])
    def test_degree_off_the_residues_names_them(self, heegner30, d):
        with pytest.raises(ValueError) as err:
            heegner30.degree(d)
        assert str(err.value) == (
            f"no degree at discriminant {d}: need d >= 2 and d = 0, 2 mod 6"
        )

    @pytest.mark.parametrize("d", [180, 182, 186])
    def test_degree_past_the_table_names_its_end(self, heegner30, d):
        assert max(heegner30.degrees) == 176 and heegner30.degree(176) > 0
        with pytest.raises(ValueError) as err:
            heegner30.degree(d)
        assert str(err.value) == f"discriminant {d} is past the table's last, 176"

    def test_half_integral_degree_is_hard_error(self, w_prime):
        from cubicforms.exactmath import IntegralityError

        comps = (
            QSeries.from_terms([(1, F(1, 2))], 3, 2),
            QSeries.zero(3, 2),
            QSeries.zero(3, 2),
        )
        with pytest.raises(IntegralityError, match="degree at discriminant"):
            assemble_theta(VectorForm(11, w_prime, comps))
        # the degree at d = 6 is 3 and at d = 12 is 1/2: the message names
        # d = 12, the first non-integral discriminant
        comps = (
            QSeries.from_terms([(1, 3), (2, F(1, 2))], 3, 3),
            QSeries.zero(3, 3),
            QSeries.zero(3, 3),
        )
        with pytest.raises(IntegralityError) as err:
            assemble_theta(VectorForm(11, w_prime, comps))
        assert str(err.value) == "degree at discriminant 12 = 1/2 is not an integer"

    def test_orbit_contraction_equals_the_weighted_one(self, psi30):
        # Theta = Psi_0 + Psi_1 reads the +- orbit {v_1, v_2} once; with v_1
        # and v_2 equal series on the grids 3 and 6, either way round, it
        # gives the same series and table as (1, 1/2, 1/2)
        v0, v1 = psi30.component(0), psi30.component(1)
        fine = QSeries({2 * e: c for e, c in v1.coeffs.items()}, 6, v1.prec)
        assert fine.den == 6 and fine == v1
        for pair in ((v1, fine), (fine, v1)):
            psi = VectorForm(11, psi30.form, (v0, *pair))
            theta, table = weighted_contraction(psi)
            heegner = assemble_theta(psi)
            assert heegner.theta == theta and heegner.degrees == table
            assert heegner.degrees == assemble_theta(psi30).degrees

    def test_exact_psi_has_no_last_degree(self, w_prime):
        # with no cutoff the degree range was built from None: TypeError
        z = QSeries.zero(3)
        with pytest.raises(ValueError, match="assembly needs a truncated series"):
            assemble_theta(VectorForm(11, w_prime, (QSeries.constant(-2, 3), z, z)))


class TestFits:
    def test_psi0_fit(self, psi30):
        assert fit_alpha_beta(psi30.component(0), 11) == [
            -2,
            324,
            183708,
            4408992,
        ]

    def test_theta_prime_fit(self, psi30):
        theta_prime = (
            psi30.component(0) + psi30.component(1) + psi30.component(2)
        )
        assert fit_alpha_beta(theta_prime.rescale_exponent(3), 11) == [-2, 132, -2772, 18144]

    def test_weight3_ring_fit(self):
        # beta is itself a monomial: the weight-3 fit must return (0, 1)
        from cubicforms.eisenstein import beta_series

        assert fit_alpha_beta(beta_series(30), 3) == [0, 1]

    def test_fit_reads_a_scaled_series_on_a_finer_grid(self):
        from cubicforms.eisenstein import alpha_series, beta_series

        f = alpha_series(30) ** 3 * F(2, 5) - beta_series(30) * F(1, 7)
        assert f.scale == 35
        assert fit_alpha_beta(f, 3) == [F(2, 5), F(-1, 7)]
        g = f.rescale_exponent(F(1, 3)).rescale_exponent(3)  # f on the 1/3 grid
        assert (g.den, g.scale) == (3, 35)
        assert fit_alpha_beta(g, 3) == [F(2, 5), F(-1, 7)]
        off = g + QSeries.from_terms([(F(4, 3), 1)], 3, 30)
        with pytest.raises(ArithmeticError, match=r"q\^4/3 "):
            fit_alpha_beta(off, 3)

    def test_weight6_level1_in_character_ring(self):
        # E6 lies in the weight-6 part of the character ring; the fit solves
        # on 3 coefficients and re-verifies on 25+ more
        fit = fit_alpha_beta(eisenstein_level1(6, 30), 6)
        assert len(fit) == 3

    def test_fit_failure_raises(self):
        from cubicforms.eisenstein import alpha_series

        target = alpha_series(30) ** 11 + QSeries.from_terms([(17, 1)], 1, 30)
        with pytest.raises(ArithmeticError):
            fit_alpha_beta(target, 11)

    def test_fit_failure_names_its_exponent(self):
        from cubicforms.eisenstein import alpha_series

        target = alpha_series(30) ** 11 + QSeries.from_terms([(17, 1)], 1, 30)
        with pytest.raises(ArithmeticError, match=r"fit fails verification: .*q\^17 "):
            fit_alpha_beta(target, 11)

    def test_fit_builds_at_most_two_fractions_per_answer(self, psi30):
        # the grid, targets and solve run in integers: one Fraction for each
        # answer of the solve, and one for its division by f's scale
        from test_package import _fraction_news

        f, fits = psi30.component(0), []
        built = _fraction_news(lambda: fits.append(fit_alpha_beta(f)))
        assert fits == [[-2, 324, 183708, 4408992]]
        assert built <= 2 * len(fits[0]), built

    def test_fit_is_one_elimination(self, psi30, monkeypatch):
        # the solve on every grid point both fixes and verifies the fit
        from cubicforms import _linalg, qseries, vvmf

        assert not hasattr(vvmf, "_linalg") and not hasattr(vvmf, "row_reduce")
        calls = []
        row_reduce = _linalg.row_reduce

        def counted(*args):
            calls.append(args)
            return row_reduce(*args)

        for module in (_linalg, qseries, vvmf):
            monkeypatch.setattr(module, "row_reduce", counted, raising=False)
        assert fit_alpha_beta(psi30.component(0), 11) == [-2, 324, 183708, 4408992]
        assert len(calls) == 1

    def test_too_few_exponents_raise_before_the_solve(self):
        # weight 6 has three monomials; q^0 and q^1 cannot fix them, with or
        # without verification points (a rank-deficient solve, and so an
        # ArithmeticError, before min_extra was checked first)
        for min_extra in (0, 25):
            with pytest.raises(ValueError, match="exponents on the grid"):
                fit_alpha_beta(eisenstein_level1(6, 2), 6, min_extra)


class TestNumericModularity:
    def test_t_invariance_structural(self, basis30):
        f0, _ = basis30
        assert numeric_modularity_check(f0, Mp2Element.T(1), 1.3j, 1e-8) < 1e-10

    def test_s_transform_at_i(self, basis30, psi30):
        f0, _ = basis30
        assert numeric_modularity_check(f0, Mp2Element.S(), 1j, 1e-6) < 1e-6
        assert numeric_modularity_check(psi30, Mp2Element.S(), 1j, 1e-6) < 1e-6

    def test_s_transform_higher_point(self, psi30):
        assert numeric_modularity_check(psi30, Mp2Element.S(), 2j, 1e-8) < 1e-8

    def test_word_element(self, psi30):
        g = Mp2Element.S() * Mp2Element.T(2) * Mp2Element.S() * Mp2Element.T(-1)
        # tau0 chosen so both tau0 and g(tau0) stay at height 1/2
        tau0 = complex(1.5, 0.5)
        assert numeric_modularity_check(psi30, g, tau0, 1e-6) < 1e-6

    def test_rejects_low_point(self, psi30):
        with pytest.raises(ValueError):
            numeric_modularity_check(psi30, Mp2Element.S(), 0.05j, 1e-6)

    def test_theta_prime_scalar_modularity(self, psi30):
        # the coset sum transforms with the quadratic character under the
        # two lower-triangular-type generators of its level-3 group
        import cmath

        theta_prime = (
            psi30.component(0) + psi30.component(1) + psi30.component(2)
        )

        def evaluate(tau):
            q3 = cmath.exp(2j * cmath.pi * tau / 3)
            return sum(complex(c) * q3**e for e, c in theta_prime.coeffs.items())

        from cubicforms.exactmath import chi_minus3

        for a, b, c, d in ((1, 0, -1, 1), (2, 3, -1, -1)):
            tau0 = complex(0.2, 1.1)
            lhs = evaluate((a * tau0 + b) / (c * tau0 + d))
            rhs = chi_minus3(d) * (c * tau0 + d) ** 11 * evaluate(tau0)
            assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))


class TestPrecisionMemo:
    """The memo holds one Psi, at the highest precision asked for; a lower
    precision is served by truncation and must equal a fresh solve.  Every
    other series is computed afresh and is the truncation of a deeper one."""

    @staticmethod
    def fresh(memo, compute, prec):
        held = dict(memo)
        memo.clear()
        try:
            return compute(prec)
        finally:
            memo.clear()
            memo.update(held)

    def test_truncation_equals_fresh_computation(self, memo, w_prime):
        from cubicforms.eisenstein import vv_eisenstein
        from cubicforms.vvmf import basis_weight11, solve_psi

        pipeline = {
            "vv_eisenstein": lambda p: vv_eisenstein(w_prime, 5, p),
            "basis_weight11": basis_weight11,
            "solve_psi": solve_psi,
            "assemble_theta": lambda p: assemble_theta(solve_psi(p)),
        }
        deep = {name: compute(40) for name, compute in pipeline.items()}
        for prec in (F(10, 3), 16, 39):
            served = {name: compute(prec) for name, compute in pipeline.items()}
            fresh = self.fresh(memo, lambda p: {n: c(p) for n, c in pipeline.items()}, prec)
            for name in pipeline:
                assert served[name] == fresh[name], (name, prec)
            assert served["vv_eisenstein"] == deep["vv_eisenstein"].truncate(prec)
            assert served["basis_weight11"] == tuple(
                f.truncate(prec) for f in deep["basis_weight11"]
            )
        assert list(memo) == [40]

    def test_theta_rank10_truncation_equals_fresh(self, memo):
        from cubicforms.eisenstein import theta_series_rank10

        deep = theta_series_rank10(3)
        for prec in (2, F(7, 3)):
            assert theta_series_rank10(prec) == deep.truncate(prec)
        assert memo == {}

    def test_domain_checks_fire_on_a_hit(self, memo, w_prime):
        from cubicforms.eisenstein import vv_eisenstein
        from cubicforms.fqm import discriminant_form
        from cubicforms.vvmf import basis_weight11, solve_psi

        basis_weight11(30)
        solve_psi(30)
        for call in (
            lambda: basis_weight11(1),
            lambda: solve_psi(1),
            lambda: vv_eisenstein(w_prime, 4, 10),
            lambda: vv_eisenstein(w_prime, 1, 10),
            lambda: vv_eisenstein(discriminant_form(lambda0_prime_gram()), 5, 10),
        ):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(TypeError, match="prec must be an int or a Fraction"):
            solve_psi(20.0)
        assert list(memo) == [30]

    def test_one_entry_per_key(self, memo, w_prime):
        # one entry, Psi at the highest precision asked for; nothing else
        # enters the memo
        from cubicforms.eisenstein import theta_series_rank10, vv_eisenstein
        from cubicforms.vvmf import basis_weight11, solve_psi

        for prec, top in zip((10, 16, 20, 20, 16, 10), (10, 16, 20, 20, 20, 20)):
            psi = solve_psi(prec)
            assert list(memo) == [top] and type(next(iter(memo))) is F
            assert psi.components[0].prec == prec
        held = memo[20]
        for prec in (2, F(7, 3), F(7, 3), 2):
            theta_series_rank10(prec)
            vv_eisenstein(w_prime, 5, prec)
            basis_weight11(prec)
        assert list(memo.items()) == [(20, held)] and memo[20] is held

    def test_served_theta_runs_neither_basis_nor_solve(self, memo, monkeypatch):
        # a repeat or lower precision truncates the memo's Psi: no bracket,
        # no solve, no Eisenstein series and no L-value
        from cubicforms import eisenstein, theta_degrees, vvmf

        precs = (16, F(10, 3), 39, 40)
        theta_degrees(40)
        entered = set()

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                entered.add(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        spy(vvmf, "basis_weight11")
        spy(vvmf, "solve_linear_combination")
        spy(vvmf, "vv_eisenstein")
        spy(eisenstein, "l_value_ratio")
        served = {p: theta_degrees(p) for p in precs}
        monkeypatch.undo()
        assert entered == set()
        for p in precs:
            assert served[p] == self.fresh(memo, theta_degrees, p), p

    def test_no_other_series_outlives_its_caller(self, memo, monkeypatch, w_prime):
        # VectorForm has no __weakref__ slot; a subclass without __slots__
        # has one, and eisenstein and vvmf build through it once their name
        # VectorForm is bound to it.  A memo that kept any of these series
        # would keep it alive past the caller's last reference.
        import gc
        import weakref

        from cubicforms import eisenstein, vvmf

        class Tracked(VectorForm):
            pass

        monkeypatch.setattr(eisenstein, "VectorForm", Tracked)
        monkeypatch.setattr(vvmf, "VectorForm", Tracked)
        made = [
            eisenstein.vv_eisenstein(w_prime, 5, 7),
            eisenstein.theta_series_rank10(3),
            *vvmf.basis_weight11(7),
        ]
        assert {type(f) for f in made} == {Tracked}
        refs = [weakref.ref(f) for f in made]
        del made
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4


class TestReadOnlyForms:
    """A VectorForm is a read-only value, and every derived form holds one
    object for its gamma and -gamma components."""

    def test_memo_served_form_is_read_only(self, w_prime):
        from cubicforms import theta_degrees
        from cubicforms.eisenstein import vv_eisenstein
        from cubicforms.vvmf import basis_weight11

        for served in (vv_eisenstein(w_prime, 5, 30), *basis_weight11(30)):
            for name, value in (("weight", 7), ("form", None), ("components", ())):
                with pytest.raises(AttributeError):
                    setattr(served, name, value)
                with pytest.raises(AttributeError):
                    delattr(served, name)
        heegner = theta_degrees(30)
        assert (heegner.degree(6), heegner.degree(8)) == (192, 3402)

    def test_memo_served_components_are_read_only(self, w_prime):
        # reassigning a served component's scale once made every later
        # theta_degrees(30) in the process read degree(8) = 23814
        from cubicforms import theta_degrees
        from cubicforms.eisenstein import vv_eisenstein

        served = vv_eisenstein(w_prime, 5, 30)
        for comp in served.components:
            for name in ("den", "prec", "nums", "scale"):
                with pytest.raises(AttributeError):
                    setattr(comp, name, 7)
                with pytest.raises(AttributeError):
                    delattr(comp, name)
        assert vv_eisenstein(w_prime, 5, 30).components[0].scale == 1
        assert theta_degrees(30).degree(8) == 3402

    def test_value_equality_and_hash(self, w_prime):
        from cubicforms.fqm import DiscriminantForm

        a = QSeries.from_terms([(F(1, 3), 1)], 3, 2)
        zero = QSeries.zero(3, 2)
        form = VectorForm(5, w_prime, (zero, a, a))
        same = VectorForm(F(5), w_prime, (QSeries.zero(3, 2), a, a.truncate(2)))
        assert form == same and hash(form) == hash(same)
        assert form != VectorForm(7, w_prime, (zero, a, a))
        # DiscriminantForm compares by identity
        other = DiscriminantForm(w_prime.lattice)
        assert form != VectorForm(5, other, (zero, a, a))

    def test_derived_forms_share_the_orbit_component(self, w_prime):
        from cubicforms.eisenstein import vv_eisenstein

        e5 = vv_eisenstein(w_prime, 5, 10)
        bracket = rankin_cohen(e5, eisenstein_level1(4, 10), 4, 1)
        derived = {
            "vv_eisenstein": e5,
            "rankin_cohen": bracket,
            "scale": e5.scale(F(2, 3)),
            "truncate": e5.truncate(5),
            "add": bracket + bracket,
        }
        for name, form in derived.items():
            assert form.components[1] is form.components[2], name
            assert form.components[0] is not form.components[1], name

    def test_per_orbit_makes_one_component_per_orbit(self, w_prime):
        made = []

        def make(gamma):
            made.append(gamma)
            return QSeries.zero(3, 2)

        form = VectorForm.per_orbit(5, w_prime, make)
        assert made == [0, 1]
        assert form.components[1] is form.components[2]
        assert form.weight == 5 and type(form.weight) is F


class TestDepthOracles:
    """Checks of the whole degree table at depth against routes that share
    no Eisenstein code with the sieve.  The memo is restored after the class,
    so no later test is served from these precisions."""

    @pytest.fixture(scope="class", autouse=True)
    def memo(self):
        from cubicforms import vvmf

        saved = dict(vvmf._MEMO)
        yield
        vvmf._MEMO.clear()
        vvmf._MEMO.update(saved)

    def test_pairing_with_theta_e6_is_level_one(self):
        # E6 = A2^3 glued by [111] has the discriminant form of -W, so
        # theta_E6 lies in M_3(rho_{-W}), and Psi in M_11(rho*_{-W}) = M_11(rho_W):
        # the pairing lies in M_14(SL2(Z)) = C E4^2 E6 (Borcherds' criterion)
        from cubicforms.vvmf import solve_psi

        prec = 2000
        psi = solve_psi(prec).components
        pairing = sum((t * p for t, p in zip(theta_e6(prec), psi)), QSeries.zero())
        e4, e6 = eisenstein_level1(4, prec), eisenstein_level1(6, prec)
        # QSeries equality compares cutoffs, so both sides are cut alike
        assert (pairing * 2).truncate(prec) == (e4 * e4 * e6 * -4).truncate(prec)

    def test_every_degree_from_6_is_positive(self):
        from cubicforms import theta_degrees

        table = theta_degrees(2000).degrees
        assert len(table) == 3999 and table[2] == 0
        assert all(deg > 0 for d, deg in table.items() if d >= 6)

    def test_full_table_equals_stdlib_oracle(self):
        # perfbench/oracle.py imports nothing from cubicforms: E5 = 2 theta_W E4,
        # brackets on integer lists, and its own solve for Psi
        import importlib.util
        from pathlib import Path

        from cubicforms import theta_degrees

        path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        constant, degrees = oracle.degree_series(400)
        heegner = theta_degrees(400)
        assert constant == heegner.theta.coefficient(0) == -2
        assert len(degrees) == 799 and heegner.degrees == degrees
