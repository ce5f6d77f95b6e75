import cProfile
import gc
import io
import pstats
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicforms import eisenstein, theta_degrees
from cubicforms.eisenstein import (
    _descent,
    _integer_polynomial,
    _solutions_mod_p,
    alpha_series,
    beta_series,
    eisenstein_chi,
    eisenstein_level1,
    l_value_ratio,
    local_euler_factor,
    prime_power_counts,
    theta_series_rank10,
    vv_eisenstein,
)
from cubicforms.exactmath import (
    IntegralityError,
    as_integer,
    bernoulli_number,
    bernoulli_poly,
    chi_minus3,
    p_valuation,
    prime_factors,
)
from cubicforms.fqm import (
    E8_GRAM,
    W_GRAM,
    W_PRIME_GRAM,
    DiscriminantForm,
    EvenLattice,
    _short_vector_walk,
    discriminant_form,
    short_vectors,
    w_prime_form,
)
from cubicforms.cli import main
from cubicforms.qseries import QSeries, solve_linear_combination
from cubicforms.vvmf import VectorForm, basis_weight11
from lattices import E6_GRAM, direct_sum, theta_e6


def rep_count(form, gamma, n, a):
    """Brute-force count of r in (Z/aZ)^rank with (1/2)(r-gamma)^2 + n = 0 mod a."""
    if a < 1:
        raise ValueError("modulus must be positive")
    n = F(n)
    gram, lin, const = _integer_polynomial(form, gamma, n)
    rank = form.lattice.rank
    count = 0
    for r in product(range(a), repeat=rank):
        q2 = sum(gram[i][j] * r[i] * r[j] for i in range(rank) for j in range(rank))
        assert q2 % 2 == 0
        if (q2 // 2 + sum(lin[i] * r[i] for i in range(rank)) + const) % a == 0:
            count += 1
    return count


class TestScalarSeries:
    def test_e4(self):
        e4 = eisenstein_level1(4, 4)
        assert [e4.coefficient(n) for n in range(3)] == [1, 240, 2160]

    def test_e6(self):
        e6 = eisenstein_level1(6, 4)
        assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]

    def test_constant_term_is_one(self):
        for k in (4, 6, 8, 10, 12):
            assert eisenstein_level1(k, 2).coefficient(0) == 1

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            eisenstein_level1(5, 4)
        with pytest.raises(ValueError):
            eisenstein_level1(2, 4)

    def test_alpha_display(self):
        alpha = alpha_series(8)
        assert [alpha.coefficient(n) for n in range(8)] == [1, 6, 0, 6, 6, 0, 0, 12]

    def test_beta_display(self):
        beta = beta_series(6)
        assert [beta.coefficient(n) for n in range(6)] == [0, 1, 3, 9, 13, 24]

    def test_beta_ninth_coefficient(self):
        # sum over d | 9 of d^2 chi(9/d) = 81
        assert beta_series(10).coefficient(9) == 81

    def test_divisor_sum_conventions_agree(self):
        # oracle: the divisor sum re-indexed by d <-> n/d, (n/d)^(k-1) * chi(d)
        for k in (1, 3, 5):
            coeffs = {
                n: sum(
                    (n // d) ** (k - 1) * chi_minus3(d)
                    for d in range(1, n + 1)
                    if n % d == 0
                )
                for n in range(1, 30)
            }
            if k == 1:
                coeffs = {0: 1, **{n: 6 * c for n, c in coeffs.items()}}
            assert eisenstein_chi(k, 30) == QSeries.from_terms(coeffs.items(), 1, 30), k

    def test_rejects_even_weight(self):
        with pytest.raises(ValueError):
            eisenstein_chi(2, 4)

    def test_rescaled(self):
        a = eisenstein_chi(1, 6).rescale_exponent(F(1, 3))
        assert a.coefficient(F(1, 3)) == 6
        b = eisenstein_chi(3, 6).rescale_exponent(F(1, 3))
        assert b.exponents()[0] == F(1, 3)


def _divisors(n: int) -> list[int]:
    """The divisors of n by a scan of 1..n: the oracle of the divisor sieve."""
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("k", [4, 6])
def test_level1_series_match_divisor_scan_to_600(k):
    factor = F(-2 * k) / bernoulli_number(k)
    want = {0: 1, **{n: factor * sum(d ** (k - 1) for d in _divisors(n)) for n in range(1, 600)}}
    assert eisenstein_level1(k, 600) == QSeries(want, 1, 600)


@pytest.mark.parametrize("series, k", [(alpha_series, 1), (beta_series, 3)], ids=["alpha", "beta"])
def test_generators_match_divisor_scan_to_600(series, k):
    want = {
        n: (6 if k == 1 else 1) * sum(d ** (k - 1) * chi_minus3(n // d) for d in _divisors(n))
        for n in range(1, 600)
    }
    if k == 1:
        want[0] = 1
    assert series(600) == QSeries(want, 1, 600)


class TestRepCounts:
    def test_modulus_one(self, w_prime):
        for gamma, n in ((0, F(1)), (1, F(1, 3)), (2, F(4, 3))):
            assert rep_count(w_prime, gamma, n, 1) == 1

    def test_trivial_coset_mod_2(self, w_prime):
        # enumerate r in {0,1}^2 for (1/2)r^2 + 1 = 0 mod 2 on the negated form
        assert rep_count(w_prime, 0, F(1), 2) == 3

    def test_gamma1_mod_3_regression(self, w_prime):
        # frozen after first computation with the 9-element enumeration
        assert rep_count(w_prime, 1, F(1, 3), 3) == 3

    def test_integrality_precondition(self, w_prime):
        with pytest.raises(Exception):
            rep_count(w_prime, 1, F(1), 2)  # q(gamma) + n not integral

    # depth per prime at which rep_count stays under about 20k points: 2 and 3
    # divide 2 det G, 7 and 13 split, 5 and 11 are inert
    BRUTE_DEPTH = {2: 7, 3: 4, 5: 3, 7: 2, 11: 2, 13: 1}

    def test_lifted_counts_match_brute_force(self, w_prime):
        for gamma in range(3):
            offset = (-w_prime.qvalue(gamma)) % 1
            grid = [offset + k for k in range(200) if offset + k > 0]
            # every index below 6 at depth 3 for p = 2, 3, 5
            cases = {(n, p, 3) for n in grid if n < 6 for p in (2, 3, 5)}
            # all six primes at full depth: the first index, and the first ones
            # with p | 3n and p^2 | 3n (on gamma != 0, 3n is prime to 3)
            for p, depth in self.BRUTE_DEPTH.items():
                for m in (1, p, p * p):
                    n = next((n for n in grid if (3 * n) % m == 0), None)
                    if n is not None:
                        cases.add((n, p, depth))
            for n, p, depth in sorted(cases):
                lifted = prime_power_counts(w_prime, gamma, n, p, depth)
                brute = [rep_count(w_prime, gamma, n, p**v) for v in range(depth + 1)]
                assert lifted == brute, (gamma, n, p)


def _brute_counts(gram, lin, const, p, depth):
    """[N(p^0), ..., N(p^depth)] from one pass over (Z/p^depth)^2: a residue
    class mod p^v holds p^(2(depth-v)) residues mod p^depth."""
    a = p**depth
    hits = [0] * (depth + 1)
    for x, y in product(range(a), repeat=2):
        val = (gram[0][0] * x * x + gram[1][1] * y * y) // 2 + gram[0][1] * x * y
        val += lin[0] * x + lin[1] * y + const
        v = 0
        while v < depth and val % p ** (v + 1) == 0:
            v += 1
        hits[v] += 1
    # hits[v] counts exact valuation v (capped); N(p^v) sums valuations >= v
    return tuple(sum(hits[v:]) // p ** (2 * (depth - v)) for v in range(depth + 1))


# depth per prime at which the brute pass stays under about 5k points
_HYPO_DEPTH = {2: 6, 3: 3, 5: 2, 7: 2}


@st.composite
def _congruences(draw):
    p = draw(st.sampled_from(sorted(_HYPO_DEPTH)))
    small = st.integers(-5, 5)
    a, h, d = draw(small), draw(small), draw(small)
    # half the draws scale G by p, so p | det G is always well covered
    scale = draw(st.sampled_from((1, p)))
    assume(4 * a * d != h * h)
    gram = ((2 * a * scale, h * scale), (h * scale, 2 * d * scale))
    lin = (draw(st.integers(-30, 30)), draw(st.integers(-30, 30)))
    const = draw(st.integers(-200, 200))
    return gram, lin, const, p


@settings(deadline=None, max_examples=100)
@given(_congruences())
def test_descent_matches_brute_force(case):
    gram, lin, const, p = case
    depth = _HYPO_DEPTH[p]
    assert _descent(gram, lin, const, p, depth) == _brute_counts(
        gram, lin, const, p, depth
    )


@settings(deadline=None, max_examples=100)
@given(_congruences(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_descent_depends_only_on_residues_mod_p_vmax(case, s0, s1, s2):
    # the descent on (lin, const) shifted by multiples of p^vmax equals the
    # descent on their residues: the counts see f only mod p^vmax
    gram, lin, const, p = case
    depth = _HYPO_DEPTH[p]
    m = p**depth
    shifted = (lin[0] + s0 * m, lin[1] + s1 * m), const + s2 * m
    reduced = (lin[0] % m, lin[1] % m), const % m
    got = _descent(gram, *shifted, p, depth)
    assert got == _descent(gram, *reduced, p, depth)
    assert got == _brute_counts(gram, lin, const, p, depth)


def test_counts_keep_no_form_alive():
    # the descent is memoized on integer tuples, never on the form
    form = DiscriminantForm(EvenLattice(W_PRIME_GRAM))
    ref = weakref.ref(form)
    assert prime_power_counts(form, 1, F(1, 3), 2, 3) == prime_power_counts(
        w_prime_form(), 1, F(1, 3), 2, 3
    )
    del form
    gc.collect()
    assert ref() is None


def test_counts_handed_out_cannot_change_the_memo(w_prime):
    counts = prime_power_counts(w_prime, 0, F(9), 3, 5)
    assert isinstance(_descent(*_integer_polynomial(w_prime, 0, F(9)), 3, 5), tuple)
    want = list(counts)
    counts[1] = -1
    counts.append(7)
    assert prime_power_counts(w_prime, 0, F(9), 3, 5) == want


def _fresh_solutions_mod_p(gram, lin, const, p):
    """(nonsingular, singular) solutions of Q(x) + lin.x + const = 0 mod p,
    enumerated over (Z/p)^rank with unreduced lin and const."""
    rank = len(gram)
    nonsingular, singular = 0, []
    for x in product(range(p), repeat=rank):
        q2 = sum(gram[i][j] * x[i] * x[j] for i in range(rank) for j in range(rank))
        if (q2 // 2 + sum(b * xi for b, xi in zip(lin, x)) + const) % p:
            continue
        grad = [sum(g * xj for g, xj in zip(row, x)) + b for row, b in zip(gram, lin)]
        if any(g % p for g in grad):
            nonsingular += 1
        else:
            singular.append(x)
    return nonsingular, tuple(singular)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solutions_mod_p_equals_fresh_enumeration(p):
    gram = w_prime_form().lattice.gram
    for lin in product(range(p), repeat=2):
        for const in range(p):
            got = _solutions_mod_p(gram, lin, const, p)
            assert isinstance(got[1], tuple)
            assert got == _fresh_solutions_mod_p(gram, lin, const, p)
            # a representative off [0, p) gives the same answer
            far = tuple(b - 7 * p for b in lin), const + 11 * p
            assert got == _fresh_solutions_mod_p(gram, *far, p)
            assert _solutions_mod_p(gram, *far, p) == got


# every rank-2 even lattice with |det G| = 3 has det G = 3: -W and W itself
_DET3_FORMS = {"w_prime": W_PRIME_GRAM, "w": W_GRAM}


def _twist_sign(form):
    """eps, read off q(gamma) at gamma != 0 on its own: q(gamma) is 2/3 mod 1
    on -W (eps = +1) and 1/3 on W (eps = -1)."""
    return 1 if form.qvalue(1) % 1 == F(2, 3) else -1


class TestLocalFactors:
    def test_l_value_ratio_at_5(self):
        assert l_value_ratio(5) == 486

    def test_bernoulli_sum_at_5(self):
        s = sum(chi_minus3(m) * bernoulli_poly(5, 1 - F(m, 3)) for m in range(1, 4))
        assert s == F(10, 243)

    def test_l_value_ratio_at_3_bernoulli_oracle(self):
        # the ratio 4k / sum has the sign (-1)^((k-1)/2), - at k = 3
        s = sum(chi_minus3(m) * bernoulli_poly(3, 1 - F(m, 3)) for m in range(1, 4))
        assert s == F(-2, 27)
        assert l_value_ratio(3) == 12 / s == -162

    def test_l_value_ratio_equals_three_term_bernoulli_sum(self):
        # the ratio reads -2 B_k(1/3); the sum over m = 1, 2, 3 is its oracle
        for k in range(3, 102, 2):
            s = sum(chi_minus3(m) * bernoulli_poly(k, 1 - F(m, 3)) for m in range(1, 4))
            assert l_value_ratio(k) == 4 * k / s, k
            assert (l_value_ratio(k) > 0) == (k % 4 == 1), k

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            l_value_ratio(4)

    def test_cached_ratio_still_rejects_a_float_weight(self):
        # 5.0 hashes and compares equal to 5, and the body rejects it: a
        # cached 5 must not serve it
        assert l_value_ratio(5) == 486
        with pytest.raises(TypeError):
            l_value_ratio(5.0)

    def test_omega_collapse_single_term(self, w_prime):
        # when omega_p = 1 the factor is (1 - p^(1-k)) + N(p) p^(-k)
        p = 3
        assert p_valuation(2 * w_prime.element_order(0) * F(1), p) == 0  # omega = 1
        counts = prime_power_counts(w_prime, 0, F(1), p, 1)
        got = local_euler_factor(5, w_prime, 0, F(1), p)
        want = (1 - F(p) ** -4) + counts[1] * F(p) ** -5
        assert got == want

    def test_assembled_from_data_object(self, w_prime):
        # every prime of 18n at (gamma, n) = (1, 1/3) gets its omega + 1 counts
        n = F(1, 3)
        assert w_prime.element_order(1) == 3
        assert set(prime_factors(as_integer(18 * n, "18n"))) == {2, 3}
        for p in (2, 3):
            w = 1 + 2 * p_valuation(2 * w_prime.element_order(1) * n, p)
            counts = prime_power_counts(w_prime, 1, n, p, w)
            assert counts[0] == 1
            assert len(counts) == w + 1

    def test_good_prime_factor_is_exactly_one(self, w_prime):
        # primes not dividing 18n contribute a factor of exactly 1
        for gamma, n in ((0, F(1)), (1, F(4, 3)), (0, F(5))):
            for p in (5, 7, 11):
                if (18 * n) % p == 0:
                    continue
                counts = prime_power_counts(w_prime, gamma, n, p, 1)
                factor = ((1 - F(p) ** (1 - 5)) + counts[1] * F(p) ** -5) / (
                    1 - chi_minus3(p) * F(p) ** -5
                )
                assert factor == 1


    @pytest.mark.parametrize("p", [1, 0, -3, 4, 9, 5.0])
    def test_p_must_be_a_prime(self, w_prime, p):
        # p = 1 looped for ever in the valuation; 4 gave counts; 0 divided by zero
        with pytest.raises(ValueError, match=r"^p must be a prime, got "):
            local_euler_factor(5, w_prime, 0, 1, p)
        with pytest.raises(ValueError, match=r"^p must be a prime, got "):
            prime_power_counts(w_prime, 0, 1, p, 3)

    @pytest.mark.parametrize("vmax", [-1, -5, 1.0])
    def test_vmax_must_be_nonnegative(self, w_prime, vmax):
        with pytest.raises(ValueError, match=r"^vmax must be an integer >= 0, got "):
            prime_power_counts(w_prime, 0, 1, 3, vmax)

    def test_vmax_zero_counts_the_empty_congruence(self, w_prime):
        assert prime_power_counts(w_prime, 0, 1, 3, 0) == [1]

    @pytest.mark.parametrize("name", sorted(_DET3_FORMS))
    @pytest.mark.parametrize("p", [2, 3])
    def test_index_zero_raises(self, name, p):
        # n = 0 has no p-adic valuation: omega was found by dividing 0 by p
        # until a remainder showed, which never came
        form = discriminant_form(_DET3_FORMS[name])
        with pytest.raises(ValueError, match=r"^p-adic valuation of 0 is undefined$"):
            local_euler_factor(5, form, 0, 0, p)

    @pytest.mark.parametrize("name", sorted(_DET3_FORMS))
    @pytest.mark.parametrize(
        "k, n, message",
        [
            (0, 1, r"^k must be an integer >= 1, got 0$"),
            (-5, 1, r"^k must be an integer >= 1, got -5$"),
            (5.0, 1, r"^k must be an integer >= 1, got 5\.0$"),
            (F(5), 1, r"^k must be an integer >= 1, got Fraction\(5, 1\)$"),
            (5, -1, r"^n must be >= 0, got -1$"),
            (5, F(-2, 3), r"^n must be >= 0, got -2/3$"),
        ],
        ids=["k=0", "k=-5", "k-float", "k-fraction", "n=-1", "n=-2/3"],
    )
    def test_bad_weight_or_index_raises_before_the_descent(
        self, name, k, n, message, monkeypatch
    ):
        # k <= 0 raised TypeError from fractions.py (p**(k-1) is a float) and
        # n = -1 returned 80/81, a factor at an index that has none
        monkeypatch.setattr(eisenstein, "_descent", lambda *a: pytest.fail("descent ran"))
        form = discriminant_form(_DET3_FORMS[name])
        for p in (2, 3):
            with pytest.raises(ValueError, match=message):
                local_euler_factor(k, form, 0, n, p)


def _good_factor(k: int, p: int, e: int) -> tuple[int, int]:
    """L_{gamma,n}(k,p) / (1 - chi(p) p^(-k)) as an integer pair at a prime
    p != 3, with e = 3n, t = v_p(e), x = p^(k-1) and chi = chi_{-3}:

        sum_{j<=t} (chi(p) p^(1-k))^j = (x^(t+1) - chi^(t+1)) / ((x - chi) x^t),

    the local factor of a unimodular binary lattice (Bruinier-Kuss, "Eisenstein
    series attached to lattices and modular forms on orthogonal groups",
    Manuscripta Math. 106 (2001)); it holds at p = 2 as well."""
    t = 0
    while e % p == 0:
        e //= p
        t += 1
    x, chi = p ** (k - 1), chi_minus3(p)
    return (x ** (t + 1) - chi ** (t + 1)) // (x - chi), x**t


def _factor_at_3(k: int, eps: int, gamma: int, e: int) -> F:
    """L_{gamma,n}(k,3) with e = 3n: 1 at gamma != 0, and
    1 + eps chi(u) 3^((1-k)t) at gamma = 0, where e = 3^t u, 3 not dividing u."""
    if gamma:
        return F(1)
    t = 0
    while e % 3 == 0:
        e //= 3
        t += 1
    return 1 + eps * chi_minus3(e) * F(3) ** ((1 - k) * t)


class TestGoodPrimes:
    """Every factor of the Euler product has a closed form, which
    vv_eisenstein reads off its divisor sieve; the descent in
    local_euler_factor is the oracle of each one."""

    @pytest.mark.parametrize("name", sorted(_DET3_FORMS))
    def test_closed_form_equals_descent(self, name):
        form = discriminant_form(_DET3_FORMS[name])
        checked = 0
        for k in (3, 5, 7, 9, 11):
            for gamma in range(3):
                for n in _grid(form, gamma, 200):
                    e = as_integer(3 * n, "3n")
                    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                        if (6 * e) % p:  # only the primes of 18n enter
                            continue
                        descent = local_euler_factor(k, form, gamma, n, p)
                        want = descent / (1 - chi_minus3(p) * F(p) ** -k)
                        if p == 3:
                            got = _factor_at_3(k, _twist_sign(form), gamma, e)
                        else:
                            got = F(*_good_factor(k, p, e))
                        assert got == want, (k, gamma, n, p)
                        checked += 1
        assert checked == {"w_prime": 7985, "w": 7955}[name]

    def test_cold_theta_enters_neither_descent_nor_factorization(self, monkeypatch):
        """A cold theta_degrees runs the descent at no prime, checks no prime
        and factors no exponent: factorize is what prime_factors calls."""
        from cubicforms import exactmath
        from cubicforms.vvmf import _MEMO

        entered = set()

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                entered.add(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("local_euler_factor", "prime_power_counts", "_descent", "_solutions_mod_p"):
            spy(eisenstein, name)
        spy(eisenstein, "_prime")
        spy(exactmath, "prime_factors")
        spy(exactmath, "factorize")
        saved = dict(_MEMO)
        try:
            _MEMO.clear()
            assert theta_degrees(240).degree(8) == 3402
        finally:
            _MEMO.clear()
            _MEMO.update(saved)
        assert entered == set()


_BUILDERS = {
    "level1": lambda prec: eisenstein_level1(4, prec),
    "chi": lambda prec: eisenstein_chi(3, prec),
    "vv": lambda prec: vv_eisenstein(w_prime_form(), 5, prec),
    "theta": theta_series_rank10,
}


class TestPrecisionDomain:
    """The four series builders read ``prec`` one way: an int or a Fraction
    on their grid, and not negative."""

    @pytest.mark.parametrize("name", ["level1", "chi"])
    def test_integral_fraction_is_the_int(self, name):
        build = _BUILDERS[name]
        assert build(F(5)) == build(5)

    @pytest.mark.parametrize("name", ["level1", "chi"])
    def test_float_raises_type_error(self, name):
        with pytest.raises(TypeError, match="prec must be an int or a Fraction, not float"):
            _BUILDERS[name](5.0)

    @pytest.mark.parametrize("name", ["level1", "chi"])
    def test_fraction_off_the_grid_raises_value_error(self, name):
        with pytest.raises(ValueError, match="prec 9/2 is not on the 1/1 grid"):
            _BUILDERS[name](F(9, 2))

    @pytest.mark.parametrize(
        "name, prec",
        [(name, prec) for name in sorted(_BUILDERS) for prec in (-5, -1)]
        + [("theta", F(-1, 3)), ("vv", F(-1, 3))],
    )
    def test_negative_raises_value_error(self, name, prec):
        with pytest.raises(ValueError) as info:
            _BUILDERS[name](prec)
        assert str(info.value) == f"prec {prec} is negative"

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_zero_is_an_empty_series(self, name):
        result = _BUILDERS[name](0)
        for f in getattr(result, "components", [result]):
            assert f.prec == 0 and not f.nums


class TestVectorEisenstein:
    @pytest.mark.parametrize(
        "make",
        [
            lambda form: vv_eisenstein(form, 5, 2.0),
            lambda form: theta_series_rank10(2.0),
            lambda form: basis_weight11(4.0),
        ],
    )
    def test_float_precision_raises_type_error(self, w_prime, make):
        with pytest.raises(TypeError, match="prec must be an int or a Fraction"):
            make(w_prime)

    @pytest.mark.parametrize(
        "make",
        [
            lambda form: local_euler_factor(5, form, 0, 1.0, 3),
            lambda form: prime_power_counts(form, 0, 1.0, 3, 1),
        ],
    )
    def test_float_index_raises_type_error(self, w_prime, make):
        # Fraction(1.0) would pass as the index n = 1
        with pytest.raises(TypeError, match="n must be an int or a Fraction"):
            make(w_prime)

    def test_v0_display(self, e5):
        assert [e5.coefficient(n, 0) for n in range(4)] == [2, 492, 7200, 39372]

    def test_v1_display(self, e5):
        assert [e5.coefficient(F(3 * n + 1, 3), 1) for n in range(3)] == [
            6,
            1446,
            14412,
        ]

    def test_v2_equals_v1(self, e5):
        assert e5.component(2) == e5.component(1)

    def test_all_coefficients_are_nonnegative_integers(self, e5):
        for comp in e5.components:
            for e, c in comp.coeffs.items():
                assert c.denominator == 1 and c >= 0

    def test_rejects_wrong_form(self):
        from cubicforms.fqm import E8_GRAM, discriminant_form

        with pytest.raises(ValueError):
            vv_eisenstein(discriminant_form(E8_GRAM), 5, 4)

    def test_memo_serves_the_callers_form(self):
        # a result once came back on the library's form of the Gram matrix,
        # and adding it to a form on the caller's own raised
        library = vv_eisenstein(w_prime_form(), 5, 4)
        own = DiscriminantForm(EvenLattice(W_PRIME_GRAM))
        mine = vv_eisenstein(own, 5, 3)
        assert mine.form is own
        assert mine.components == library.truncate(3).components
        other = VectorForm(5, own, mine.components)
        assert (mine + other).coefficient(1, 0) == 2 * 492
        ref = weakref.ref(own)
        del own, mine, other
        gc.collect()
        assert ref() is None

    def test_memo_serves_a_list_gram(self):
        # a list-of-lists Gram was once kept as given: the lattice was unequal
        # to the same lattice from tuples, unhashable, and a memo keyed on it
        # raised TypeError: unhashable type: 'list'
        rows = [[-2, -1], [-1, -2]]
        lattice = EvenLattice(rows)
        rows[0][0] = 4
        assert lattice == EvenLattice(W_PRIME_GRAM)
        assert hash(lattice) == hash(EvenLattice(W_PRIME_GRAM))
        own = DiscriminantForm(lattice)
        mine = vv_eisenstein(own, 5, 3)
        assert mine.form is own
        assert mine.components == vv_eisenstein(w_prime_form(), 5, 3).components

    def test_memo_served_series_cannot_change_in_place(self):
        # a write into a component's numerators once reached every later
        # result served from a precision memo: degree(6) read -778
        with pytest.raises(TypeError):
            vv_eisenstein(w_prime_form(), 5, 60).components[0].nums[3] = 7
        assert vv_eisenstein(w_prime_form(), 5, 60).coefficient(1, 0) == 492
        assert theta_degrees(30).degree(6) == 192


def _oracle_factor(k, form, gamma, n, p):
    """local_euler_factor assembled term by term in Fractions, with omega
    from 2 * d_gamma * n."""
    n = F(n)
    m = as_integer(2 * form.element_order(gamma) * n, "2*d_gamma*n")
    w = 1
    while m % p == 0:
        m //= p
        w += 2
    counts = prime_power_counts(form, gamma, n, p, w)
    head = sum(counts[v] * F(p) ** (-k * v) for v in range(w))
    return (1 - F(p) ** (1 - k)) * head + counts[w] * F(p) ** (-k * w)


def _oracle_coefficient(k, form, gamma, n, factor):
    """eps * ratio * n^(k-1) * prod_{p | 18n} factor(p) / (1 - chi(p) p^(-k)),
    in Fractions.  The ratio is looked up on the module, so a defect planted
    there reaches the oracle too."""
    val = _twist_sign(form) * eisenstein.l_value_ratio(k) * n ** (k - 1)
    for p in prime_factors(as_integer(18 * n, "18n")):
        val *= factor(p) / (1 - chi_minus3(p) * F(p) ** (-k))
    return val


def _vv_oracle(form, k, prec):
    """The Euler-product series assembled in Fractions, every coset computed
    in full, with the sign and integrality checks of vv_eisenstein: every
    non-constant coefficient has the sign eps (-1)^((k-1)/2), and it is an
    integer at k = 3, 5 on -W and k = 3, 5, 7 on W."""
    prec = F(prec)
    eps = _twist_sign(form)
    sign = eps * (-1) ** ((k - 1) // 2)
    integral = k in ((3, 5) if eps == 1 else (3, 5, 7))
    components = []
    for gamma in range(form.order):
        offset = (-form.qvalue(gamma)) % 1
        coeffs = {}
        n = offset if offset > 0 else F(1)
        while n < prec:
            val = _oracle_coefficient(
                k, form, gamma, n, lambda p: _oracle_factor(k, form, gamma, n, p)
            )
            if integral:
                as_integer(val, f"Eisenstein coefficient at q^{n} v_{gamma}")
            if sign * val < 0:
                wrong = "negative" if sign > 0 else "positive"
                raise IntegralityError(f"{wrong} Eisenstein coefficient {val} at q^{n} v_{gamma}")
            coeffs[n] = val
            n += 1
        if gamma == 0:
            coeffs[F(0)] = F(2)
        components.append(QSeries.from_terms(coeffs.items(), 3, prec))
    return VectorForm(F(k), form, tuple(components))


def _grid(form, gamma, prec):
    """The exponents n > 0 below prec of the gamma component."""
    offset = (-form.qvalue(gamma)) % 1
    return [offset + j for j in range(prec + 1) if 0 < offset + j < prec]


def _form_weights(name_weights):
    """(form name, k) cases on both det-3 forms; the -W cases keep the bare
    weight as their id, the W cases are named w-k."""
    return pytest.mark.parametrize(
        "name, k",
        name_weights,
        ids=[str(k) if name == "w_prime" else f"{name}-{k}" for name, k in name_weights],
    )


class TestWeightParity:
    """E_k against the Gamma0(3) generators: f = sum_gamma F_gamma(3 tau) lies
    in M_k(Gamma0(3), chi_{-3}), spanned by alpha^(k-3j) beta^j, and
    fit_alpha_beta must find f there with 25 or more points to spare.  A
    wrong sign of the normalizing ratio at a weight leaves the span."""

    @_form_weights([(name, k) for name in _DET3_FORMS for k in range(3, 12, 2)])
    def test_fits_the_gamma0_generators(self, name, k):
        from cubicforms.vvmf import fit_alpha_beta

        e = vv_eisenstein(discriminant_form(_DET3_FORMS[name]), k, 120)
        f = sum(e.components[1:], e.component(0)).rescale_exponent(3)
        assert f.prec == 360
        assert fit_alpha_beta(f, k, min_extra=25)[0] == 2  # the constant term

    @pytest.mark.parametrize("k", range(3, 14, 2))
    def test_pairing_with_theta_e6_is_level_one(self, k):
        # theta_E6 lies in M_3(rho_{-W}) and E_k(-W) in M_k(rho*_{-W}), so
        # sum_gamma theta_E6,gamma E_k,gamma lies in M_(k+3)(SL2(Z)), spanned
        # by the E4^a E6^b with 4a + 6b = k + 3: one exact fit on all 40
        # coefficients, its constant term 1 * 2.  The left factor is a
        # lattice theta series, with no Eisenstein code
        prec = 40
        e = vv_eisenstein(w_prime_form(), k, prec).components
        pairing = sum((t * c for t, c in zip(theta_e6(prec), e)), QSeries.zero())
        # QSeries equality compares cutoffs, so the pairing is cut to prec
        pairing = pairing.truncate(prec)
        assert all(x.denominator == 1 for x in pairing.exponents())
        e4, e6 = eisenstein_level1(4, prec), eisenstein_level1(6, prec)
        basis = [e4**a * e6**b for a in range(5) for b in range(3) if 4 * a + 6 * b == k + 3]
        coeffs = solve_linear_combination(basis, [(n, pairing.coefficient(n)) for n in range(prec)])
        assert sum(c * g for c, g in zip(coeffs, basis)) == pairing
        assert pairing.coefficient(0) == 2


class TestIntegerAssembly:
    """The divisor sieve against the Fraction Euler product _vv_oracle,
    which runs every prime through the descent, on both det-3 forms: the
    twist sign eps is where -W and W differ."""

    PREC = 120

    @_form_weights([(name, k) for name in _DET3_FORMS for k in range(3, 12, 2)])
    def test_series_matches_fraction_oracle(self, name, k):
        form = discriminant_form(_DET3_FORMS[name])
        got = vv_eisenstein(form, k, self.PREC)
        want = _vv_oracle(form, k, self.PREC)
        assert got == want
        for mine, theirs in zip(got.components, want.components):
            assert mine.nums == theirs.nums
            assert (mine.scale, mine.prec) == (theirs.scale, theirs.prec)

    @_form_weights([("w_prime", 7), ("w_prime", 9), ("w_prime", 11), ("w", 9), ("w", 11)])
    def test_failing_weight_raises_as_oracle(self, name, k, monkeypatch):
        # the weights whose coefficients are not integers keep the sign check:
        # a sign error planted in the ratio fails at the first non-constant
        # coefficient, q^1 on coset 0, with the oracle's message
        ratio = eisenstein.l_value_ratio
        monkeypatch.setattr(eisenstein, "l_value_ratio", lambda k: -ratio(k))
        form = discriminant_form(_DET3_FORMS[name])
        with pytest.raises(IntegralityError) as want:
            _vv_oracle(form, k, self.PREC)
        with pytest.raises(IntegralityError) as got:
            vv_eisenstein(form, k, self.PREC)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(" at q^1 v_0")
        assert "/" in str(got.value)

    @pytest.mark.parametrize(
        "plant, message",
        [
            (lambda r: -r, r"negative Eisenstein coefficient -492 at q\^1 v_0"),
            (lambda r: r / 7, r"Eisenstein coefficient at q\^1 v_0 = 492/7 is not an integer"),
        ],
        ids=["sign", "integrality"],
    )
    def test_planted_defect_fires_at_the_first_coefficient(
        self, w_prime, monkeypatch, capsys, plant, message
    ):
        # each check that remains at k = 5 catches its own planted defect, at
        # q^1 on coset 0, in the library and on the command line (exit 1)
        ratio = eisenstein.l_value_ratio
        monkeypatch.setattr(eisenstein, "l_value_ratio", lambda k: plant(ratio(k)))
        with pytest.raises(IntegralityError, match=f"^{message}$"):
            vv_eisenstein(w_prime, 5, self.PREC)
        with pytest.raises(IntegralityError, match=f"^{message}$"):
            _vv_oracle(w_prime, 5, self.PREC)
        assert main(["eisenstein", "--k", "5"], out=io.StringIO()) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_assembly_makes_no_divmod_call(self, w_prime):
        # the numerators sit over one scale and are reduced once, with no
        # division per coefficient
        profile = cProfile.Profile()
        profile.runcall(vv_eisenstein, w_prime, 5, 120)
        names = [name for _file, _line, name in pstats.Stats(profile).stats]
        assert "_divisor_sums" in names
        assert not [name for name in names if "divmod" in name]

    def test_local_factor_matches_fraction_oracle(self, w_prime):
        checked = 0
        for k in (3, 5, 7, 9, 11):
            for gamma in range(3):
                for n in _grid(w_prime, gamma, 20):
                    for p in prime_factors(as_integer(18 * n, "18n")):
                        got = local_euler_factor(k, w_prime, gamma, n, p)
                        want = _oracle_factor(k, w_prime, gamma, n, p)
                        assert got == want, (k, gamma, n, p)
                        checked += 1
        assert checked == 815

    def test_core_keeps_integrality_messages(self, w_prime):
        with pytest.raises(IntegralityError, match=r"^2\*d_gamma\*n = 6/7 is not an integer$"):
            local_euler_factor(5, w_prime, 1, F(1, 7), 2)
        with pytest.raises(
            IntegralityError, match=r"^q\(gamma\) \+ n for coset 1, n = 1 = 2/3 is not an integer$"
        ):
            prime_power_counts(w_prime, 1, F(1), 2, 1)
        with pytest.raises(TypeError, match="n must be an int or a Fraction"):
            local_euler_factor(5, w_prime, 0, 1.0, 2)

    def test_minus_coset_built_independently(self, w_prime):
        # coset 2 = -coset 1 from its own Euler factors, never through the sieve
        k, form = 5, w_prime
        coeffs = {
            n: _oracle_coefficient(
                k, form, 2, n, lambda p: local_euler_factor(k, form, 2, n, p)
            )
            for n in _grid(form, 2, self.PREC)
        }
        assert all(c.denominator == 1 and c > 0 for c in coeffs.values())
        coset2 = QSeries.from_terms(coeffs.items(), 3, self.PREC)
        assert coset2 == vv_eisenstein(form, k, self.PREC).component(1)

    @pytest.mark.parametrize("k", [3, 5])
    def test_hecke_relations(self, w_prime, k):
        """a(pn) = (1 + p^(k-1)) a(n) - p^(k-1) a(n/p) for p = 1 mod 3, the
        last term only when p | n, where f = sum_gamma F_gamma(3 tau) has
        coefficients a(n): the Eisenstein series is a Hecke eigenform
        (Bruinier-Stein, "The Weil representation and Hecke operators for
        vector valued modular forms", Math. Z. 264 (2010)).  The relation
        holds whatever the sign of l_value_ratio and asks for no
        integrality, so it checks the local factors on their own."""
        top = 120
        series = vv_eisenstein(w_prime, k, top // 3)

        def a(n):
            if n % 3 == 0:
                return series.coefficient(F(n, 3), 0)
            if n % 3 == 1:
                return 2 * series.coefficient(F(n, 3), 1)
            return 0

        relations = 0
        for p in (7, 13, 19):
            for n in range(1, (top - 1) // p + 1):
                rhs = (1 + p ** (k - 1)) * a(n)
                if n % p == 0:
                    rhs -= p ** (k - 1) * a(n // p)
                assert a(p * n) == rhs, (p, n)
                relations += 1
        assert relations == 32


def _theta_w(i, prec):
    """Theta series of coset i of the rank-2 lattice W, by its own walk."""
    counts: dict[F, int] = {}
    form = discriminant_form(W_GRAM)
    for _vec, norm in short_vectors(EvenLattice(W_GRAM), form.cosets[i], 2 * prec):
        counts[norm / 2] = counts.get(norm / 2, 0) + 1
    return QSeries.from_terms(counts.items(), 3, prec)


def _e4(prec):
    return QSeries.from_terms(eisenstein_level1(4, prec).coeffs.items(), 3, prec)


class TestThetaOracle:
    def test_constant_term(self):
        th = theta_series_rank10(4)
        assert th.coefficient(0, 0) == 1
        assert th.component(1) == th.component(2)

    def test_norm2_vector_count(self):
        # 2 * 246 = 492: the coefficient counts lattice vectors of norm 2
        th = theta_series_rank10(4)
        assert th.coefficient(1, 0) == 246

    def test_minimal_coset_vectors(self):
        th = theta_series_rank10(4)
        assert th.coefficient(F(1, 3), 1) == 3

    def test_eisenstein_equals_twice_theta(self, w_prime):
        e5 = vv_eisenstein(w_prime, 5, 4)
        twice = theta_series_rank10(4).scale(2)
        for i in range(3):
            assert e5.component(i) == twice.component(i)

    def test_eisenstein_equals_twice_theta_w_times_e4_at_depth(self, w_prime):
        # theta_E8 = E_4 (pinned by E8 enumeration above), so E_5 = 2 theta_W E_4
        # with only the rank-2 W enumerated; its two nonzero cosets carry equal
        # series, so the coset matching is forced
        prec = 120
        e5 = vv_eisenstein(w_prime, 5, prec)
        e4 = _e4(prec)
        for i in range(3):
            assert e5.component(i) == _theta_w(i, prec) * e4 * 2, i
        assert e5.component(1) == e5.component(2)

    @pytest.mark.parametrize("k", [3, 7])
    def test_eisenstein_on_w_is_twice_theta_e6(self, k):
        # Siegel-Weil on W, which fixes its sign at k = 3 and 7: E6 = A2^3
        # glued by [111] has the discriminant form of W, so E_3 = 2 theta_E6
        # and E_7 = 2 theta_(E6 + E8) = 2 theta_E6 E_4, with theta_i the
        # coset series of W = A2 and theta_E6 = (theta_0^3 + 2 theta_1^3,
        # 3 theta_0 theta_1^2, 3 theta_0 theta_2^2)
        prec = 12
        theta = theta_e6(prec)
        factor = _e4(prec) * 2 if k == 7 else QSeries.constant(2)
        e = vv_eisenstein(discriminant_form(W_GRAM), k, prec)
        for i in range(3):
            # QSeries equality compares cutoffs, so both sides are cut alike
            assert e.component(i).truncate(prec) == (theta[i] * factor).truncate(prec), i

    def test_coset_thetas_on_e6_equal_the_glue_code(self):
        # E6 is no orthogonal sum: its own walk, one per orbit, against the
        # A2^3[111] glue of theta_e6, an oracle over W; the glue products
        # carry higher cutoffs, so both sides are cut to 12 first
        form = discriminant_form(E6_GRAM)
        assert (form.lattice.det(), form.qvalues) == (3, [0, F(2, 3), F(2, 3)])
        got = eisenstein._coset_thetas(form, 12)
        assert [t.truncate(12) for t in got] == [t.truncate(12) for t in theta_e6(12)]

    @pytest.mark.parametrize("prec", [-1, F(1, 2), 2.0])
    def test_coset_thetas_read_the_precision_before_any_walk(self, monkeypatch, prec):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(eisenstein, "_short_vector_walk", walk)
        with pytest.raises((TypeError, ValueError), match="prec"):
            eisenstein._coset_thetas(discriminant_form(W_GRAM), prec)

    def test_rank10_equals_theta_w_times_e4(self):
        # independent of the E8 walk: theta_E8 = E_4, so each component of
        # theta_{W+E8} is the rank-2 theta series of its coset times E_4
        prec = 5
        th = theta_series_rank10(prec)
        e4 = _e4(prec)
        for i in range(3):
            assert th.component(i) == _theta_w(i, prec) * e4, i

    def test_e8_shell_counts(self):
        # 240 * sigma_3(m) vectors of norm 2m in E8
        d, leaves = _short_vector_walk(EvenLattice(E8_GRAM), (0,) * 8, 8, [])
        assert d == 1
        shells = Counter(ygy for _y, ygy in leaves)
        assert shells == {0: 1, 2: 240, 4: 2160, 6: 6720, 8: 17520}

    def test_e8_theta_from_counts_is_e4_through_norm_16(self):
        # theta_E8 = E_4 = 1 + 240 sum sigma_3(n) q^n: the binned walk has
        # 240 sigma_3(n) vectors at norm 2n, and none of odd norm, to n = 8
        d, counts = _short_vector_walk(EvenLattice(E8_GRAM), (0,) * 8, 16, {})
        e4 = eisenstein_level1(4, 9)
        assert d == 1 and counts == {2 * n: c for n, c in e4.coeffs.items()}
        assert sum(counts.values()) == 340321
        assert eisenstein._coset_thetas(discriminant_form(E8_GRAM), 9) == [_e4(9)]

    def test_coset_theta_series_rejects_norm_off_the_third_grid(self):
        # the coset 1/2 + Z of the lattice <2> has half-norms (n + 1/2)^2,
        # in 1/4 + Z, and the series' 1/3 grid has no key for q^(1/4)
        with pytest.raises(ValueError, match="exponent 1/4 is not on the 1/3 grid"):
            eisenstein._coset_thetas(discriminant_form(((2,),)), 2)

    def test_fresh_oracle_keeps_no_vectors(self):
        # the E8 walk at prec 4 passes 9,121 vectors; counted per norm at the
        # leaf level, none is kept, and the traced peak stays far below the
        # 1.5 MB that the list of leaves took
        discriminant_form(W_GRAM), w_prime_form()
        tracemalloc.start()
        try:
            th = theta_series_rank10(F(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert th == theta_series_rank10(4)
        assert peak < 250_000, peak

    def test_product_equals_direct_enumeration(self):
        # oracle: one walk of the rank-10 lattice W + E8, binned by coset
        prec = F(2)
        gram = direct_sum(W_GRAM, E8_GRAM)
        lattice = EvenLattice(gram)
        form = discriminant_form(gram)
        th = theta_series_rank10(prec)
        for i in range(3):
            counts: dict[F, int] = {}
            for _vec, norm in short_vectors(lattice, form.cosets[i], 2 * prec - F(2, 3)):
                if norm / 2 < prec:
                    counts[norm / 2] = counts.get(norm / 2, 0) + 1
            assert th.component(i) == QSeries.from_terms(counts.items(), 3, prec), i
