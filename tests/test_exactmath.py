import copy
import pickle
import random
import signal
from fractions import Fraction as F
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicforms.exactmath import (
    Cyclotomic,
    IntegralityError,
    as_fraction,
    as_integer,
    as_ratio,
    bernoulli_number,
    bernoulli_poly,
    chi_minus3,
    gauss_sum,
    jacobi_symbol,
    p_valuation,
)


class TestJacobi:
    def test_identity_case(self):
        assert jacobi_symbol(1, 3) == 1

    def test_nonresidue_mod3(self):
        # brute force: squares mod 3 are {0, 1}
        squares = {x * x % 3 for x in range(3)}
        assert 2 not in squares
        assert jacobi_symbol(2, 3) == -1

    def test_multiplicativity_from_residue_tables(self):
        # (4/15) = (4/3)(4/5); 4 is a square mod both
        assert jacobi_symbol(4, 15) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_case_matches_residue_table(self, p):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a % p == 0 else (1 if a in squares else -1)
            assert jacobi_symbol(a, p) == expect

    @pytest.mark.parametrize("n", [3, 9, 15, 21])
    def test_multiplicative_in_top_argument(self, n):
        for a in range(-10, 11):
            for b in range(-10, 11):
                assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    def test_rejects_even_or_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            jacobi_symbol(1, 4)
        with pytest.raises(ValueError):
            jacobi_symbol(1, -3)


class TestChiMinus3:
    def test_basic_values(self):
        assert chi_minus3(1) == 1
        assert chi_minus3(5) == -1
        assert chi_minus3(6) == 0

    def test_period_and_multiplicativity(self):
        for n in range(-20, 20):
            assert chi_minus3(n) == chi_minus3(n + 3)
            for m in range(-10, 10):
                assert chi_minus3(n * m) == chi_minus3(n) * chi_minus3(m)

    def test_agrees_with_jacobi(self):
        for n in range(-30, 30):
            if n % 3:
                assert chi_minus3(n) == jacobi_symbol(n, 3)


class TestBernoulli:
    def test_small_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)
        assert bernoulli_number(4) == F(-1, 30)

    def test_odd_vanish(self):
        for k in (3, 5, 7, 9, 11):
            assert bernoulli_number(k) == 0

    def test_poly_at_zero_matches_numbers(self):
        for k in range(13):
            assert bernoulli_poly(k, 0) == bernoulli_number(k)

    def test_fifth_poly_values(self):
        assert bernoulli_poly(5, 0) == 0
        assert bernoulli_poly(5, F(1, 3)) == F(-5, 243)

    def test_poly_rejects_float(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="int or a Fraction"):
            bernoulli_poly(2, 0.1)

    def test_reflection_symmetry(self):
        x = F(1, 3)
        for k in (4, 5, 6):
            assert bernoulli_poly(k, 1 - x) == (-1) ** k * bernoulli_poly(k, x)

    def test_numbers_match_the_recurrence(self):
        for k in range(81):
            assert bernoulli_number(k) == _recurrence_number(k)

    @pytest.mark.parametrize("a", range(-4, 5))
    def test_poly_at_thirds_matches_the_recurrence(self, a):
        x = F(a, 3)
        for k in range(31):
            assert bernoulli_poly(k, x) == _recurrence_poly(k, x)

    def test_negative_index_raises(self):
        for call in (lambda: bernoulli_number(-1), lambda: bernoulli_poly(-1, F(1, 3))):
            with pytest.raises(ValueError, match="Bernoulli index must be nonnegative"):
                call()


# -- the Fraction recurrence that computed the Bernoulli values before the
# -- integer sums, kept as their oracle

@lru_cache(maxsize=None)
def _recurrence_number(k):
    """B_k with B_1 = -1/2, via sum_{j<=k} C(k+1, j) B_j = 0."""
    if k == 0:
        return F(1)
    return -sum(F(comb(k + 1, j)) * _recurrence_number(j) for j in range(k)) / (k + 1)


def _recurrence_poly(k, x):
    """B_k(x) = sum_j C(k, j) B_j x^(k-j)."""
    return sum(F(comb(k, j)) * _recurrence_number(j) * x ** (k - j) for j in range(k + 1))


class TestPValuation:
    def test_examples(self):
        assert p_valuation(12, 2) == 2
        assert p_valuation(5, 3) == 0
        assert p_valuation(54, 3) == 3

    def test_rational_and_negative(self):
        assert p_valuation(F(1, 8), 2) == -3
        assert p_valuation(-18, 3) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            p_valuation(0, 2)

    def test_rejects_float(self):
        # Fraction(0.5) would give -1
        with pytest.raises(TypeError, match="int or a Fraction"):
            p_valuation(0.5, 2)

    @pytest.mark.parametrize("p", [1, 0, -3, 4, 9, 2.0, True])
    def test_p_must_be_a_prime(self, p):
        # p = 1 looped for ever, 4 gave 1 and 2.0 gave 2; the alarm turns a
        # loop into a failure instead of a hung run
        def hung(signum, frame):
            raise TimeoutError(f"p_valuation(12, {p!r}) did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(3)
        try:
            with pytest.raises(ValueError, match=r"^p must be a prime, got "):
                p_valuation(12, p)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCyclotomic:
    def test_root_of_unity_order(self):
        z = Cyclotomic.root_of_unity(F(1, 24))
        assert z**24 == 1
        assert z**12 == -1

    def test_pow_matches_mul(self):
        x = Cyclotomic([F(1, 2), -3, 0, F(2, 7), 0, 0, 1, F(-5, 3)])
        assert x**0 == Cyclotomic.one() == 1
        product = Cyclotomic.one()
        for m in range(6):
            power = x**m
            assert power == product and (power.nums, power.den) == (product.nums, product.den)
            product = product * x

    def test_embedding_matches_products(self):
        rng = random.Random(1)
        for _ in range(1000):
            x = Cyclotomic([F(rng.randint(-100, 100), rng.randint(1, 9)) for _ in range(8)])
            y = Cyclotomic([F(rng.randint(-100, 100), rng.randint(1, 9)) for _ in range(8)])
            lhs = (x * y).to_complex()
            rhs = x.to_complex() * y.to_complex()
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_embedding_long_products(self):
        # products of up to 8 factors with coefficients up to 1e6
        rng = random.Random(2)
        for _ in range(20):
            factors = [
                Cyclotomic([F(rng.randint(-10**6, 10**6)) for _ in range(8)])
                for _ in range(8)
            ]
            exact = factors[0]
            approx = factors[0].to_complex()
            for f in factors[1:]:
                exact = exact * f
                approx *= f.to_complex()
            assert abs(exact.to_complex() - approx) <= 1e-12 * max(1.0, abs(approx))

    def test_conjugation_and_real_part(self):
        z = Cyclotomic.root_of_unity(F(1, 24))
        assert z * z.conjugate() == 1
        r = (z + z.conjugate()).real_part()
        assert r == z + z.conjugate()  # already real

    def test_sqrt_int(self):
        for n in (1, 2, 3, 4, 6, 8, 9, 12, 18, 24):
            root = Cyclotomic.sqrt_int(n)
            assert (root * root).as_rational() == n
            assert root.to_complex().real > 0

    def test_sqrt_int_rejects_surds_outside_the_field(self):
        for n in (5, 7, 10, 45):
            with pytest.raises(ValueError):
                Cyclotomic.sqrt_int(n)

    def test_as_rational_rejects_irrational(self):
        with pytest.raises(IntegralityError):
            Cyclotomic.sqrt_int(3).as_rational()


    def test_fields_are_read_only(self):
        # a write once reached every rho matrix sharing the entry
        z = Cyclotomic.zeta_power(1)
        for name, value in (("nums", (5, 0, 0, 0, 0, 0, 0, 0)), ("den", 2)):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(z, name, value)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(z, name)
        assert z == Cyclotomic.zeta_power(1) and z.nums == (0, 1, 0, 0, 0, 0, 0, 0)

    def test_copy_and_pickle_rebuild_through_init(self):
        z = Cyclotomic([F(1, 2), F(-3, 4)] + [F(0)] * 5 + [F(5, 6)])
        assert (z.nums, z.den) == ((6, -9, 0, 0, 0, 0, 0, 10), 12)
        for other in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert type(other) is Cyclotomic
            assert (other.nums, other.den) == (z.nums, z.den)
            assert other == z and hash(other) == hash(z)
        assert Cyclotomic(z.nums, z.den) == z

    def test_denominator_argument(self):
        # (coeffs, den) is the element sum coeffs[k] zeta^k / den, reduced
        assert Cyclotomic([2, 4] + [0] * 6, 6) == Cyclotomic([F(1, 3), F(2, 3)] + [0] * 6)
        assert Cyclotomic([F(1, 2)] + [0] * 7, 3).den == 6
        for den in (0, -1):
            with pytest.raises(ValueError, match="denominator must be a positive integer"):
                Cyclotomic([1] + [0] * 7, den)
        # True was read as the denominator 1
        for den in (True, 1.0, F(1, 2)):
            with pytest.raises(TypeError, match="denominator must be an int, not "):
                Cyclotomic([1] + [0] * 7, den)

    def test_rational_elements_hash_as_their_fraction(self):
        one = Cyclotomic.from_rational(1)
        assert one == 1 and hash(one) == hash(1)
        assert len({one, 1, F(1), Cyclotomic.zeta_power(0)}) == 1
        half = Cyclotomic([F(1, 2)] + [0] * 7)
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        assert {Cyclotomic.zero(): "z"}[0] == "z"

    @pytest.mark.parametrize(
        "op",
        [
            lambda z: z * 1.5,
            lambda z: 1.5 * z,
            lambda z: z + 1.5,
            lambda z: 1.5 + z,
            lambda z: z - 1.5,
            lambda z: 1.5 - z,
            lambda z: z + "a",
            lambda z: z * 1j,
            lambda z: z / 1.5,
        ],
    )
    def test_foreign_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(Cyclotomic.zeta_power(1))

    @pytest.mark.parametrize(
        "op", [lambda z: z - "a", lambda z: z - 1.5, lambda z: 1.5 - z],
        ids=["sub-str", "sub-float", "rsub-float"],
    )
    def test_foreign_operand_in_subtraction_is_not_implemented(self, op):
        # Python's own TypeError, naming the operator, once both sides decline
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            op(Cyclotomic.zeta_power(1))

    @pytest.mark.parametrize(
        "op",
        [lambda z: z / 1.5, lambda z: z / z, lambda z: z / "a", lambda z: 1 / z],
        ids=["div-float", "div-cyclotomic", "div-str", "rdiv-int"],
    )
    def test_foreign_operand_in_division_is_not_implemented(self, op):
        # only an exact rational divides; anything else gets Python's own error
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /"):
            op(Cyclotomic.zeta_power(1))

    def test_division_by_an_exact_rational(self):
        z = Cyclotomic.zeta_power(1)
        assert z / 2 == z * F(1, 2) and z / F(2, 3) == z * F(3, 2)

    @pytest.mark.parametrize(
        "m, error, match",
        [
            (1.5, TypeError, "power must be an int, not float"),
            (F(2), TypeError, "power must be an int, not Fraction"),
            (-1, ValueError, "negative powers are not supported"),
        ],
        ids=["pow-float", "pow-fraction", "pow-negative"],
    )
    def test_bad_power_raises(self, m, error, match):
        with pytest.raises(error, match=match):
            Cyclotomic.zeta_power(1) ** m

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Cyclotomic([0.1] + [0] * 7),
            lambda: Cyclotomic([F(1, 2)] * 7 + [0.5]),
            lambda: Cyclotomic(["1/2"] + [0] * 7),
            lambda: Cyclotomic.from_rational(0.1),
            lambda: Cyclotomic.from_rational(2.0),
            lambda: Cyclotomic.from_rational("1/3"),
            lambda: Cyclotomic.root_of_unity(0.25),
            lambda: Cyclotomic.root_of_unity(1.0),
        ],
    )
    def test_inexact_inputs_raise_type_error(self, make):
        # Fraction(0.1) is 3602879701896397/36028797018963968, and
        # root_of_unity(0.25) would be zeta^6: no float may enter exactly
        with pytest.raises(TypeError, match="int or a Fraction"):
            make()


# -- the Fraction power-table arithmetic, kept as the oracle of the integer
# -- layout: coordinates are 8-tuples of Fractions in the power basis

def _oracle_power_table():
    phi24 = (1, 0, 0, 0, -1, 0, 0, 0, 1)  # x^8 - x^4 + 1, low to high
    rows = [tuple(F(int(i == j)) for i in range(8)) for j in range(8)]
    for j in range(8, 24):
        prev = rows[j - 1]
        top = prev[-1]
        shifted = [F(0)] + list(prev[:-1])
        if top:
            for i in range(8):
                shifted[i] -= top * phi24[i]
        rows.append(tuple(shifted))
    return rows


ORACLE_TABLE = _oracle_power_table()


def _oracle_mul(x, y):
    prod = [F(0)] * 15
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    prod[i + j] += a * b
    out = [F(0)] * 8
    for j, c in enumerate(prod):
        if c:
            for i in range(8):
                out[i] += c * ORACLE_TABLE[j][i]
    return tuple(out)


def _oracle_galois(x, a):
    out = [F(0)] * 8
    for j, c in enumerate(x):
        if c:
            for i in range(8):
                out[i] += c * ORACLE_TABLE[j * a % 24][i]
    return tuple(out)


def _oracle_pow(x, m):
    out = (F(1),) + (F(0),) * 7
    for _ in range(m):
        out = _oracle_mul(out, x)
    return out


_DENS = st.sampled_from((1, 2, 3, 6, 7, 10**9 + 7, 2**61 - 1)) | st.integers(1, 2**61 - 1)
_COEFF = st.just(F(0)) | st.builds(F, st.integers(-(10**12), 10**12), _DENS)


@st.composite
def _cyclotomics(draw):
    coeffs = draw(st.lists(_COEFF, min_size=8, max_size=8))
    if draw(st.booleans()):
        coeffs[1:] = [F(0)] * 7  # a rational element
    return Cyclotomic(coeffs)


def _assert_canonical(z):
    assert type(z.den) is int and z.den > 0
    assert all(type(n) is int for n in z.nums) and len(z.nums) == 8
    assert gcd(z.den, *z.nums) == 1


@settings(deadline=None, max_examples=150)
@given(_cyclotomics(), _cyclotomics(), _COEFF, st.integers(0, 4))
def test_integer_layout_matches_fraction_oracle(x, y, r, m):
    for z in (x, y):
        _assert_canonical(z)
    results = [
        (x + y, tuple(a + b for a, b in zip(x.coeffs, y.coeffs))),
        (x - y, tuple(a - b for a, b in zip(x.coeffs, y.coeffs))),
        (-x, tuple(-a for a in x.coeffs)),
        (x * y, _oracle_mul(x.coeffs, y.coeffs)),
        (x**m, _oracle_pow(x.coeffs, m)),
        (x.conjugate(), _oracle_galois(x.coeffs, 23)),
        (x * r, tuple(a * r for a in x.coeffs)),
        (r * x, tuple(a * r for a in x.coeffs)),
        (x + r, (x.coeffs[0] + r,) + x.coeffs[1:]),
        (r - x, (r - x.coeffs[0],) + tuple(-a for a in x.coeffs[1:])),
        (x + 3, (x.coeffs[0] + 3,) + x.coeffs[1:]),
    ]
    for a in (1, 5, 7, 11, 13, 17, 19, 23):
        results.append((x.galois(a), _oracle_galois(x.coeffs, a)))
    for got, want in results:
        _assert_canonical(got)
        assert got.coeffs == want
        # equal values give the equal layout, and the equal hash
        same = Cyclotomic(want)
        assert (same.nums, same.den) == (got.nums, got.den)
        assert same == got and hash(same) == hash(got)
    if x.is_rational():
        assert x.as_rational() == x.coeffs[0] == x
        assert hash(x) == hash(x.coeffs[0])
    else:
        with pytest.raises(IntegralityError):
            x.as_rational()
    # one value reached by different routes keeps one layout
    back = (x + y) - y
    assert (back.nums, back.den) == (x.nums, x.den) and hash(back) == hash(x)


@st.composite
def _vector_pair(draw):
    n = draw(st.integers(0, 4))
    vector = st.lists(_cyclotomics(), min_size=n, max_size=n)
    return draw(vector), draw(vector)


@settings(deadline=None, max_examples=150)
@given(_vector_pair())
def test_dot_matches_sum_of_products(pair):
    xs, ys = pair
    got = Cyclotomic.dot(xs, ys)
    _assert_canonical(got)
    want = sum((x * y for x, y in zip(xs, ys)), Cyclotomic.zero())
    assert (got.nums, got.den) == (want.nums, want.den)
    oracle = [F(0)] * 8
    for x, y in zip(xs, ys):
        oracle = [a + b for a, b in zip(oracle, _oracle_mul(x.coeffs, y.coeffs))]
    assert got.coeffs == tuple(oracle)


def test_dot_rejects_unequal_lengths():
    one = Cyclotomic.from_rational(1)
    with pytest.raises(ValueError):
        Cyclotomic.dot([one, one], [one])


def test_as_fraction_returns_a_fraction_as_it_is():
    x = F(3, 7)
    assert as_fraction(x) is x

    class Sub(F):
        pass

    for value in (3, True, Sub(3, 7)):
        out = as_fraction(value)
        assert type(out) is F and out == value
    with pytest.raises(TypeError, match="int or a Fraction"):
        as_fraction(0.5)


def test_as_ratio_reads_lowest_terms_without_a_fraction():
    from test_package import _fraction_news

    values = [3, -4, True, F(6, -4), F(0)]
    ratios = []
    assert _fraction_news(lambda: ratios.extend(as_ratio(v) for v in values)) == 0
    assert ratios == [(3, 1), (-4, 1), (1, 1), (-3, 2), (0, 1)]
    assert {type(x) for ratio in ratios for x in ratio} == {int}
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError, match="^exponent must be an int or a Fraction, not "):
            as_ratio(bad, "exponent")


def test_as_integer_rejects_floats():
    assert as_integer(F(6, 3)) == 2
    with pytest.raises(TypeError, match="int or a Fraction"):
        as_integer(2.0)
    with pytest.raises(IntegralityError):
        as_integer(F(1, 2))


class TestGaussSum:
    # q-values of the order-3 form on the negated hexagonal lattice
    QVALUES = [F(0), F(2, 3), F(2, 3)]

    def test_a_minus_3_is_3(self):
        assert gauss_sum(-3, self.QVALUES) == 3

    def test_a_1_is_minus_i_sqrt3(self):
        i = Cyclotomic.root_of_unity(F(1, 4))
        assert gauss_sum(1, self.QVALUES) == -1 * i * Cyclotomic.sqrt_int(3)

    def test_a_2_is_conjugate(self):
        assert gauss_sum(2, self.QVALUES) == gauss_sum(1, self.QVALUES).conjugate()

    def test_modulus_squared(self):
        for a in (1, 2, 4, 5):
            g = gauss_sum(a, self.QVALUES)
            assert g * g.conjugate() == 3
