import copy
import cProfile
import json
import pickle
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicforms.qseries import (
    InconsistentSystemError,
    QSeries,
    SingularSystemError,
    solve_linear_combination,
)
from test_package import _fraction_news


def from_json_dict(data):
    """The inverse of ``QSeries.to_json_dict``."""
    prec = F(int(data["prec_num"]), int(data["prec_den"]))
    coeffs = {int(t["e"]): F(int(t["num"]), int(t["den"])) for t in data["terms"]}
    return QSeries(coeffs, int(data["den"]), prec)


def series(terms, den=1, prec=None):
    return QSeries.from_terms(terms, den, prec)


def random_series(rng, den, prec):
    terms = {
        e: F(rng.randint(-9, 9), rng.randint(1, 4)) for e in range(prec * den)
    }
    return QSeries(terms, den, prec)


def assert_distributes(f, g, h):
    """f * (g + h) = fg + fh wherever both are known: when g + h cancels its
    leading term the left side knows more terms, never fewer."""
    left, right = f * (g + h), f * g + f * h
    assert left.truncate(right.prec) == right


class TestArithmetic:
    def test_mul_by_zero(self):
        f = series([(0, 1), (1, 6)], prec=10)
        assert (f * QSeries.zero(1, 10)).is_zero()
        assert (f * 0).is_zero()

    def test_difference_of_squares(self):
        one_plus = series([(0, 1), (1, 1)], prec=10)
        one_minus = series([(0, 1), (1, -1)], prec=10)
        assert one_plus * one_minus == series([(0, 1), (2, -1)], prec=10)

    def test_alpha_squared_by_convolution_oracle(self):
        # alpha = 1 + 6q + 6q^3 + 6q^4 + ... truncated at prec 5
        alpha = {0: 1, 1: 6, 2: 0, 3: 6, 4: 6}
        oracle = {}
        for i, a in alpha.items():
            for j, b in alpha.items():
                if i + j < 5:
                    oracle[i + j] = oracle.get(i + j, 0) + a * b
        f = QSeries({e: F(c) for e, c in alpha.items()}, 1, 5)
        assert f * f == QSeries({e: F(c) for e, c in oracle.items()}, 1, 5)
        assert oracle == {0: 1, 1: 12, 2: 36, 3: 12, 4: 84}

    def test_pow_empty_product(self):
        f = series([(0, 2), (1, 5)], prec=8)
        assert f**0 == QSeries.one()

    def test_pow_matches_mul(self):
        rng = random.Random(3)
        f = random_series(rng, 1, 8)
        assert f**2 == f * f
        assert f**3 == f * f * f
        # on the 1/3 grid from a positive lowest exponent, each factor moves
        # the cutoff up by that exponent: the power keeps the product's grid
        # and cutoff as well as its value
        from cubicforms.eisenstein import beta_series

        for g in (
            beta_series(4).rescale_exponent(F(1, 3)),
            QSeries({1: F(2, 3), 2: F(-1, 5), 4: 7}, 3, F(8, 3)),
        ):
            assert g**0 == QSeries.one()
            product = g
            for m in range(1, 6):
                power = g**m
                assert power == product
                assert (power.den, power.cut) == (product.den, product.cut)
                product = product * g

    def test_alpha_power_11_leading(self):
        from cubicforms.eisenstein import alpha_series

        a11 = alpha_series(6) ** 11
        assert a11.coefficient(0) == 1
        assert a11.coefficient(1) == 66


class TestRescaleDerivative:
    def test_rescale_definition(self):
        f = series([(0, 1), (1, 6)], prec=5)
        g = f.rescale_exponent(F(1, 3))
        assert g.coefficient(F(1, 3)) == 6
        assert g.prec == F(5, 3)

    def test_rescale_identity(self):
        f = series([(0, 1), (1, 6), (3, -2)], prec=5)
        assert f.rescale_exponent(1) == f

    def test_rescale_lowest_term(self):
        from cubicforms.eisenstein import beta_series

        b = beta_series(5).rescale_exponent(F(1, 3))
        assert b.exponents()[0] == F(1, 3)

    def test_rescale_twice(self):
        f = series([(1, 2), (2, 3)], prec=4)
        once = f.rescale_exponent(F(1, 9))
        twice = f.rescale_exponent(F(1, 3)).rescale_exponent(F(1, 3))
        assert once == twice

    def test_derivative_examples(self):
        f = series([(0, 1), (1, 6), (3, 6)], prec=5)
        assert f.derivative(0) == f
        assert f.derivative() == series([(1, 6), (3, 18)], prec=5)
        g = series([(F(4, 3), 1)], den=3, prec=3)
        assert g.derivative() == series([(F(4, 3), F(4, 3))], den=3, prec=3)


class TestCoefficientAccess:
    def test_alpha_beta_coefficients(self):
        from cubicforms.eisenstein import alpha_series, beta_series

        alpha, beta = alpha_series(8), beta_series(8)
        assert alpha.coefficient(0) == 1
        assert alpha.coefficient(2) == 0
        assert beta.coefficient(4) == 13

    def test_beyond_truncation_raises(self):
        f = series([(0, 1)], prec=5)
        with pytest.raises(ValueError):
            f.coefficient(5)
        with pytest.raises(ValueError):
            f.coefficient(7)
        assert f.coefficient(F(9, 2)) == 0  # off-grid but below prec


class TestLinearSolve:
    def test_two_by_two(self):
        basis = [series([(0, 1), (1, 1)], prec=5), series([(1, 1)], prec=5)]
        sol = solve_linear_combination(basis, [(0, 1), (1, 0)])
        assert sol == [F(1), F(-1)]

    def test_inconsistent_is_error_not_least_squares(self):
        basis = [series([(0, 1), (1, 1)], prec=5)]
        with pytest.raises(InconsistentSystemError):
            solve_linear_combination(basis, [(0, 1), (1, 2)])

    def test_rank_deficient(self):
        basis = [series([(0, 1)], prec=5), series([(0, 2)], prec=5)]
        with pytest.raises(SingularSystemError):
            solve_linear_combination(basis, [(0, 1), (1, 0)])

    def test_underdetermined(self):
        basis = [series([(0, 1)], prec=5), series([(1, 1)], prec=5)]
        with pytest.raises(SingularSystemError):
            solve_linear_combination(basis, [(0, 1)])

    def test_integer_targets_build_fractions_only_for_the_answers(self):
        basis = [series([(0, 1), (1, 1)], prec=5), series([(1, 1)], prec=5)]
        targets = [(0, 1), (1, 0), (2, 0)]
        answers = []
        built = _fraction_news(lambda: answers.append(solve_linear_combination(basis, targets)))
        assert answers == [[1, -1]]
        assert built == 2, built

    def test_rejects_a_float_target(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, which the solve
        # once returned for the target 0.1
        basis = [series([(0, 1)], prec=5)]
        with pytest.raises(TypeError, match="target value must be an int or a Fraction"):
            solve_linear_combination(basis, [(0, 0.1)])
        assert solve_linear_combination(basis, [(0, F(1, 10))]) == [F(1, 10)]

    def test_inconsistency_names_the_first_constraint_missed(self):
        basis = [series([(0, 1), (1, 1), (2, 1)], prec=5)]
        with pytest.raises(InconsistentSystemError, match=r"q\^2 "):
            solve_linear_combination(basis, [(0, 1), (1, 1), (2, 3), (3, 1)])

    def test_scaled_basis_and_fractional_targets(self):
        # y_j = c_j * D / scale_j: basis scales 6 and 10, value denominators 4 and 9
        f = series([(0, F(1, 2)), (1, F(1, 3))], prec=4)
        g = series([(1, F(3, 10)), (2, F(1, 5))], prec=4)
        c = [F(7, 3), F(-5, 4)]
        targets = [(e, c[0] * f.coefficient(e) + c[1] * g.coefficient(e)) for e in range(4)]
        assert solve_linear_combination([f, g], targets) == c


class TestRingProperties:
    def test_ring_axioms(self):
        # g + h = 2q + O(q^10) cancels its leading term, so f * (g + h) knows
        # q^10 and fg + fh does not: strict equality would fail here
        f = series([(1, 1)], prec=10)
        g, h = series([(0, 1), (1, 1)], prec=10), series([(0, -1), (1, 1)], prec=10)
        assert (f * (g + h)).prec == 11 and (f * g + f * h).prec == 10
        assert_distributes(f, g, h)
        rng = random.Random(11)
        for _ in range(200):
            den = rng.choice((1, 3))
            f, g, h = (random_series(rng, den, 10) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert_distributes(f, g, h)
            assert f + g == g + f

    def test_leibniz_rule(self):
        rng = random.Random(12)
        for _ in range(60):
            den = rng.choice((1, 3))
            f, g = (random_series(rng, den, 10) for _ in range(2))
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_rescale_is_multiplicative(self):
        rng = random.Random(13)
        for _ in range(40):
            f, g = (random_series(rng, 1, 8) for _ in range(2))
            r = F(1, 3)
            assert (f * g).rescale_exponent(r) == f.rescale_exponent(
                r
            ) * g.rescale_exponent(r)

    def test_truncation_soundness(self):
        rng = random.Random(14)
        for _ in range(60):
            f, g = (random_series(rng, 1, 20) for _ in range(2))
            assert (f * g).truncate(10) == (f.truncate(10) * g.truncate(10)).truncate(10)


class TestSerialization:
    def test_round_trip(self):
        f = series([(0, -2), (F(4, 3), 3402)], den=3, prec=F(10, 3))
        data = json.loads(json.dumps(f.to_json_dict()))
        assert from_json_dict(data) == f

    def test_exact_strings(self):
        f = series([(0, F(1, 3))], den=1, prec=2)
        d = f.to_json_dict()
        assert d["terms"][0]["num"] == "1" and d["terms"][0]["den"] == "3"
        assert isinstance(d["prec_num"], str)


class TestReadOnly:
    FIELDS = ("den", "cut", "nums", "scale")

    @pytest.mark.parametrize("prec", [F(10, 3), None])
    def test_fields_are_read_only(self, prec):
        f = series([(0, -2), (F(4, 3), F(3402, 7))], den=3, prec=prec)
        for name in self.FIELDS:
            value = getattr(f, name)
            with pytest.raises(AttributeError, match="QSeries is immutable"):
                setattr(f, name, value)
            with pytest.raises(AttributeError, match="QSeries is immutable"):
                delattr(f, name)
            assert getattr(f, name) is value
        with pytest.raises(AttributeError):
            f.extra = 1

    @pytest.mark.parametrize("prec", [F(10, 3), None])
    def test_prec_is_derived_from_the_cutoff(self, prec):
        f = series([(0, -2), (F(4, 3), F(3402, 7))], den=3, prec=prec)
        assert f.prec == (None if f.cut is None else F(f.cut, f.den)) == prec
        assert f.cut == (None if prec is None else 10)
        with pytest.raises(AttributeError, match="QSeries is immutable"):
            f.prec = F(1)
        with pytest.raises(AttributeError, match="QSeries is immutable"):
            del f.prec
        assert f.prec == prec

    @pytest.mark.parametrize("prec", [F(10, 3), None])
    def test_copy_and_pickle_round_trip(self, prec):
        f = series([(0, -2), (F(4, 3), F(3402, 7))], den=3, prec=prec)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is QSeries and g == f and hash(g) == hash(f)
            assert (g.den, g.prec, g.nums, g.scale) == (f.den, f.prec, f.nums, f.scale)

    @pytest.mark.parametrize("prec", [F(10, 3), None])
    def test_numerators_cannot_change_in_place(self, prec):
        # a memo-served series is shared: a write through nums would change
        # every later result built from it
        f = series([(0, -2), (F(4, 3), F(3402, 7))], den=3, prec=prec)
        for g in (f, copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            with pytest.raises(TypeError):
                g.nums[4] = 7
            with pytest.raises(TypeError):
                g.nums[1] = 7
            with pytest.raises(TypeError):
                del g.nums[0]
            with pytest.raises(AttributeError):
                g.nums.clear()
            assert dict(g.nums) == {0: -2, 4: 486} and g.scale == 1
            assert g == f


class TestExactInputs:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: QSeries({0: 0.5}),
            lambda: QSeries({0: 1}, 1, 2.0),
            lambda: QSeries.from_terms([(0, 0.1)], 1),
            lambda: QSeries.from_terms([(0.5, 1)], 2),
            lambda: QSeries.constant(0.5),
            lambda: series([(0, 1)], prec=5).coefficient(1.0),
            lambda: series([(0, 1)], prec=5).truncate(2.0),
            lambda: series([(0, 1)], prec=5).rescale_exponent(0.5),
        ],
    )
    def test_floats_raise_type_error(self, make):
        # Fraction(0.1) is 3602879701896397/36028797018963968: no float may
        # enter a coefficient, an exponent or a precision
        with pytest.raises(TypeError, match="int or a Fraction"):
            make()

    def test_float_index_raises_type_error(self):
        with pytest.raises(TypeError, match="exponent index must be an int or a Fraction"):
            QSeries({2.5: 1}, 1, 5)

    def test_fractional_index_raises_value_error(self):
        # int() would floor the key: 1*q^(2) + O(q^(5))
        with pytest.raises(ValueError, match="exponent index 5/2 is not an integer"):
            QSeries({F(5, 2): 1}, 1, 5)

    def test_integral_fraction_index_is_its_int(self):
        assert QSeries({F(2): 1}, 1, 5) == QSeries({2: 1}, 1, 5)

    def test_constants_hash_as_their_fraction(self):
        assert QSeries.constant(3) == 3
        assert len({QSeries.constant(3), 3}) == 1
        half = QSeries.constant(F(1, 2), 3)
        assert half == F(1, 2) and {half: "h"}[F(1, 2)] == "h"
        assert QSeries.zero() == 0 and hash(QSeries.zero()) == hash(0)
        # a truncated constant is not the number, whatever it hashes as
        assert QSeries.constant(3).truncate(5) != 3

    @pytest.mark.parametrize(
        "coeffs, nums, scale",
        [
            ({0: 3, 2: -7}, {0: 3, 2: -7}, 1),
            ({0: 4, 1: 6}, {0: 4, 1: 6}, 1),  # scale 1: a common factor of 2 stays
            ({0: 2**80, 5: -(2**80)}, {0: 2**80, 5: -(2**80)}, 1),
            ({1: True, 3: False}, {1: 1}, 1),
            ({0: F(1, 2), 1: F(-2, 3)}, {0: 3, 1: -4}, 6),
            ({0: F(4, 2), 1: F(-9, 3)}, {0: 2, 1: -3}, 1),  # integral Fractions
            ({0: 3, 1: True, 2: F(1, 2), 3: F(4, 2)}, {0: 6, 1: 2, 2: 1, 3: 4}, 2),
        ],
        ids=["int", "int-even", "big-int", "bool", "fraction", "integral-fraction", "mixed"],
    )
    def test_coefficient_types_give_the_same_layout(self, coeffs, nums, scale):
        f = QSeries(coeffs, 1, 6)
        assert (dict(f.nums), f.scale, f.den, f.prec) == (nums, scale, 1, F(6))
        assert all(type(n) is int for n in f.nums.values())
        assert f == QSeries({e: F(c) for e, c in coeffs.items()}, 1, 6)
        assert f.coeffs == {e: F(c) for e, c in coeffs.items() if c}

    def test_all_int_series_has_scale_one(self):
        f = QSeries({e: e * e - 5 for e in range(40)})
        assert f.scale == 1 and dict(f.nums) == {e: e * e - 5 for e in range(40)}

    @pytest.mark.parametrize("coeffs", [{0: 0}, {0: 0, 3: 0}, {0: False}, {0: F(0)}])
    def test_zero_coefficients_give_zero(self, coeffs):
        f = QSeries(coeffs)
        assert f.is_zero() and dict(f.nums) == {} and f.scale == 1
        assert f == QSeries.zero() == 0

    @pytest.mark.parametrize("coeffs", [{0: 1.0}, {0: 1, 1: 2.0}, {0: 0.0}])
    def test_float_coefficient_raises_type_error(self, coeffs):
        with pytest.raises(TypeError, match="coefficient must be an int or a Fraction"):
            QSeries(coeffs)


def _lowest_exponent(f):
    """Smallest exponent known to carry a nonzero coefficient; if there is
    none, everything below prec is known zero and prec itself is the
    earliest place a term could hide."""
    return F(min(f.nums), f.den) if f.nums else f.prec


def _naive_mul(f, g):
    """The product by a plain Fraction double loop, with the same truncation
    rule: the product is known below min(prec_f + low_g, prec_g + low_f)."""
    den = lcm(f.den, g.den)
    precs = []
    if f.prec is not None:
        precs.append(f.prec + (_lowest_exponent(g) or 0))
    if g.prec is not None:
        precs.append(g.prec + (_lowest_exponent(f) or 0))
    prec = min(precs) if precs else None
    out = {}
    for ea, ca in f.coeffs.items():
        for eb, cb in g.coeffs.items():
            e = F(ea, f.den) + F(eb, g.den)
            if prec is None or e < prec:
                out[e] = out.get(e, F(0)) + ca * cb
    return QSeries.from_terms(out.items(), den, prec)


@st.composite
def _series(draw):
    # every grid the package builds (1 and 3), and 2 and 6 so that two draws
    # meet on a grid finer than either
    den = draw(st.sampled_from((1, 2, 3, 6)))
    # small, coprime-large and mixed coefficient denominators
    cden = st.sampled_from((1, 2, 3, 6, 7, 10**9 + 7, 998244353, 2**61 - 1))
    terms = draw(
        st.dictionaries(
            st.integers(-6 * den, 20 * den),
            st.builds(F, st.integers(-(10**12), 10**12), cden),
            max_size=25,
        )
    )
    prec = draw(st.none() | st.builds(F, st.integers(-6 * den, 24 * den), st.just(den)))
    return QSeries(terms, den, prec)


@settings(deadline=None, max_examples=150)
@given(_series(), _series())
def test_mul_matches_naive_double_loop(f, g):
    got, ref = f * g, _naive_mul(f, g)
    assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)
    assert all(type(c) is F for c in got.coeffs.values())


@st.composite
def _long_series(draw, sizes):
    """``sizes`` terms on a progression offset + stride*k of the 1/den grid,
    with holes, numerators up to 2^200, exact or truncated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    den = draw(st.sampled_from((1, 3)))
    stride = draw(st.sampled_from((1, 3)))
    offset = draw(st.integers(-2 * den, 2 * den))
    size = draw(sizes)
    bits = draw(st.sampled_from((4, 70, 200)))
    cden = draw(st.sampled_from((1, 7, 2**61 - 1)))
    span = size + size // 4
    terms = {
        offset + stride * k: F(rng.choice((-1, 1)) * rng.randint(1, 2**bits), cden)
        for k in rng.sample(range(span), size)
    }
    prec = draw(st.none() | st.integers(offset - 3, offset + stride * span + 3))
    return QSeries(terms, den, None if prec is None else F(prec, den))


@settings(deadline=None, max_examples=15)
@given(
    _long_series(st.integers(100, 400)),
    _long_series(st.sampled_from((0, 1, 2)) | st.integers(100, 400)),
)
def test_packed_mul_matches_naive_double_loop_on_long_series(f, g):
    got, ref = f * g, _naive_mul(f, g)
    assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)


_LONG = QSeries({3 * k + 1: (1 - 2 * (k % 2)) * 2**70 + k for k in range(-20, 130)}, 3, F(130))


@pytest.mark.parametrize(
    "f, g",
    [
        (_LONG, QSeries({-5: -(2**65) - 1}, 3)),  # one exact term
        (_LONG, QSeries.zero(1, 4)),  # empty, truncated
        (_LONG, QSeries.zero(3)),  # exactly zero
        (QSeries({k: k * k - 2**64 for k in range(-7, 100)}), _LONG),  # exact x truncated
        (_LONG, _LONG),
        (_LONG, _LONG.truncate(-19)),  # the cutoff at or below the lowest exponent
    ],
    ids=["one-term", "empty", "zero", "exact-x-truncated", "square", "cut-below-lowest"],
)
def test_packed_mul_edge_factors(f, g):
    for x, y in ((f, g), (g, f)):
        got, ref = x * y, _naive_mul(x, y)
        assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)


# (w, bound, n, x, y): n equal terms x times n equal terms y make the slot
# bound max|a| * max|b| * min(len) = n*x*y, and the middle slot reaches it;
# 2^(8w - 1) - 1 is the largest bound a w-byte slot holds, 2^(8w - 1) the
# first that takes w + 1 bytes
_SLOT_BOUNDS = [
    (1, 2**7 - 1, 127, 1, 1),
    (1, 2**7, 2, 8, 8),
    (2, 2**15 - 1, 7, 31, 151),
    (2, 2**15, 8, 64, 64),
    (3, 2**23 - 1, 47, 1, 178481),
    (3, 2**23, 8, 2**10, 2**10),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize(
    "w, bound, n, x, y", _SLOT_BOUNDS, ids=[f"w{w}-{b}" for w, b, *_ in _SLOT_BOUNDS]
)
def test_packed_mul_at_the_slot_bound(w, bound, n, x, y, sign):
    assert n * x * y == bound and bound - 2 ** (8 * w - 1) in (-1, 0)
    f = QSeries({k: x for k in range(n)})
    g = QSeries({k: sign * y for k in range(n)})
    for h in (g, g.truncate(n)):  # exact, and cut just past the middle slot
        got, ref = f * h, _naive_mul(f, h)
        assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)
        assert got.coeffs[n - 1] == sign * bound


@pytest.mark.parametrize(
    "f, g",
    [
        (QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: -1})),  # 1 - q^2
        (QSeries({0: 1, 1: 1, 2: 1}), QSeries({0: 1, 1: -1})),  # 1 - q^3
        (QSeries({0: 2**70, 1: 2**70}), QSeries({0: 3, 1: -3}, 1, 9)),  # big slots
        (QSeries({0: F(1, 2), 1: F(1, 2), 2: F(1, 2)}, 3), QSeries({0: 1, 1: -1}, 3, 5)),
        (QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: -1}, 1, 2)),  # 1 + 0*q: zero top slot
        (QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: -1, 2: 1}, 1, 3)),  # 1 + 0*q + 0*q^2
        (QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: -1}, 1, 1)),  # the one slot kept is 1
        (QSeries({0: 1, 2: 1}, 1, 3), QSeries({0: 1, 2: -1})),  # stride 2: 1 + 0*q^2
    ],
    ids=[
        "interior-zero", "two-interior-zeros", "big-interior-zeros", "den3-interior-zeros",
        "zero-top-slot", "two-zero-top-slots", "one-slot", "stride-two-zero-top-slot",
    ],
)
def test_packed_mul_with_zero_slots(f, g):
    for x, y in ((f, g), (g, f)):
        got, ref = x * y, _naive_mul(x, y)
        assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)
        assert all(got.nums.values())


@pytest.mark.parametrize(
    "f, g",
    [
        (QSeries({1: 2, 4: -3, 7: 5}, 3), QSeries({2: 1, 5: 4, 11: -7}, 3)),
        (QSeries({1: 2, 4: -3, 7: 5}, 3, F(10, 3)), QSeries({-1: F(1, 7), 8: 4}, 3)),
        (QSeries({0: 1, 1: 2, 3: -1}), QSeries({1: 1, 4: 2, 13: -3}, 3, 6)),  # den 1 x den 3
    ],
    ids=["exact", "truncated", "mixed-den"],
)
def test_packed_mul_on_a_stride_three_progression(f, g):
    for x, y in ((f, g), (g, f)):
        got, ref = x * y, _naive_mul(x, y)
        assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)


def _profiled_calls(fn) -> int:
    """Calls made while fn() runs, counted as ``perfbench/probe.py count``
    counts them: the sum of the call counts of cProfile's entries."""
    fn()  # once unprofiled, so nothing is counted that only a first call does
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    return sum(e.callcount for e in profiler.getstats())


def _int_terms(n):
    return {k: (k * 7919) % 23 - 11 or 5 for k in range(n)}


def test_packed_mul_makes_no_call_per_slot():
    def product(n):
        f, g = QSeries(_int_terms(n), 1, n), QSeries(_int_terms(n + 3), 1, n + 1)
        return lambda: f * g

    assert _profiled_calls(product(30)) == _profiled_calls(product(3000))


def test_coefficient_builds_one_fraction():
    f = QSeries({0: 3, 1: F(1, 2)}, 1, 5)
    got = []
    assert _fraction_news(lambda: got.append(f.coefficient(0))) == 1
    assert got == [3]


def test_integer_coefficients_make_no_call_per_term():
    small, large = _int_terms(10), _int_terms(1000)
    assert _profiled_calls(lambda: QSeries(small)) == _profiled_calls(lambda: QSeries(large))


_EXACT = QSeries({-2: F(1, 2), 1: 3}, 3)  # lowest exponent -2/3, prec None
_TRUNC = QSeries({1: 5, 4: -1}, 2, F(7, 2))  # lowest exponent 1/2
_EMPTY_TRUNC = QSeries.zero(2, F(-3, 2))  # no terms: prec stands for the lowest
_EMPTY_EXACT = QSeries.zero(6)  # exactly zero, prec None


@pytest.mark.parametrize(
    "f, g, prec",
    [
        (_EXACT, _TRUNC, F(7, 2) - F(2, 3)),
        (_TRUNC, _EXACT, F(7, 2) - F(2, 3)),
        (_EXACT, _EXACT, None),
        (_EXACT, _EMPTY_EXACT, None),
        (_EMPTY_EXACT, _TRUNC, F(7, 2)),
        (_TRUNC, _EMPTY_EXACT, F(7, 2)),
        (_EMPTY_TRUNC, _EXACT, F(-3, 2) - F(2, 3)),
        (_EMPTY_TRUNC, _TRUNC, min(F(-3, 2) + F(1, 2), F(7, 2) - F(3, 2))),
        (_EMPTY_TRUNC, _EMPTY_TRUNC, F(-3)),
        (_TRUNC, _TRUNC, F(7, 2) + F(1, 2)),
    ],
)
def test_mul_precision_with_exact_or_empty_factor(f, g, prec):
    got, ref = f * g, _naive_mul(f, g)
    assert got.prec == prec and (prec is None or type(got.prec) is F)
    assert (got.den, got.prec, got.coeffs) == (ref.den, ref.prec, ref.coeffs)


# -- the Fraction-dict arithmetic that QSeries ran before it held integer
# -- numerators, kept as the oracle of the integer layout

class _Oracle:
    """{e: Fraction} on the 1/den grid below prec; every operation makes and
    normalizes one Fraction per coefficient."""

    def __init__(self, coeffs, den, prec):
        cutoff = None if prec is None else (prec * den).numerator
        self.den, self.prec = den, prec
        self.coeffs = {
            e: F(c) for e, c in coeffs.items() if c and (cutoff is None or e < cutoff)
        }

    @classmethod
    def of(cls, f):
        return cls(f.coeffs, f.den, f.prec)

    def __add__(self, other):
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {e * fa: c for e, c in self.coeffs.items()}
        for e, c in other.coeffs.items():
            out[e * fb] = out.get(e * fb, F(0)) + c
        precs = [p for p in (self.prec, other.prec) if p is not None]
        return _Oracle(out, den, min(precs) if precs else None)

    def __neg__(self):
        return _Oracle({e: -c for e, c in self.coeffs.items()}, self.den, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, r):
        return _Oracle({e: c * r for e, c in self.coeffs.items()}, self.den, self.prec)

    def lowest(self):
        return F(min(self.coeffs), self.den) if self.coeffs else self.prec

    def __mul__(self, other):
        den = lcm(self.den, other.den)
        precs = []
        if self.prec is not None:
            precs.append(self.prec + (other.lowest() or 0))
        if other.prec is not None:
            precs.append(other.prec + (self.lowest() or 0))
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea * (den // self.den) + eb * (den // other.den)
                out[e] = out.get(e, F(0)) + ca * cb
        return _Oracle(out, den, min(precs) if precs else None)

    def derivative(self, times):
        return _Oracle(
            {e: c * F(e, self.den) ** times for e, c in self.coeffs.items()},
            self.den,
            self.prec,
        )

    def truncate(self, prec):
        return _Oracle(self.coeffs, self.den, prec)

    def rescale(self, r):
        return _Oracle(
            {e * r.numerator: c for e, c in self.coeffs.items()},
            self.den * r.denominator,
            None if self.prec is None else self.prec * r,
        )

    def normalized(self):
        g = gcd(self.den, *self.coeffs)
        return self.den // g, self.prec, sorted((e // g, c) for e, c in self.coeffs.items())


def _assert_canonical(s):
    assert type(s.den) is int and s.den >= 1
    assert s.cut is None or type(s.cut) is int
    assert s.prec == (None if s.cut is None else F(s.cut, s.den))
    assert type(s.scale) is int and s.scale > 0
    assert all(type(n) is int and n != 0 for n in s.nums.values())
    assert gcd(s.scale, *s.nums.values()) == 1
    assert s.prec is None or all(e < s.prec * s.den for e in s.nums)


_SCALAR = st.integers(-5, 5) | st.builds(
    F,
    st.integers(-(10**12), 10**12),
    st.sampled_from((1, 2, 3, 7, 10**9 + 7, 2**61 - 1)),
)


@settings(deadline=None, max_examples=150)
@given(
    _series(),
    _series(),
    _SCALAR,
    st.integers(0, 3),
    st.sampled_from((F(1), F(2), F(3), F(1, 3), F(2, 3))),
    st.data(),
)
def test_integer_layout_matches_fraction_oracle(f, g, r, times, s, data):
    of, og = _Oracle.of(f), _Oracle.of(g)
    const = _Oracle({0: r}, f.den, None)
    top = 24 * f.den if f.prec is None else (f.prec * f.den).numerator
    cut = F(data.draw(st.integers(-6 * f.den, top)), f.den)
    results = [
        (f + g, of + og),
        (f - g, of - og),
        (-f, -of),
        (f * r, of.scaled(r)),
        (r * f, of.scaled(r)),
        (f + r, of + const),
        (r + f, of + const),
        (f - r, of - const),
        (r - f, const - of),
        (f * g, of * og),
        (f.derivative(times), of.derivative(times)),
        (f.truncate(cut), of.truncate(cut)),
        (f.rescale_exponent(s), of.rescale(s)),
    ]
    for z in (f, g):
        _assert_canonical(z)
    for got, want in results:
        _assert_canonical(got)
        assert (got.den, got.prec, got.coeffs) == (want.den, want.prec, want.coeffs)
        # equal values give the equal layout and the equal hash, also when
        # one of them sits on a grid three times finer
        same = QSeries(want.coeffs, want.den, want.prec)
        assert (same.nums, same.scale) == (got.nums, got.scale)
        finer = QSeries({3 * e: c for e, c in want.coeffs.items()}, 3 * want.den, want.prec)
        assert finer._normalized() == got._normalized()
        assert finer == got and hash(finer) == hash(got)
    # == agrees with the oracle, on unequal and on equal values
    back = (f + g) - g
    assert (back == f) == (_Oracle.of(back).normalized() == of.normalized())
    assert (f == g) == (of.normalized() == og.normalized())
    assert (f == r) == (of.normalized() == _Oracle({0: r}, 1, None).normalized())
    # a series exact to all orders with support in {0} is its constant
    c = QSeries.constant(r, f.den)
    assert c == r and hash(c) == hash(F(r)) and len({c, r}) == 1


@settings(deadline=None, max_examples=150)
@given(_series(), _series(), st.data())
def test_equality_agrees_with_the_normalized_layout(f, g, data):
    # same-grid == compares (cut, scale, nums); it must agree with the
    # cross-grid comparison of _normalized, with the Fraction oracle and with
    # hash, on equal values, on values that differ only in the cutoff and on
    # unrelated ones
    top = 24 * f.den if f.cut is None else f.cut
    cut = F(data.draw(st.integers(-6 * f.den, top)), f.den)
    same_grid = [
        QSeries(f.coeffs, f.den, f.prec),
        f.truncate(cut),
        f * 1,
        (f + f) * F(1, 2),
        -f,
        f.derivative(0),
        QSeries(g.coeffs, f.den, f.prec) if g.den == f.den else f,
        copy.copy(f),
        copy.deepcopy(f),
        pickle.loads(pickle.dumps(f)),
    ]
    for h in same_grid:
        assert h.den == f.den
        want = _Oracle.of(f).normalized() == _Oracle.of(h).normalized()
        assert (f == h) == (f._normalized() == h._normalized()) == want
        assert (h == f) == want
        if want:
            assert hash(f) == hash(h)
    for h in same_grid[-3:]:
        assert type(h) is QSeries
        assert (h.den, h.cut, dict(h.nums), h.scale) == (f.den, f.cut, dict(f.nums), f.scale)
    if f.cut is not None:
        # the same terms on a grid three times finer, cut a third of a step
        # later: a different series, though both cutoffs floor to one step
        finer = {3 * e: c for e, c in f.coeffs.items()}
        later = QSeries(finer, 3 * f.den, F(3 * f.cut + 1, 3 * f.den))
        assert f != later and later != f
        assert f._normalized() != later._normalized()


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: QSeries({0: 1, 1: 2}, den=1.5), TypeError, "den must be an int, not float"),
        (lambda: QSeries({0: 1}, den=F(3)), TypeError, "den must be an int, not Fraction"),
        (lambda: QSeries.from_terms([(0, 1)], 1.5), TypeError, "den must be an int"),
        (lambda: QSeries.zero(2.0, 4), TypeError, "den must be an int"),
        (lambda: QSeries({0: 1}, den=0), ValueError, "den must be a positive integer"),
        (lambda: series([(0, 1)], prec=5).derivative(1.5), TypeError,
         "derivative order must be an int, not float"),
        (lambda: series([(0, 1)], prec=5).derivative(F(1)), TypeError,
         "derivative order must be an int, not Fraction"),
        (lambda: series([(0, 1)], prec=5) ** 1.5, TypeError, "power must be an int, not float"),
        (lambda: series([(0, 1)], prec=5) ** F(2), TypeError, "power must be an int"),
    ],
    ids=[
        "den-float", "den-fraction", "from-terms-den-float", "zero-den-float", "den-zero",
        "derivative-float", "derivative-fraction", "pow-float", "pow-fraction",
    ],
)
def test_bad_grid_or_order_raises(make, error, match):
    # a non-int den would make the cutoff prec * den a non-integer
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize(
    "apply",
    [lambda f: f - "a", lambda f: f - 1.5, lambda f: 1.5 - f],
    ids=["sub-str", "sub-float", "rsub-float"],
)
def test_foreign_operand_in_subtraction_is_not_implemented(apply):
    # Python's own TypeError, naming the operator, once both sides decline
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
        apply(series([(0, 1), (1, 2)], prec=5))
