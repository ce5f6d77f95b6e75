import cmath
import cProfile
import random
from collections import Counter
from fractions import Fraction as F
from itertools import count, product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicforms import _linalg
from cubicforms.exactmath import Cyclotomic
from cubicforms.fqm import (
    E8_GRAM,
    U_GRAM,
    W_GRAM,
    W_PRIME_GRAM,
    DiscriminantForm,
    EvenLattice,
    Mp2Element,
    WeilRep,
    _mat_identity_cyc,
    _mat_mul_cyc,
    _scaled_inverse,
    _short_vector_walk,
    discriminant_form,
    gauss_milgram_check,
    short_vectors,
    w_prime_form,
)
from lattices import direct_sum, lambda0_prime_gram
from test_linalg import fraction_inverse_and_det
from test_package import _fraction_news


def heegner_index(d: int, form=None) -> tuple[F, int]:
    """Map a discriminant d = 0, 2 mod 6 to its series slot (n, coset index):
    n = -d/6 and the coset is (d/2) times the first nonzero class, with the
    gamma and -gamma slots carrying identical coefficients."""
    if d <= 0 or d % 6 not in (0, 2):
        raise ValueError(f"d = {d} is not congruent to 0 or 2 mod 6")
    if form is None:
        form = w_prime_form()
    gamma1 = 1 if form.order > 1 else 0
    return F(-d, 6), form.multiple(gamma1, (d // 2) % form.order)


def negated(form):
    """The form of the negated Gram matrix: WeilRep(negated(F)) is the dual
    representation of F."""
    return discriminant_form([[-x for x in row] for row in form.lattice.gram])


def t_matrix(rep, n=1):
    """rho(T^n): diagonal with entries e(n*q(gamma))."""
    zero = Cyclotomic.zero()
    diag = [Cyclotomic.root_of_unity(n * q) for q in rep.form.qvalues]
    return [[x if i == j else zero for j in range(len(diag))] for i, x in enumerate(diag)]


def random_word_element(rng, max_len=10):
    g = Mp2Element.identity()
    for _ in range(rng.randint(1, max_len)):
        tok = rng.choice(["S", "T", "T-"])
        g = g * (Mp2Element.S() if tok == "S" else Mp2Element.T(1 if tok == "T" else -1))
    return g


class TestLattices:
    def test_e8_is_even_unimodular_positive(self):
        e8 = EvenLattice(E8_GRAM)
        assert e8.det() == 1
        assert e8.signature == (8, 0)

    def test_u_and_w(self):
        assert EvenLattice(U_GRAM).signature == (1, 1)
        assert EvenLattice(W_GRAM).signature == (2, 0)
        assert EvenLattice(W_PRIME_GRAM).signature == (0, 2)

    def test_full_rank22_lattice(self):
        lam = EvenLattice(lambda0_prime_gram())
        assert lam.rank == 22
        assert lam.det() == 3
        assert lam.signature == (2, 20)

    def test_rejects_odd_or_degenerate(self):
        with pytest.raises(ValueError):
            EvenLattice(((1,),))
        with pytest.raises(ValueError):
            EvenLattice(((2, 2), (2, 2)))

    @pytest.mark.parametrize(
        "gram",
        [((F(2), 1), (1, 2)), ((2, F(1, 2)), (F(1, 2), 2)), ((2, True), (True, 2))],
        ids=["integral Fraction", "Fraction", "bool"],
    )
    def test_rejects_an_entry_that_is_not_an_int(self, gram):
        # the elimination takes integer rows only; a Fraction or bool entry
        # is a type error, as it is for --gram
        with pytest.raises(TypeError, match="is not an int"):
            EvenLattice(gram)


class TestDiscriminantForm:
    def test_unimodular_is_trivial(self):
        U = discriminant_form(U_GRAM)
        assert U.order == 1 and U.qvalues == [F(0)]

    def test_w_prime_qvalues(self):
        form = w_prime_form()
        assert form.order == 3
        assert form.qvalues == [F(0), F(2, 3), F(2, 3)]
        assert form.cosets[1] == (F(1, 3), F(1, 3))  # lexicographically first
        assert form.neg(1) == 2

    def test_rank22_matches_rank2(self):
        big = discriminant_form(lambda0_prime_gram())
        assert big.order == 3
        assert big.qvalues == w_prime_form().qvalues

    def test_bvalue_cocycle(self):
        form = w_prime_form()
        for i in range(3):
            for j in range(3):
                lhs = form.bvalue(i, j)
                rhs = (
                    form.qvalue(form.add(i, j)) - form.qvalue(i) - form.qvalue(j)
                ) % 1
                assert lhs == rhs

    @pytest.mark.parametrize(
        "gram", [W_PRIME_GRAM, U_GRAM, E8_GRAM, W_GRAM], ids=["W'", "U", "E8", "W"]
    )
    def test_gauss_milgram(self, gram):
        assert gauss_milgram_check(discriminant_form(gram))


def _int_det(m) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _int_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def _random_even_grams(seed: int, how_many: int):
    """Distinct seeded even Gram matrices of rank 1 to 3 with 0 < |det| <= 60."""
    rng = random.Random(seed)
    out = []
    while len(out) < how_many:
        n = rng.randint(1, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        gram = tuple(tuple(row) for row in g)
        if 0 < abs(_int_det(g)) <= 60 and gram not in out:
            out.append(gram)
    return out


ORACLE_GRAMS = _random_even_grams(20261018, 36)


def _brute_force_cosets(gram) -> set:
    """{frac(G^-1 x) : x in [0, |det|)^n}, with G^-1 = adj(G) / det taken in
    integers: every dual vector is G^-1 x for an integral x, and |det| * G^-1
    is integral, so x mod |det| already reaches every coset."""
    n, d = len(gram), _int_det(gram)
    size, sign = abs(d), (1 if d > 0 else -1)
    adj = [
        [
            (-1) ** (i + j)
            * _int_det([row[:i] + row[i + 1 :] for k, row in enumerate(gram) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    nums = {
        tuple(sign * sum(a * xj for a, xj in zip(adj_row, x)) % size for adj_row in adj)
        for x in product(range(size), repeat=n)
    }
    return {tuple(F(v, size) for v in num) for num in nums}


def _frac(v) -> tuple:
    return tuple(F(x) % 1 for x in v)


class TestDiscriminantFormBruteForce:
    """Every group operation of ``DiscriminantForm`` against plain vector
    arithmetic mod 1 on a brute-force list of the cosets."""

    def test_sample_is_mixed(self):
        ranks = {len(g) for g in ORACLE_GRAMS}
        definite = [0 in EvenLattice(g).signature for g in ORACLE_GRAMS]
        assert ranks == {1, 2, 3}
        assert any(definite) and not all(definite)
        assert max(abs(_int_det(g)) for g in ORACLE_GRAMS) > 20

    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_cosets_and_labels(self, gram):
        form = discriminant_form(gram)
        cosets = _brute_force_cosets(gram)
        zero = (F(0),) * len(gram)
        assert form.order == len(cosets) == abs(_int_det(gram))
        assert form.cosets == [zero] + sorted(cosets - {zero})

    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_group_law_and_qvalues(self, gram):
        form = discriminant_form(gram)
        reps = form.cosets
        index = {rep: i for i, rep in enumerate(reps)}
        for i, v in enumerate(reps):
            assert form.qvalues[i] == sum(
                x * gram[r][s] * y for r, x in enumerate(v) for s, y in enumerate(v)
            ) / 2 % 1
            assert form.neg(i) == index[_frac(-x for x in v)]
            for m in range(-4, 7):
                assert form.multiple(i, m) == index[_frac(m * x for x in v)], m
            order = next(m for m in count(1) if all((m * x).denominator == 1 for x in v))
            assert form.element_order(i) == order
            for j, w in enumerate(reps):
                assert form.add(i, j) == index[_frac(x + y for x, y in zip(v, w))]


def test_level_is_lcm_of_qvalue_denominators():
    # the level read off G^-1 against its definition on the listed cosets
    for gram in ORACLE_GRAMS + [W_PRIME_GRAM, U_GRAM, E8_GRAM, lambda0_prime_gram()]:
        form = discriminant_form(gram)
        assert form.level == lcm(1, *(q.denominator for q in form.qvalues)), gram


class _FractionForm:
    """The construction the integer form replaced, kept as its oracle: the
    closure of the columns of G^-1 under addition mod 1, breadth first, on
    ``Fraction`` tuples, with every value read off those tuples."""

    def __init__(self, gram):
        lattice = EvenLattice(gram)
        self.lattice = lattice
        dual, det = fraction_inverse_and_det(gram)
        self.level = lcm(
            1,
            *((x / 2 if i == j else x).denominator
              for i, row in enumerate(dual) for j, x in enumerate(row)),
        )
        zero = tuple(F(0) for _ in dual)
        gens = {_frac(col) for col in zip(*dual)} - {zero}
        reps, frontier = {zero}, [zero]
        while frontier:
            found = []
            for rep in frontier:
                for g in gens:
                    s = _frac(a + b for a, b in zip(rep, g))
                    if s not in reps:
                        reps.add(s)
                        found.append(s)
            frontier = found
        self.order = len(reps)
        assert self.order == abs(det)
        self.cosets = [zero] + sorted(reps - {zero})
        self._index = {rep: i for i, rep in enumerate(self.cosets)}
        self.qvalues = [self._pair(rep, rep) / 2 % 1 for rep in self.cosets]
        self._residues = [((-q) % 1).as_integer_ratio() for q in self.qvalues]
        self._neg = [self.multiple(i, -1) for i in range(self.order)]

    def add(self, i, j):
        return self._index[_frac(a + b for a, b in zip(self.cosets[i], self.cosets[j]))]

    def multiple(self, i, m):
        return self._index[_frac(m * x for x in self.cosets[i])]

    def element_order(self, i):
        return lcm(1, *(x.denominator for x in self.cosets[i]))

    def bvalue(self, i, j):
        return self._pair(self.cosets[i], self.cosets[j]) % 1

    def _pair(self, x, y):
        g = self.lattice.gram
        return sum((x[i] * g[i][j] * y[j] for i in range(len(g)) for j in range(len(g))), F(0))


@st.composite
def small_even_grams(draw):
    """A nondegenerate even Gram matrix of rank 1 to 4 with |det| <= 48, with
    a nonzero off-diagonal entry from rank 2 on; definite and indefinite."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(n == 1 or any(g[i][j] for i in range(n) for j in range(n) if i != j))
    assume(0 < abs(_int_det(g)) <= 48)
    return tuple(map(tuple, g))


class TestIntegerFormAgainstFractionOracle:
    @settings(deadline=None, max_examples=60)
    @given(small_even_grams())
    @example(((0, 2), (2, 0)))  # U(2): the level comes from the off-diagonal
    @example(U_GRAM)
    def test_every_value_matches(self, gram):
        form, oracle = DiscriminantForm(EvenLattice(gram)), _FractionForm(gram)
        for name in ("order", "level", "cosets", "qvalues", "_residues", "_neg"):
            assert getattr(form, name) == getattr(oracle, name), name
        n = form.order
        for i in range(n):
            assert form.neg(i) == oracle._neg[i]
            assert form.element_order(i) == oracle.element_order(i)
            for m in range(-3, 5):
                assert form.multiple(i, m) == oracle.multiple(i, m), m
            for j in range(n):
                assert form.add(i, j) == oracle.add(i, j), (i, j)
                assert form.bvalue(i, j) == oracle.bvalue(i, j), (i, j)

    def test_strategy_is_mixed(self):
        grams = []

        @settings(derandomize=True, database=None, max_examples=200)
        @given(small_even_grams())
        def draw(gram):
            grams.append(gram)

        draw()
        ranks = {len(g) for g in grams}
        signatures = {EvenLattice(g).signature for g in grams}
        assert ranks == {1, 2, 3, 4}
        assert any(0 in s for s in signatures) and not all(0 in s for s in signatures)

    @settings(deadline=None, max_examples=30)
    @given(small_even_grams())
    def test_construction_builds_few_fractions_per_coset(self, gram):
        # beyond the Fractions of its one elimination (pinned in
        # test_linalg), building the form makes at most rank + 2 per coset:
        # the coset entries and q-values share one Fraction per value
        lattice = EvenLattice(gram)
        forms = []
        built = _fraction_news(lambda: forms.append(DiscriminantForm(lattice)))
        elimination = _fraction_news(lambda: _scaled_inverse(gram))
        assert built - elimination <= (len(gram) + 2) * forms[0].order, built


class TestHeegnerIndex:
    def test_examples(self):
        assert heegner_index(6) == (F(-1), 0)
        assert heegner_index(8) == (F(-4, 3), 1)
        assert heegner_index(2) == (F(-1, 3), 1)

    @pytest.mark.parametrize("d", [1, 3, 4, 5, 7, 9, 10, 16])
    def test_rejects_bad_discriminants(self, d):
        with pytest.raises(ValueError):
            heegner_index(d)

    def test_slot_is_never_the_mirror_coset(self):
        # valid discriminants give d/2 = 0 or 1 mod 3, so the index lands on
        # the zero class or gamma_1; the gamma_2 slot is reached only through
        # the gamma <-> -gamma identification
        form = w_prime_form()
        for d in (2, 6, 8, 12, 14, 18, 20, 26):
            n, idx = heegner_index(d)
            assert n == F(-d, 6)
            assert idx in (0, 1)
            assert idx == (d // 2) % 3


class TestMp2:
    def test_s_squared_and_center(self):
        S = Mp2Element.S()
        s2 = S * S
        assert s2.matrix == (-1, 0, 0, -1) and s2.eps == 1
        s4 = s2 * s2
        assert s4.matrix == (1, 0, 0, 1) and s4.eps == -1
        s8 = s4 * s4
        assert s8 == Mp2Element.identity()

    def test_word_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_word_element(rng)
            prod = Mp2Element.identity()
            for kind, n in g.word_in_generators():
                prod = prod * (Mp2Element.T(n) if kind == "T" else Mp2Element.S())
            assert prod == g

    def test_word_of_gamma_upper3_generator(self):
        g = Mp2Element(1, 0, -1, 1)
        prod = Mp2Element.identity()
        for kind, n in g.word_in_generators():
            prod = prod * (Mp2Element.T(n) if kind == "T" else Mp2Element.S())
        assert prod == g


def float_cocycle_product(x, y):
    """x*y with the branch decided in complex floats at tau = i: the rule the
    exact cocycle replaced, kept as its reference."""
    a, b, c, d = (
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )
    ratio = x.phi(y.act(1j)) * y.phi(1j) / cmath.sqrt(c * 1j + d)
    eps = 1 if abs(ratio - 1) < 1e-9 else -1
    assert abs(ratio - eps) < 1e-9, ratio
    return Mp2Element(a, b, c, d, eps)


def short_word_elements(length=6):
    """Every element reached by words of length <= length in S, T, T^-1 and
    the central (I, -1), multiplied by the float reference."""
    gens = (Mp2Element.S(), Mp2Element.T(1), Mp2Element.T(-1), Mp2Element(1, 0, 0, 1, -1))
    seen = {Mp2Element.identity()}
    frontier = list(seen)
    for _ in range(length):
        frontier = [float_cocycle_product(g, h) for g in frontier for h in gens]
        frontier = [g for g in set(frontier) if g not in seen]
        seen.update(frontier)
    return sorted(seen, key=lambda g: (*g.matrix, g.eps))


def sl2_elements(bound):
    """Elements of Mp2(Z) with entries up to about bound, both branches."""

    def build(a, c, k, eps):
        g = gcd(a, c) or 1
        a, c = (a // g, c // g) if a or c else (1, 0)
        # extended Euclid: a*x0 + c*y0 = 1, so (a, -y0 + k*a; c, x0 + k*c) has det 1
        x0, y0, r0, r1, x1, y1 = 1, 0, a, c, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        x0, y0 = x0 * r0, y0 * r0  # r0 = +-1
        return Mp2Element(a, -y0 + k * a, c, x0 + k * c, eps)

    ints = st.integers(-bound, bound)
    return st.builds(build, ints, ints, st.integers(-3, 3), st.sampled_from((1, -1)))


class TestMp2Cocycle:
    def test_exact_rule_equals_float_rule_on_short_words(self):
        elements = short_word_elements()
        assert len(elements) == 245
        for x in elements:
            for y in elements:
                assert x * y == float_cocycle_product(x, y), (x, y)

    @settings(max_examples=200, deadline=None)
    @given(sl2_elements(10**50), sl2_elements(10**50), sl2_elements(10**50))
    def test_associative_at_50_digits(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=200, deadline=None)
    @given(sl2_elements(10**50))
    def test_s4_is_central_sign_and_s8_identity_at_50_digits(self, x):
        S = Mp2Element.S()
        acc = x
        for _ in range(4):
            acc = acc * S
        assert acc == Mp2Element(x.a, x.b, x.c, x.d, -x.eps)
        for _ in range(4):
            acc = acc * S
        assert acc == x

    def test_long_product_past_float_range(self):
        # the float rule raised OverflowError at step 49 of this product
        step = Mp2Element.T(10**6) * Mp2Element.S() * Mp2Element.T(-3) * Mp2Element.S()
        seq = Mp2Element.identity()
        for n in range(1, 65):
            if n <= 48:
                assert seq * step == float_cocycle_product(seq, step), n
            seq = seq * step
        sq = step
        for _ in range(6):
            sq = sq * sq
        assert seq == sq


class TestWeilRep:
    def test_t_matrix_values(self, w_prime):
        T = t_matrix(WeilRep(w_prime))
        assert T[0][0] == 1
        assert T[1][1] == Cyclotomic.root_of_unity(F(-1, 3))
        assert T[2][2] == Cyclotomic.root_of_unity(F(-1, 3))

    def test_s_matrix_first_column(self, w_prime):
        rep = WeilRep(w_prime)
        S = rep.s_matrix()
        expected = (
            Cyclotomic.root_of_unity(F(1, 4)) * Cyclotomic.sqrt_int(3) * F(1, 3)
        )
        for i in range(3):
            assert S[i][0] == expected

    def test_s_powers(self, w_prime):
        rep = WeilRep(w_prime)
        S = rep.s_matrix()
        acc = _mat_identity_cyc(3)
        for _ in range(8):
            acc = _mat_mul_cyc(acc, S)
        assert acc == _mat_identity_cyc(3)

    def test_s_squared_is_signed_flip(self, w_prime):
        # rho(S)^2 sends v_gamma to -v_{-gamma} for this signature
        rep = WeilRep(w_prime)
        S = rep.s_matrix()
        sq = _mat_mul_cyc(S, S)
        for i in range(3):
            for j in range(3):
                want = -1 if w_prime.neg(j) == i else 0
                assert sq[i][j] == Cyclotomic.from_rational(want)

    def test_unitary_and_homomorphic_50_words(self, w_prime):
        rng = random.Random(20240817)
        for form in (w_prime, negated(w_prime)):
            rep = WeilRep(form)
            for _ in range(25):
                g1 = random_word_element(rng, 6)
                g2 = random_word_element(rng, 6)
                assert rep.is_unitary(rep.rho(g1))
                assert rep.rho(g1 * g2) == _mat_mul_cyc(rep.rho(g1), rep.rho(g2))

    def test_word_path_is_branch_sensitive_consistently(self, w_prime):
        # the center (I, -1) acts trivially here, so both branches agree
        rep = WeilRep(w_prime)
        plus = rep.rho(Mp2Element(2, 1, 1, 1, 1))
        minus = rep.rho(Mp2Element(2, 1, 1, 1, -1))
        assert plus == minus

    @pytest.mark.parametrize(
        "gram", [W_PRIME_GRAM, W_GRAM, ((2, 1, 0), (1, 2, 0), (0, 0, 4))],
        ids=["w_prime", "W", "order12"],
    )
    def test_negated_form_gives_the_conjugate_representation(self, gram):
        # rho*_F = rho_{-F}, entry by entry in one coset order; the rank-3
        # form has odd signature, so the metaplectic sign enters
        form = discriminant_form(gram)
        rep, dual = WeilRep(form), WeilRep(negated(form))
        assert dual.form.cosets == form.cosets
        rng = random.Random(37)
        for _ in range(100):
            g = random_word_element(rng, 8)
            assert dual.rho(g) == [[z.conjugate() for z in row] for row in rep.rho(g)]

    def test_takes_no_dual_flag(self, w_prime):
        with pytest.raises(TypeError):
            WeilRep(w_prime, dual=True)

    @pytest.mark.parametrize("negate", [False, True])
    def test_editing_a_returned_matrix_leaves_the_cache(self, w_prime, negate):
        # rho once handed out the list it cached: an edit reached every later rho(S)
        form = negated(w_prime) if negate else w_prime
        rep = WeilRep(form)
        elements = (Mp2Element.S(), Mp2Element(2, 1, 1, 1, 1), Mp2Element.T(1))
        for g in elements:
            for _ in range(2):  # the miss that fills the cache, then a hit
                m = rep.rho(g)
                m[0][0] = Cyclotomic.zero()
                m[1] = []
                m.append([])
        for g in elements:
            assert rep.rho(g) == WeilRep(form).rho(g)
        assert rep.rho(Mp2Element.S()) == rep.s_matrix()


class TestGamma0ClosedForm:
    def test_t_case(self, w_prime):
        rep = WeilRep(negated(w_prime))
        assert rep.rho_gamma0_formula(Mp2Element.T(1)) == t_matrix(rep)

    def test_lower_unipotent_is_identity(self, w_prime):
        rep = WeilRep(negated(w_prime))
        assert rep.rho_gamma0_formula(Mp2Element(1, 0, 3, 1)) == _mat_identity_cyc(3)

    def test_against_word_decomposition(self, w_prime):
        rng = random.Random(11)
        for form in (w_prime, negated(w_prime)):
            rep = WeilRep(form)
            found = 0
            while found < 20:
                g = random_word_element(rng)
                if g.c % 3 == 0:
                    found += 1
                    assert rep.rho(g) == rep.rho_gamma0_formula(g)

    def test_rejects_outside_gamma0(self, w_prime):
        rep = WeilRep(negated(w_prime))
        with pytest.raises(ValueError):
            rep.rho_gamma0_formula(Mp2Element.S())

    @pytest.mark.parametrize(
        "g", [Mp2Element(1, 0, 3, 1, -1), Mp2Element(4, 1, 3, 1, -1)], ids=["lower", "general"]
    )
    def test_branch_minus_one(self, w_prime, g):
        # the closed form ignores eps: on an odd-order form (I, -1) acts as I
        for form in (w_prime, negated(w_prime)):
            rep = WeilRep(form)
            assert rep.rho_gamma0_formula(g) == rep.rho(g)
            assert rep.rho(g) == rep.rho(Mp2Element(*g.matrix))


class TestShortVectors:
    def test_a2_root_system(self):
        lat = EvenLattice(W_GRAM)
        roots = [v for v, n in short_vectors(lat, (0, 0), F(2)) if n == 2]
        assert len(roots) == 6

    def test_e8_root_count(self):
        lat = EvenLattice(E8_GRAM)
        vecs = short_vectors(lat, (0,) * 8, F(2))
        assert sum(1 for _, n in vecs if n == 2) == 240
        assert sum(1 for _, n in vecs if n == 0) == 1

    def test_shifted_coset_minimal_vectors(self):
        lat = EvenLattice(W_GRAM)
        form = discriminant_form(W_GRAM)
        vecs = short_vectors(lat, form.cosets[1], F(2, 3))
        assert len(vecs) == 3
        assert all(n == F(2, 3) for _, n in vecs)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            short_vectors(EvenLattice(U_GRAM), (0, 0), F(2))

    @pytest.mark.parametrize(
        "gram",
        [U_GRAM, W_PRIME_GRAM, ((0, 1), (1, 2)), direct_sum(W_GRAM, U_GRAM)],
        ids=["U", "W'", "zero-leading-diagonal", "W+U"],
    )
    def test_rejects_every_pivot_that_is_not_positive_or_in_order(self, gram):
        # ((0, 1), (1, 2)) pivots out of order on its second diagonal entry
        with pytest.raises(ValueError, match="not positive definite"):
            _short_vector_walk(EvenLattice(gram), (0,) * len(gram), 2, [])

    @pytest.mark.parametrize(
        "offset, bound",
        [((0.5, 0), 2), ((0, 0), 2.0), ((F(1, 3), 0.0), F(2)), (("1/3", 0), 2)],
    )
    def test_rejects_inexact_offset_or_bound(self, offset, bound):
        # a float offset (0.5, 0) with bound 2 used to return 4 vectors
        with pytest.raises(TypeError, match="int or a Fraction"):
            short_vectors(EvenLattice(W_GRAM), offset, bound)

    @pytest.mark.parametrize("offset", [(F(1, 2),), (0, 0, F(1, 2))], ids=["short", "long"])
    @pytest.mark.parametrize("out", [list, dict])
    def test_offset_length_must_be_the_rank(self, offset, out):
        # a longer offset was cut to the rank (the 7 vectors of (0, 0) at
        # bound 4, its extra denominator still in d); a shorter one raised
        # IndexError
        message = f"offset has {len(offset)} entries for a lattice of rank 2"
        with pytest.raises(ValueError, match=message):
            _short_vector_walk(EvenLattice(W_GRAM), offset, 4, out())
        if out is list:
            with pytest.raises(ValueError, match=message):
                short_vectors(EvenLattice(W_GRAM), offset, 4)


def _fraction_det(m):
    """Determinant by Fraction elimination, kept apart from the library."""
    m = [[F(x) for x in row] for row in m]
    n, det = len(m), F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _search_box(gram, offset, bound):
    """Integer ranges for x that hold every v = offset + x with <v,v> <=
    bound: on that ellipsoid v_i^2 <= bound * (G^-1)_ii, a cofactor ratio."""
    n = len(gram)
    det = _fraction_det(gram)
    ranges = []
    for i in range(n):
        minor = [[gram[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        reach = isqrt(max(0, int(bound * _fraction_det(minor) / det))) + 1
        o = offset[i]
        ranges.append(range(-int(o) - reach - 1, -int(o) + reach + 2))
    return ranges


def _brute_short_vectors(gram, offset, bound):
    n = len(gram)
    out = []
    box = _search_box(gram, offset, bound)
    axes = [[o + x for x in r] for o, r in zip(offset, box)]
    for v in product(*axes):
        norm = sum(v[r] * gram[r][c] * v[c] for r in range(n) for c in range(n))
        if norm <= bound:
            out.append((v, norm))
    return out


@st.composite
def _positive_grams(draw, ranks=st.integers(1, 4)):
    """Even positive definite Gram matrices: a diagonally dominant even
    matrix, then congruence by elementary integer matrices, which keeps it
    even and positive definite but skews the basis."""
    n = draw(ranks)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    for i in range(n):
        g[i][i] = 2 * ((sum(abs(x) for x in g[i]) + 2) // 2 + draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        for r in range(n):  # column j += c * column i, then row j += c * row i
            g[r][j] += c * g[r][i]
        for r in range(n):
            g[j][r] += c * g[i][r]
    return tuple(tuple(row) for row in g)


@st.composite
def _positive_lattices(draw):
    """A Gram matrix of ``_positive_grams`` (rank 1-4), an offset and a
    bound."""
    g = draw(_positive_grams())
    n = len(g)
    denom = st.sampled_from((1, 2, 3, 6))
    offset = tuple(F(draw(st.integers(-6, 6)), draw(denom)) for _ in range(n))
    bound = F(draw(st.integers(-2, 16)), draw(denom))
    return g, offset, bound


@settings(deadline=None, max_examples=120)
@given(_positive_lattices())
def test_short_vectors_match_brute_force(case):
    gram, offset, bound = case
    assume(prod(map(len, _search_box(gram, offset, bound))) <= 2000)
    ref = _brute_short_vectors(gram, offset, bound)
    got = short_vectors(EvenLattice(gram), offset, bound)
    assert sorted(got) == sorted(ref)
    assert all(isinstance(c, F) for v, _ in got for c in v)


@settings(deadline=None, max_examples=120)
@given(_positive_lattices())
def test_scaled_walk_is_the_integer_view(case):
    # leaf by leaf: y = d*v in ints, y^T G y = d^2 <v,v>, d the offset's denominator
    gram, offset, bound = case
    lattice = EvenLattice(gram)
    d, leaves = _short_vector_walk(lattice, offset, bound, [])
    assert d == lcm(1, *(o.denominator for o in offset))
    got = short_vectors(lattice, offset, bound)
    assert len(leaves) == len(got)
    for (y, ygy), (v, norm) in zip(leaves, got):
        assert all(type(yk) is int for yk in y) and type(ygy) is int
        assert y == tuple(d * vk for vk in v)
        assert ygy == d * d * norm


def _fraction_ldl(gram):
    """The exact LDL^T form Q(x) = sum_i diag_i (x_i + sum_{j>i} coef_ij
    x_j)^2 by Fraction elimination, as the walk computed it before it read
    the form off ``_linalg.symmetric_reduce``; coef is n x n, zero on and
    below the diagonal."""
    n = len(gram)
    a = [[F(gram[i][j]) for j in range(n)] for i in range(n)]
    coef = [[F(0)] * n for _ in range(n)]
    diag = [F(0)] * n
    for i in range(n):
        diag[i] = a[i][i]
        if diag[i] <= 0:
            raise ValueError("lattice is not positive definite")
        for j in range(i + 1, n):
            coef[i][j] = a[i][j] / diag[i]
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                a[r][s] -= diag[i] * coef[i][r] * coef[i][s]
    return diag, coef


@settings(deadline=None, max_examples=100)
@given(_positive_grams(st.integers(1, 8)))
@example(E8_GRAM)
@example(direct_sum(W_GRAM, E8_GRAM))
def test_symmetric_reduce_gives_the_fraction_ldl(gram):
    # diag_k = row[k] / prev and coef_kj = row[j] / row[k] on the pivot rows
    n = len(gram)
    steps = _linalg.symmetric_reduce(gram)
    assert [k for k, _, _ in steps] == list(range(n))
    diag = [F(row[k], prev) for k, row, prev in steps]
    coef = [[F(row[j], row[k]) if j > k else F(0) for j in range(n)] for k, row, _ in steps]
    assert (diag, coef) == _fraction_ldl(gram)


def test_e8_walk_builds_few_fractions():
    # the window comes off integer pivot rows, the offset entries and the
    # bound are read as integer ratios, and the walk itself runs in integers,
    # so it builds no Fraction from int inputs or from Fraction inputs
    lattice = EvenLattice(E8_GRAM)
    leaves = []
    built = _fraction_news(lambda: leaves.append(_short_vector_walk(lattice, (0,) * 8, 8, [])))
    assert len(leaves[0][1]) == 26641
    assert built == 0, built
    offset, bound = (F(0),) * 8, F(8)
    built = _fraction_news(lambda: leaves.append(_short_vector_walk(lattice, offset, bound, [])))
    assert leaves[1] == leaves[0]
    assert built == 0, built


def _walk_oracle(lattice, offset, bound):
    """The walk as it was before the leaf norm was accumulated level by
    level: one recursive call per leaf, and y^T G y summed over the whole
    Gram matrix there."""
    n = lattice.rank
    gram = lattice.gram
    offset = [F(x) for x in offset]
    bound = F(bound)
    diag, coef = _fraction_ldl(gram)
    d = lcm(1, *(o.denominator for o in offset))
    out = []
    if bound < 0:
        return d, out
    base = [int(o * d) for o in offset]
    mults = [lcm(1, *(c.denominator for c in coef[i][i + 1 :])) for i in range(n)]
    weights = [diag[i] / (d * mults[i]) ** 2 for i in range(n)]
    scale = lcm(bound.denominator, *(w.denominator for w in weights))
    levels = [
        (
            d * li,
            int(weights[i] * scale),
            li * base[i],
            [(j, int(coef[i][j] * li)) for j in range(i + 1, n) if coef[i][j]],
        )
        for i, li in enumerate(mults)
    ]
    y = [0] * n
    den_bound, cap = bound.denominator, bound.numerator * d * d

    def recurse(i, rem):
        if i < 0:
            ygy = sum(yi * sum(g * yj for g, yj in zip(row, y)) for yi, row in zip(y, gram))
            if ygy * den_bound <= cap:
                out.append((tuple(y), ygy))
            return
        di, wi, c, ks = levels[i]
        c += sum(k * y[j] for j, k in ks)
        t_max = isqrt(rem // wi)
        for xi in range(-((t_max + c) // di), (t_max - c) // di + 1):
            t = di * xi + c
            y[i] = base[i] + d * xi
            recurse(i - 1, rem - wi * t * t)

    recurse(n - 1, int(bound * scale))
    return d, out


@settings(deadline=None, max_examples=120)
@given(_positive_lattices())
@example(((), (), F(2)))
@example(((), (), F(-1, 3)))
@example((W_GRAM, (F(1, 3), F(2, 3)), F(-2, 3)))
def test_scaled_walk_matches_per_leaf_oracle(case):
    # the leaves in order, and the binned walk's counts are the oracle
    # leaves' norms counted: {0: 1} at rank 0 and {} under a negative bound
    gram, offset, bound = case
    lattice = EvenLattice(gram)
    d, leaves = _walk_oracle(lattice, offset, bound)
    assert _short_vector_walk(lattice, offset, bound, []) == (d, leaves)
    counts = _short_vector_walk(lattice, offset, bound, {})
    assert counts == (d, Counter(ygy for _y, ygy in leaves))
    assert type(counts[1]) is dict
    if not gram:
        assert counts[1] == ({0: 1} if bound >= 0 else {})
    if bound < 0:
        assert counts[1] == {}


def _exact_nodes(lattice, offset, bound):
    """Calls of the walk's level function under the exact window, counted in
    Fractions on the LDL^T form: one for the top level, and one for each x_i
    of a level i >= 1 with diag_i * (x_i + c_i)^2 within what the levels
    above leave of the bound, c_i = offset_i + sum_{j>i} coef_ij * v_j."""
    diag, coef = _fraction_ldl(lattice.gram)
    n = lattice.rank
    offset = [F(x) for x in offset]
    v = [F(0)] * n
    nodes = 0

    def level(i, rem):
        nonlocal nodes
        nodes += 1
        if i == 0:
            return
        c = offset[i] + sum(coef[i][j] * v[j] for j in range(i + 1, n))
        low = -c.numerator // c.denominator  # floor(-c): the window is an interval about -c
        for x, step in ((low, -1), (low + 1, 1)):
            while diag[i] * (x + c) ** 2 <= rem:
                v[i] = offset[i] + x
                level(i - 1, rem - diag[i] * (x + c) ** 2)
                x += step

    if n and bound >= 0:
        level(n - 1, F(bound))
    return nodes


def _walk_calls(lattice, offset, bound) -> int:
    """Calls of the walk's level function, counted with cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    _short_vector_walk(lattice, offset, bound, [])
    profiler.disable()
    return sum(
        e.callcount
        for e in profiler.getstats()
        if getattr(e.code, "co_name", "") == "walk"
        and getattr(e.code, "co_filename", "").endswith("fqm.py")
    )


@settings(deadline=None, max_examples=60)
@given(_positive_lattices())
@example((E8_GRAM, (0,) * 8, 4))
@example((W_GRAM, (F(1, 3), F(2, 3)), F(20, 3)))
def test_walk_visits_exactly_the_nodes_of_the_exact_window(case):
    # a looser window keeps the leaves, which the leaf check filters, but
    # visits more nodes; a tighter one loses leaves
    gram, offset, bound = case
    lattice = EvenLattice(gram)
    assert _walk_calls(lattice, offset, bound) == _exact_nodes(lattice, offset, bound)


D4_GRAM = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def _ldl_factor(gram, i, j):
    """coef_ij of the exact LDL^T form that the walk centres its windows on."""
    n = len(gram)
    a = [[F(x) for x in row] for row in gram]
    for r in range(i):
        for s in range(r + 1, n):
            for t in range(r + 1, n):
                a[s][t] -= a[r][s] * a[r][t] / a[r][r]
    return a[i][j] / a[i][i]


@pytest.mark.parametrize(
    "gram, fill",
    [
        # G_12 = 0 while the LDL factor there is -1/3
        (((2, 1, 1), (1, 2, 0), (1, 0, 2)), (1, 2)),
        (D4_GRAM, (2, 3)),
        # the converse: G_12 = 2 while the LDL factor there cancels to 0
        (((2, 2, 2), (2, 4, 2), (2, 2, 4)), (1, 2)),
    ],
)
@pytest.mark.parametrize("offset_num, den, bound", [(0, 1, 8), (1, 2, F(20, 3)), (2, 3, 6)])
def test_merged_row_keeps_factor_and_gram_entries(gram, fill, offset_num, den, bound):
    """Each level's row of (j, K_ij, 2 G_ij) must keep j where either the LDL
    factor or the Gram entry is nonzero; these cases have one without the
    other, so a row filtered on one alone drifts from the oracle."""
    i, j = fill
    assert (gram[i][j] == 0) != (_ldl_factor(gram, i, j) == 0)
    lattice = EvenLattice(gram)
    offset = tuple(F(offset_num * (k + 1), den) for k in range(len(gram)))
    got = _short_vector_walk(lattice, offset, bound, [])
    assert got[1] and got == _walk_oracle(lattice, offset, bound)


def test_e8_walk_norms_and_order_at_bound_8():
    d, leaves = _short_vector_walk(EvenLattice(E8_GRAM), (0,) * 8, 8, [])
    assert d == 1 and len(leaves) == 26641
    for y, ygy in leaves:
        assert ygy == sum(y[i] * E8_GRAM[i][j] * y[j] for i in range(8) for j in range(8))
    # the last coordinate varies slowest and every coordinate ascends
    assert leaves == sorted(leaves, key=lambda leaf: leaf[0][::-1])


def test_rank_zero_walk():
    assert short_vectors(EvenLattice(()), (), 2) == [((), 0)]
    assert short_vectors(EvenLattice(()), (), 0) == [((), 0)]
    assert short_vectors(EvenLattice(()), (), -1) == []
    assert _short_vector_walk(EvenLattice(()), (), F(-1, 3), []) == (1, [])


def _rho_oracle(rep, g):
    """rho(g) as a product of full generator matrices, one per letter of the
    word, with rho(T^n) built from e(n*q(gamma))."""
    order = rep.form.order
    zero = Cyclotomic.zero()
    out = _mat_identity_cyc(order)
    for kind, n in g.word_in_generators():
        if kind == "S":
            m = rep.s_matrix()
        else:
            m = [[zero] * order for _ in range(order)]
            for i in range(order):
                m[i][i] = Cyclotomic.root_of_unity(n * rep.form.qvalue(i))
        out = _mat_mul_cyc(out, m)
    return out


@pytest.mark.parametrize("negate", [False, True])
def test_rho_matches_full_generator_product(negate):
    rng = random.Random(1207)
    rep = WeilRep(negated(w_prime_form()) if negate else w_prime_form())
    for _ in range(120):
        g = random_word_element(rng, 12)
        if rng.random() < 0.3:  # long T steps too
            g = g * Mp2Element.T(rng.randint(-40, 40))
        got = rep.rho(g)
        assert [[(z.nums, z.den) for z in row] for row in got] == [
            [(z.nums, z.den) for z in row] for row in _rho_oracle(rep, g)
        ]


def _mat_mul_sum_of_products(x, y):
    """The matrix product with one Cyclotomic product and one reduced sum per
    term, as it was computed before the fused dot product."""
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), Cyclotomic.zero()) for j in range(n)]
        for i in range(n)
    ]


_WORD = st.lists(st.sampled_from(("S", "T", "T-")), min_size=1, max_size=8)


def _word_element(word):
    g = Mp2Element.identity()
    for tok in word:
        g = g * (Mp2Element.S() if tok == "S" else Mp2Element.T(1 if tok == "T" else -1))
    return g


@settings(deadline=None, max_examples=100)
@given(_WORD, _WORD, st.booleans())
def test_mat_mul_matches_sum_of_products(w1, w2, negate):
    rep = WeilRep(negated(w_prime_form()) if negate else w_prime_form())
    a, b = rep.rho(_word_element(w1)), rep.rho(_word_element(w2))
    got = _mat_mul_cyc(a, b)
    want = _mat_mul_sum_of_products(a, b)
    assert [[(z.nums, z.den) for z in row] for row in got] == [
        [(z.nums, z.den) for z in row] for row in want
    ]



@pytest.mark.parametrize(
    "gram", [W_GRAM, U_GRAM, E8_GRAM, lambda0_prime_gram()], ids=["W", "U", "E8", "lambda0'"]
)
def test_form_takes_inverse_and_det_from_one_elimination(gram, monkeypatch):
    from cubicforms import _linalg
    from cubicforms.fqm import DiscriminantForm

    det = _linalg.det(gram)
    lattice = EvenLattice(gram)
    calls = []
    row_reduce = _linalg.row_reduce
    monkeypatch.setattr(_linalg, "row_reduce", lambda *a: calls.append(a) or row_reduce(*a))
    assert _scaled_inverse(gram)[2] == det
    assert len(calls) == 1
    # the closure is checked against |det G| from the inverse's elimination
    assert DiscriminantForm(lattice).order == abs(det)
    assert len(calls) == 2


def test_order3_form_builds_at_most_six_fractions():
    # one pivot product, and one Fraction per coset entry value and q-value
    lattice = EvenLattice(W_PRIME_GRAM)
    assert _fraction_news(lambda: DiscriminantForm(lattice)) <= 6
