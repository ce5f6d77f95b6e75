import random
from fractions import Fraction as F

import pytest

from cubicforms import schubert
from cubicforms.schubert import (
    ChernSeries,
    RingClassGr36,
    RingClassP5,
    box_partitions,
    chern_invert,
    chern_jet,
    chern_sym3_dual_tautological,
    degree_c6_recurrence,
    degree_c6_segre,
    degree_c8_recurrence,
    degree_c8_segre,
    proj_bundle_power,
    segre_degree,
)

sigma = RingClassGr36.sigma


def _tableau_lr(lam, mu, nu) -> int:
    """Oracle for the Littlewood-Richardson coefficient c^nu_{lam,mu}: the
    number of semistandard skew tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word, counted by direct backtracking;
    the partitions have r parts each."""
    r = len(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    # cells of nu/lam in reverse reading order: rows top to bottom, each row
    # right to left, so the lattice condition can be checked prefix by prefix
    order = [(i, c) for i in range(r) for c in range(nu[i] - 1, lam[i] - 1, -1)]
    filling = {}
    remaining = list(mu)
    counts = [0] * r
    total = 0

    def place(pos: int):
        nonlocal total
        if pos == len(order):
            total += 1
            return
        row, c = order[pos]
        for v in range(r):
            if remaining[v] == 0:
                continue
            if v > 0 and counts[v - 1] <= counts[v]:
                continue  # lattice word fails
            right = filling.get((row, c + 1))
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            above = filling.get((row - 1, c))
            if above is not None and v <= above:
                continue  # columns strictly increase
            filling[(row, c)] = v
            counts[v] += 1
            remaining[v] -= 1
            place(pos + 1)
            del filling[(row, c)]
            counts[v] -= 1
            remaining[v] += 1

    place(0)
    return total


def partitions(largest: int) -> list[tuple[int, int, int]]:
    """The partitions with at most 3 parts, each at most ``largest``."""
    return [
        (a, b, c)
        for a in range(largest + 1)
        for b in range(a + 1)
        for c in range(b + 1)
    ]


def alternant(alpha) -> dict:
    """a_alpha(x1, x2, x3): the six-term sum over S_3 of sign(w) x^w(alpha)."""
    a1, a2, a3 = alpha
    return {
        (a1, a2, a3): 1, (a2, a3, a1): 1, (a3, a1, a2): 1,
        (a2, a1, a3): -1, (a1, a3, a2): -1, (a3, a2, a1): -1,
    }


def e_classes():
    return sigma(1), sigma(1, 1), sigma(1, 1, 1)


# the nine Chern classes of the rank-46 kernel bundle over Gr(3,6), written
# in the generators sigma_1, sigma_11, sigma_111
def kernel_chern_displays():
    e1, e2, e3 = e_classes()
    return {
        1: -10 * e1,
        2: 60 * e1**2 - 15 * e2,
        3: -282 * e1**3 + 189 * e1 * e2 - 27 * e3,
        4: 1149 * e1**4 - 1395 * e1**2 * e2 + 351 * e1 * e3 + 162 * e2**2,
        5: -4272 * e1**5
        + 7911 * e1**3 * e2
        - 2673 * e1**2 * e3
        - 2484 * e1 * e2**2
        + 648 * e2 * e3,
        6: 14932 * e1**6
        - 38268 * e1**4 * e2
        + 15629 * e1**3 * e3
        + 21898 * e1**2 * e2**2
        - 10188 * e1 * e2 * e3
        - 1570 * e2**3
        + 702 * e3**2,
        7: -49996 * e1**7
        + 166590 * e1**5 * e2
        - 77858 * e1**4 * e3
        - 146032 * e1**3 * e2**2
        + 92052 * e1**2 * e2 * e3
        + 28522 * e1 * e2**3
        - 11232 * e1 * e3**2
        - 10206 * e2**2 * e3,
        8: 162369 * e1**8
        - 673530 * e1**6 * e2
        + 348538 * e1**5 * e3
        + 819728 * e1**4 * e2**2
        - 628656 * e1**3 * e2 * e3
        - 293408 * e1**2 * e2**3
        + 103302 * e1**2 * e3**2
        + 189162 * e1 * e2**2 * e3
        + 14583 * e2**4
        - 23490 * e2 * e3**2,
        9: -515886 * e1**9
        + 2580498 * e1**7 * e2
        - 1446718 * e1**6 * e3
        - 4093280 * e1**5 * e2**2
        + 3609936 * e1**4 * e2 * e3
        + 2253992 * e1**3 * e2**3
        - 717984 * e1**3 * e3**2
        - 1983960 * e1**2 * e2**2 * e3
        - 307242 * e1 * e2**4
        + 441774 * e1 * e2 * e3**2
        + 134244 * e2**3 * e3
        - 18954 * e3**3,
    }


class TestGrassmannianRing:
    def test_pieri_square(self):
        assert (sigma(1) * sigma(1)).as_dict() == {(2, 0, 0): 1, (1, 1, 0): 1}

    def test_unit(self):
        one = RingClassGr36.one()
        x = sigma(2, 1) + 3 * sigma(1, 1, 1)
        assert one * x == x

    def test_top_self_intersection(self):
        assert (sigma(1) ** 9).as_dict() == {(3, 3, 3): 42}

    def test_box_has_20_classes(self):
        assert len(box_partitions()) == 20

    def test_poincare_pairing_exhaustive(self):
        for lam in box_partitions():
            comp = tuple(3 - x for x in reversed(lam))
            for mu in box_partitions():
                if sum(mu) != 9 - sum(lam):
                    continue
                got = (
                    RingClassGr36(((lam, 1),)) * RingClassGr36(((mu, 1),))
                ).degree()
                assert got == (1 if mu == comp else 0), (lam, mu)

    def test_lr_associativity_single_rows(self):
        gens = [sigma(1), sigma(2), sigma(3)]
        for a in gens:
            for b in gens:
                for c in gens:
                    assert (a * b) * c == a * (b * c)

    def test_lr_commutes(self):
        rng = random.Random(5)
        parts = box_partitions()
        for _ in range(30):
            lam = RingClassGr36(((rng.choice(parts), rng.randint(-3, 3)),))
            mu = RingClassGr36(((rng.choice(parts), rng.randint(-3, 3)),))
            assert lam * mu == mu * lam

    def test_lr_column_square(self):
        got = (sigma(1, 1) * sigma(1, 1)).as_dict()
        assert got == {(2, 2, 0): 1, (2, 1, 1): 1}

    def test_lr_coefficient_matches_tableau_oracle(self):
        # the table that RingClassGr36.__mul__ reads, here on Gr(3,8)
        parts = partitions(5)
        triples = [
            (lam, mu, nu)
            for lam in parts
            for mu in parts
            for nu in parts
            if sum(nu) == sum(lam) + sum(mu)
        ]
        assert len(triples) == 5402
        got = [dict(schubert._lr_products(lam, mu, 5)).get(nu, 0) for lam, mu, nu in triples]
        for c, (lam, mu, nu) in zip(got, triples):
            assert c == _tableau_lr(lam, mu, nu), (lam, mu, nu)
        assert max(got) > 1

    def test_schur_times_vandermonde_is_alternant(self):
        vandermonde = alternant((2, 1, 0))
        for lam in partitions(6):
            bialternant = alternant((lam[0] + 2, lam[1] + 1, lam[2]))
            assert schubert._poly_mul(schubert._schur(lam), vandermonde) == bialternant, lam


class TestRingInputs:
    @pytest.mark.parametrize("x", [RingClassP5.hyperplane_power(1), sigma(1)], ids=["P5", "Gr36"])
    def test_negative_power_rejected(self, x):
        with pytest.raises(ValueError, match="negative powers"):
            x ** -1

    @pytest.mark.parametrize("x", [RingClassP5.hyperplane_power(1), sigma(1)], ids=["P5", "Gr36"])
    def test_non_int_power_rejected(self, x):
        with pytest.raises(TypeError, match="power must be an int"):
            x ** 2.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RingClassP5({(0,): 1, (5,): 6.5}),
            lambda: RingClassP5.hyperplane_power(1, 2.5),
            lambda: RingClassP5({(0,): True}),
            lambda: sigma(1, coeff=2.5),
            lambda: RingClassGr36((((1, 0, 0), 1), ((2, 0, 0), F(1, 2)))),
        ],
        ids=["P5-float", "P5-hyperplane-float", "P5-bool", "Gr36-float", "Gr36-fraction"],
    )
    def test_non_int_coefficient_rejected(self, build):
        with pytest.raises(TypeError, match="coefficients must be ints"):
            build()

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: RingClassGr36((((0, 1, 0), 1),)), ValueError),
            (lambda: RingClassGr36((((4, 0, 0), 1),)), ValueError),
            (lambda: RingClassGr36((((1, 0), 1),)), ValueError),
            (lambda: RingClassGr36((((1.0, 0, 0), 1),)), TypeError),
            (lambda: sigma(1.5), TypeError),
            (lambda: sigma(True), TypeError),
            (lambda: RingClassP5.hyperplane_power(True), TypeError),
            (lambda: RingClassP5({(6,): 1}), ValueError),
            (lambda: RingClassP5({(1, 0): 1}), ValueError),
            (lambda: RingClassP5({3: 1}), ValueError),
        ],
        ids=[
            "Gr36-not-a-partition", "Gr36-outside-the-box", "Gr36-two-parts",
            "Gr36-float-part-in-the-box", "Gr36-sigma-float", "Gr36-sigma-bool", "P5-bool-power",
            "P5-outside-the-box", "P5-two-parts", "P5-bare-exponent",
        ],
    )
    def test_key_that_is_not_a_class_of_the_ring_rejected(self, build, error):
        # none is a class of its ring; kept, (0, 1, 0) would multiply by sigma_1 to 0
        with pytest.raises(error, match="partition"):
            build()

    def test_list_built_class_is_the_tuple_built_one(self):
        # the pairs are kept as a tuple, as EvenLattice keeps its Gram
        built = RingClassP5([((0,), 1), ((2,), 0)])
        assert built == RingClassP5.one() and hash(built) == hash(RingClassP5.one())
        assert type(built.coeffs) is tuple

    @pytest.mark.parametrize(
        "apply",
        [
            lambda x: x * 2.5,
            lambda x: 2.5 * x,
            lambda x: x + 1,
            lambda x: 1 + x,
            lambda x: x - 1,
            lambda x: x - "a",
            lambda x: x * F(1, 2),
        ],
        ids=["mul-float", "rmul-float", "add-int", "radd-int", "sub-int", "sub-str", "mul-fraction"],
    )
    @pytest.mark.parametrize("x", [RingClassP5.hyperplane_power(1), sigma(1)], ids=["P5", "Gr36"])
    def test_foreign_operand_is_not_implemented(self, x, apply):
        # Python's own TypeError, naming the class, once both sides decline
        with pytest.raises(TypeError, match=f"unsupported operand.*'{type(x).__name__}'"):
            apply(x)

    @pytest.mark.parametrize(
        "apply",
        [
            lambda: RingClassP5.one() * RingClassGr36.one(),
            lambda: RingClassGr36.one() * RingClassP5.one(),
            lambda: RingClassP5.one() + RingClassGr36.one(),
            lambda: RingClassGr36.one() - RingClassP5.one(),
        ],
        ids=["P5-mul-Gr36", "Gr36-mul-P5", "P5-add-Gr36", "Gr36-sub-P5"],
    )
    def test_classes_of_the_two_rings_do_not_mix(self, apply):
        with pytest.raises(TypeError, match="'RingClass(P5|Gr36)' and 'RingClass(Gr36|P5)'"):
            apply()


class Gr24(schubert._GrassmannianClass):
    """H*(Gr(2,4)), the lines of P^3."""

    __slots__ = ("coeffs",)
    R, N = 2, 4


class Gr25(schubert._GrassmannianClass):
    """H*(Gr(2,5)), the lines of P^4."""

    __slots__ = ("coeffs",)
    R, N = 2, 5


class Gr26(schubert._GrassmannianClass):
    """H*(Gr(2,6)), the lines of P^5."""

    __slots__ = ("coeffs",)
    R, N = 2, 6


class TestGenericRing:
    """The ring of Gr36 on other Grassmannians, checked on classical numbers
    it was not built for."""

    @pytest.mark.parametrize(
        "ring, degree",
        [(Gr24, 2), (Gr25, 5), (Gr26, 14), (RingClassGr36, 42), (RingClassP5, 1)],
        ids=["Gr24", "Gr25", "Gr26", "Gr36", "P5"],
    )
    def test_degree_of_the_grassmannian(self, ring, degree):
        # sigma_1^dim counts the standard tableaux of the box
        assert (ring.sigma(1) ** ring.DIM).degree() == degree

    def test_lines_on_a_cubic_surface(self):
        # c_4(Sym^3 S*) on Gr(2,4) = 27 (Eisenbud-Harris, 3264 and All That, ch. 6)
        assert schubert._chern_sym_dual(Gr24, 3).chern(4).degree() == 27

    def test_lines_on_a_quintic_threefold(self):
        # c_6(Sym^5 S*) on Gr(2,5) = 2875 (same source)
        assert schubert._chern_sym_dual(Gr25, 5).chern(6).degree() == 2875

    def test_fano_variety_of_lines_of_a_cubic_fourfold(self):
        # F = Z(Sym^3 S*) in Gr(2,6) has Pluecker degree sigma_1^4 c_4 = 108
        # (Beauville-Donagi, C. R. Acad. Sci. 301, 1985)
        c4 = schubert._chern_sym_dual(Gr26, 3).chern(4)
        assert (Gr26.sigma(1) ** 4 * c4).degree() == 108

    def test_gr25_lr_table_matches_tableau_oracle(self):
        box = schubert._box(2, 3)
        assert len(box) == 10
        for lam in box:
            for mu in box:
                expected = {nu: _tableau_lr(lam, mu, nu) for nu in box}
                got = dict(schubert._lr_products(lam, mu, 3))
                assert got == {nu: c for nu, c in expected.items() if c}, (lam, mu)


class TestProjectiveSpaceRing:
    def test_truncation(self):
        H = RingClassP5.hyperplane_power(1)
        assert (H**5).degree() == 1
        assert (H**6).is_zero()

    def test_jet_bundle_chern(self):
        cj = chern_jet()
        assert cj.chern(0) == RingClassP5.one()
        assert cj.chern(1) == RingClassP5.hyperplane_power(1, 12)

    def test_kernel_classes_from_inversion(self):
        ck = chern_invert(chern_jet())
        expected = [-12, 84, -448, 2016, -8064]
        for i, c in enumerate(expected, start=1):
            assert ck.chern(i) == RingClassP5.hyperplane_power(i, c)

    def test_invert_is_involution(self):
        cj = chern_jet()
        assert chern_invert(chern_invert(cj)).classes == cj.classes
        one = ChernSeries((RingClassP5.one(),))
        assert chern_invert(one) == one


class TestSym3Bundle:
    def test_makes_no_ring_product(self, monkeypatch):
        # the series is read in the Schur basis off one polynomial product;
        # it multiplies no two Schubert classes
        products = []
        original = RingClassGr36.__mul__

        def counted(self, other):
            products.append(other)
            return original(self, other)

        monkeypatch.setattr(RingClassGr36, "__mul__", counted)
        monkeypatch.setattr(RingClassGr36, "__rmul__", counted)
        cs = chern_sym3_dual_tautological()
        assert products == []
        assert cs.chern(1) == 10 * sigma(1)
        assert len(products) == 1  # the check's own 10 * sigma(1) counts

    def test_first_chern_class(self):
        cs = chern_sym3_dual_tautological()
        assert cs.chern(1) == 10 * sigma(1)

    def test_all_nine_kernel_classes(self):
        ckp = chern_invert(chern_sym3_dual_tautological())
        for i, expected in kernel_chern_displays().items():
            assert ckp.chern(i) == expected, f"c_{i}"

    def test_c9_cube_term(self):
        # the sigma_111^3 piece of c_9 has coefficient -18954, and the cube
        # itself is the point class
        ckp = chern_invert(chern_sym3_dual_tautological())
        _, _, e3 = e_classes()
        assert (e3**3).as_dict() == {(3, 3, 3): 1}
        display = kernel_chern_displays()[9]
        without_cube = display - (-18954) * e3**3
        assert ckp.chern(9) - without_cube == -18954 * e3**3


class TestDegrees:
    def test_degree_c6_all_paths(self):
        assert degree_c6_recurrence() == 192
        assert degree_c6_segre() == 192

    def test_degree_c6_explicit_reduction_polynomial(self):
        ck = chern_invert(chern_jet())
        c1, c2, c3, c4, c5 = (ck.chern(i) for i in range(1, 6))
        poly = (
            -(c1**5)
            + 4 * c1**3 * c2
            - 3 * c1 * c2**2
            - 3 * c1**2 * c3
            + 2 * c2 * c3
            + 2 * c1 * c4
            - c5
        )
        assert poly.degree() == 192

    def test_degree_c8_all_paths(self):
        assert degree_c8_recurrence() == 3402
        assert degree_c8_segre() == 3402

    def test_trivial_bundle_gives_zero(self):
        one = ChernSeries((RingClassP5.one(),))
        assert proj_bundle_power(one, 12, 12 - 1 + 5) == 0
        assert segre_degree(one) == 0

    def test_power_below_relative_dimension_rejected(self):
        one = ChernSeries((RingClassP5.one(),))
        with pytest.raises(ValueError):
            proj_bundle_power(one, 12, 10)

    def test_random_bundles_recurrence_equals_segre(self):
        rng = random.Random(17)
        for _ in range(5):
            coeffs = [rng.randint(-4, 4) for _ in range(5)]
            classes = [RingClassP5.one()] + [
                RingClassP5.hyperplane_power(i + 1, c) for i, c in enumerate(coeffs)
            ]
            c = ChernSeries(tuple(classes))
            rank = rng.randint(6, 12)
            lhs = proj_bundle_power(c, rank, rank - 1 + 5)
            rhs = segre_degree(chern_invert(c))
            assert lhs == rhs
