"""Value semantics of the six immutable value classes: construction,
validation messages, equality, hashing, repr, read-only fields, copy and
pickle."""

import copy
import pickle
from collections.abc import Hashable
from fractions import Fraction as F

import pytest

from cubicforms.fqm import W_GRAM, W_PRIME_GRAM, EvenLattice, Mp2Element
from cubicforms.qseries import QSeries
from cubicforms.schubert import ChernSeries, RingClassGr36, RingClassP5
from cubicforms.vvmf import HeegnerSeries


def _theta():
    return QSeries({0: -2, 1: 192}, 1, 2)


# one factory per class: equal arguments, then different arguments
CASES = {
    "EvenLattice": (lambda: EvenLattice(W_GRAM), lambda: EvenLattice(W_PRIME_GRAM)),
    "Mp2Element": (lambda: Mp2Element(1, 2, 0, 1), lambda: Mp2Element(1, 2, 0, 1, -1)),
    "RingClassP5": (lambda: RingClassP5({(0,): 1, (1,): 2}), lambda: RingClassP5()),
    "RingClassGr36": (lambda: RingClassGr36.sigma(1), lambda: RingClassGr36.sigma(2)),
    "ChernSeries": (
        lambda: ChernSeries((RingClassP5.one(), RingClassP5.hyperplane_power(1, 3))),
        lambda: ChernSeries((RingClassP5.one(),)),
    ),
    "HeegnerSeries": (
        lambda: HeegnerSeries(_theta(), {6: 192}),
        lambda: HeegnerSeries(_theta(), {6: 193}),
    ),
}
HASHABLE = [name for name in CASES if name != "HeegnerSeries"]
FIELDS = {
    "EvenLattice": ("gram",),
    "Mp2Element": ("a", "b", "c", "d", "eps"),
    "RingClassP5": ("coeffs",),
    "RingClassGr36": ("coeffs",),
    "ChernSeries": ("classes",),
    "HeegnerSeries": ("theta", "degrees"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_inequality(name):
    make, other = CASES[name]
    x, y, z = make(), make(), other()
    assert x is not y
    assert x == y and not x != y
    assert x != z and not x == z
    assert x != object() and x != ()


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_objects_hash_equal(name):
    make, other = CASES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other()}) == 2


def test_heegner_series_is_unhashable():
    h = CASES["HeegnerSeries"][0]()
    assert HeegnerSeries.__hash__ is None
    assert not isinstance(h, Hashable)
    with pytest.raises(TypeError):
        hash(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_read_only(name):
    x = CASES[name][0]()
    for field in FIELDS[name]:
        value = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is value
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_and_pickle_round_trip(name):
    x = CASES[name][0]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        assert repr(y) == repr(x)


def test_repr():
    assert repr(EvenLattice(W_GRAM)) == "EvenLattice(gram=((2, 1), (1, 2)))"
    assert repr(Mp2Element.S()) == "Mp2Element(a=0, b=-1, c=1, d=0, eps=1)"
    assert repr(RingClassP5.one()) == "RingClassP5(coeffs=(((0,), 1),))"
    assert repr(RingClassGr36.sigma(1)) == "RingClassGr36(coeffs=(((1, 0, 0), 1),))"
    zero = "RingClassP5(coeffs=())"
    assert repr(ChernSeries((RingClassP5.one(),))) == (
        f"ChernSeries(classes=(RingClassP5(coeffs=(((0,), 1),)), {', '.join([zero] * 5)}))"
    )
    h = HeegnerSeries(QSeries({0: -2}, 1, 1), {})
    assert repr(h) == "HeegnerSeries(theta=QSeries(-2 + O(q^(1))), degrees={})"


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert EvenLattice(gram=W_GRAM) == EvenLattice(W_GRAM)
        g = Mp2Element(1, 5, 0, 1)
        assert g.eps == 1 and g.matrix == (1, 5, 0, 1)
        assert Mp2Element(a=1, b=5, c=0, d=1) == g == Mp2Element(1, 5, 0, 1, eps=1)
        assert RingClassP5().coeffs == ()
        assert RingClassP5(coeffs=(((0,), 1),)) == RingClassP5.one()
        assert RingClassGr36().coeffs == ()
        assert RingClassGr36(coeffs=(((1, 0, 0), 1),)) == RingClassGr36.sigma(1)
        one = (RingClassP5.one(),)
        assert ChernSeries(classes=one) == ChernSeries(one)
        theta = _theta()
        h = HeegnerSeries(theta=theta, degrees={6: 192})
        assert h == HeegnerSeries(theta, {6: 192})
        assert h.theta is theta and h.degree(6) == 192

    def test_class_constants_are_not_fields(self):
        assert RingClassP5.DIM == 5 and RingClassGr36.DIM == 9
        assert RingClassGr36.TOP == (3, 3, 3)
        assert RingClassGr36.sigma(1).TOP == (3, 3, 3)
        assert "TOP" not in repr(RingClassGr36.sigma(1))
        assert "DIM" not in repr(RingClassP5.one())

    def test_gr36_takes_only_coeffs(self):
        with pytest.raises(TypeError):
            RingClassGr36((), (3, 3, 3))
        with pytest.raises(TypeError):
            RingClassGr36(coeffs=(), TOP=(3, 3, 3))
        with pytest.raises(TypeError):
            RingClassP5((), 5)

    def test_gr36_cleans_coeffs(self):
        messy = (((2, 1, 0), 4), ((1, 0, 0), 0), ((1, 1, 0), -2), ((2, 1, 0), 5))
        x = RingClassGr36(messy)
        # later duplicates win, zeros go, and the keys come out sorted
        assert x.coeffs == (((1, 1, 0), -2), ((2, 1, 0), 5))
        assert x == RingClassGr36((((2, 1, 0), 5), ((1, 1, 0), -2)))
        assert RingClassGr36((((3, 3, 3), 0),)) == RingClassGr36.zero()
        assert RingClassGr36((((3, 3, 3), 0),)).is_zero()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EvenLattice(((2, 1), (1,))), "Gram matrix must be square"),
        (lambda: EvenLattice(((2, 1), (0, 2))), "Gram matrix must be symmetric"),
        (lambda: EvenLattice(((1,),)), "lattice is not even (odd diagonal entry)"),
        (lambda: EvenLattice(((2, 2), (2, 2))), "Gram matrix is degenerate"),
        (lambda: Mp2Element(1, 1, 1, 1), "matrix is not in SL2(Z)"),
        (lambda: Mp2Element(1, 0, 0, 1, 0), "branch must be +1 or -1"),
        (lambda: Mp2Element(1, 0, 0, 1, eps=2), "branch must be +1 or -1"),
        (lambda: ChernSeries(()), "need at least c_0"),
        (
            lambda: ChernSeries((RingClassP5.one(),) * 7),
            "series longer than base dimension + 1",
        ),
        (lambda: ChernSeries((RingClassP5.hyperplane_power(1),)), "c_0 must be 1"),
        (lambda: ChernSeries((RingClassGr36.sigma(1),)), "c_0 must be 1"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_mp2_matrix_check_comes_before_branch_check():
    with pytest.raises(ValueError, match="SL2"):
        Mp2Element(2, 0, 0, 2, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        # WeilRep.rho of this one once raised that its word multiplies out
        # to (-1, 0, 0, -1)
        (lambda: Mp2Element(2.0, 0, 0, 0.5), "Mp2Element a = 2.0 is not an int"),
        (
            lambda: Mp2Element(F(2), 0, 0, F(1, 2)),
            "Mp2Element a = Fraction(2, 1) is not an int",
        ),
        (lambda: Mp2Element.T(0.5), "Mp2Element b = 0.5 is not an int"),
        (lambda: Mp2Element(1, 0, 0, 1, True), "Mp2Element eps = True is not an int"),
        (lambda: Mp2Element(1, 0, 0, 1, eps=-1.0), "Mp2Element eps = -1.0 is not an int"),
        (lambda: Mp2Element(True, 0, 0, True), "Mp2Element a = True is not an int"),
    ],
    ids=["float", "fraction", "float-power-of-t", "bool-branch", "float-branch", "bool"],
)
def test_mp2_entries_and_branch_must_be_ints(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


_P5_ONE, _GR_ONE = RingClassP5.one(), RingClassGr36.one()


@pytest.mark.parametrize(
    "classes, message",
    [
        ((_P5_ONE, _P5_ONE), "c_1 is not a pure degree-1 class of RingClassP5"),
        (
            (_P5_ONE, RingClassP5.hyperplane_power(1), RingClassP5({(1,): 1, (2,): 1})),
            "c_2 is not a pure degree-2 class of RingClassP5",
        ),
        (
            (_GR_ONE, RingClassGr36.sigma(1), RingClassGr36.sigma(1)),
            "c_2 is not a pure degree-2 class of RingClassGr36",
        ),
        ((_P5_ONE, RingClassGr36.sigma(1)), "c_1 is not a pure degree-1 class of RingClassP5"),
    ],
)
def test_chern_series_needs_pure_degree_k_classes(classes, message):
    with pytest.raises(ValueError) as info:
        ChernSeries(classes)
    assert str(info.value) == message


def test_chern_series_takes_zero_and_mixed_partition_classes():
    gr = (_GR_ONE, RingClassGr36.zero(), RingClassGr36.sigma(2) + RingClassGr36.sigma(1, 1))
    assert ChernSeries(gr).chern(2) == RingClassGr36.sigma(2) + RingClassGr36.sigma(1, 1)
    assert ChernSeries((_P5_ONE, RingClassP5.zero())).chern(1).is_zero()


@pytest.mark.parametrize("ring", [RingClassP5, RingClassGr36])
def test_chern_series_has_one_layout(ring):
    # c = 1 given alone and padded with zero classes up to c_dim is one value
    short = ChernSeries((ring.one(),))
    padded = ChernSeries((ring.one(),) + (ring.zero(),) * ring.DIM)
    assert short == padded and hash(short) == hash(padded)
    assert short.classes == padded.classes and len(short.classes) == ring.DIM + 1


def test_heegner_series_compares_theta_and_degrees():
    theta = _theta()
    assert HeegnerSeries(theta, {6: 192}) != HeegnerSeries(theta.truncate(1), {6: 192})
    assert HeegnerSeries(theta, {6: 192}) == HeegnerSeries(_theta(), {6: F(192)})
