import cmath
import copy
import math
import operator
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import burau_lab
from burau_lab.cyclotomic import (
    INFINITE,
    MAX_D,
    CycloMatrix,
    CyclotomicNumber,
    InvalidD,
    NotARoot,
    ZeroInput,
    cyclotomic_polynomial,
    minus_q_from_d,
    multiplicative_order,
    root_exponent,
    specialize_matrix,
    specialize_poly,
    _field,
    _polydiv_exact,
    _roots_of_unity,
    _specialize,
    _substitute,
    _unit_rows,
)
from burau_lab.laurent import LaurentMatrix, LaurentPoly, NotDivisible, _identity_rows
from oracles import embed, q_point, scaled


def float_order(z: complex, bound: int = 300) -> int | None:
    """Independent oracle: enumerate powers as complex floats."""
    w = 1 + 0j
    for k in range(1, bound + 1):
        w *= z
        if abs(w - 1) < 1e-12:
            return k
    return None


KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def test_inexact_division_raises():
    with pytest.raises(NotDivisible):
        _polydiv_exact([1, 0, 1], [1, 1])


def test_inexact_division_raises_under_optimize():
    # The check must survive python -O, which strips assert statements.
    code = (
        "from burau_lab.cyclotomic import _polydiv_exact\n"
        "from burau_lab.laurent import NotDivisible\n"
        "try:\n"
        "    _polydiv_exact([1, 0, 1], [1, 1])\n"
        "except NotDivisible:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(burau_lab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_cyclotomic_polynomial_degree_is_totient():
    from math import gcd

    for n in range(1, 40):
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi


class TestMinusQ:
    # Orders frozen from the float oracle: first power of -exp(2*pi*i/d)
    # equal to 1 within 1e-12.
    @pytest.mark.parametrize("d,order", [(8, 8), (6, 3), (5, 10), (2, 1), (3, 6), (4, 4), (12, 12), (18, 9)])
    def test_orders(self, d, order):
        mq = minus_q_from_d(d)
        assert mq.order == order
        assert multiplicative_order(mq) == order
        assert float_order(-cmath.exp(2j * cmath.pi / d)) == order

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 9, 12])
    def test_matches_float_embedding(self, d):
        mq = minus_q_from_d(d)
        assert abs(mq.to_complex() - (-cmath.exp(2j * cmath.pi / d))) < 1e-12

    def test_numerator_variants(self):
        mq = minus_q_from_d(8, numerator=3)
        assert abs(mq.to_complex() - (-cmath.exp(2j * cmath.pi * 3 / 8))) < 1e-12
        assert multiplicative_order(mq) == 8

    def test_invalid(self):
        with pytest.raises(InvalidD):
            minus_q_from_d(1)
        with pytest.raises(InvalidD):
            minus_q_from_d(8, numerator=2)

    def test_d_above_cap_rejected(self):
        assert minus_q_from_d(MAX_D).order == MAX_D
        with pytest.raises(InvalidD):
            minus_q_from_d(MAX_D + 1)


class TestMultiplicativeOrder:
    def test_one(self):
        assert multiplicative_order(CyclotomicNumber.one()) == 1

    def test_power_examples(self):
        mq5 = minus_q_from_d(5)
        assert multiplicative_order(mq5**4) == 5
        assert multiplicative_order(mq5**3) == 10

    def test_non_root_of_unity(self):
        assert multiplicative_order(CyclotomicNumber.from_fraction(2)) == INFINITE
        one_plus = CyclotomicNumber.one(5) + CyclotomicNumber.root_of_unity(5)
        assert multiplicative_order(one_plus) == INFINITE

    def test_minus_primitive_root_in_odd_field(self):
        # -zeta_3 has order 6 although it lives in Q(zeta_3).
        x = -CyclotomicNumber.root_of_unity(3)
        assert multiplicative_order(x) == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            multiplicative_order(CyclotomicNumber.zero(4))


class TestFieldArithmetic:
    def test_inverse_round_trip(self):
        x = CyclotomicNumber.root_of_unity(7, 3) + Fraction(1, 2)
        assert (x * x.inverse()).is_one

    @pytest.mark.parametrize("order", [1, 2, 74])
    def test_inverse_round_trip_by_order(self, order):
        deg = len(cyclotomic_polynomial(order)) - 1
        x = CyclotomicNumber(order, [3 - 2 * k for k in range(deg)], 5)
        assert (x * x.inverse()).is_one

    @given(
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 20]),
        st.lists(st.integers(min_value=-20, max_value=20), min_size=8, max_size=8),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60)
    def test_inverse_round_trip_property(self, order, coeffs, den):
        deg = len(cyclotomic_polynomial(order)) - 1
        x = CyclotomicNumber(order, coeffs[:deg], den)
        if not x.is_zero:
            assert (x * x.inverse()).is_one

    @given(
        st.sampled_from([13, 21, 36, 40, 74, 78]),
        st.data(),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_inverse_round_trip_large_fields(self, order, data, den):
        # Every coefficient nonzero, so no reduction of the field degree
        # hides a wrong conjugate; x + conj(x) takes the real-input path.
        deg = len(cyclotomic_polynomial(order)) - 1
        nonzero = st.integers(min_value=-50, max_value=50).filter(bool)
        coeffs = data.draw(st.lists(nonzero, min_size=deg, max_size=deg))
        x = CyclotomicNumber(order, coeffs, den)
        real = x + self.conjugate(x)
        assume(not x.is_zero and not real.is_zero)
        self.check_inverses(x, real)

    def test_inverse_round_trip_after_normalising(self):
        # Twelve 2s over 2 are stored as twelve 1s over 1, so the conjugate
        # built from x's numerators must take x's denominator, not 2.
        x = CyclotomicNumber(13, [2] * 12, 2)
        self.check_inverses(x, x + self.conjugate(x))

    @staticmethod
    def conjugate(x):
        return CyclotomicNumber(
            x.order, _substitute(x.numerators, x.order - 1, x.order), x.denominator
        )

    @staticmethod
    def check_inverses(x, real):
        for value in (x, real):
            assert (value * value.inverse()).is_one
        conj_inverse = _substitute(real.inverse().numerators, real.order - 1, real.order)
        assert tuple(conj_inverse) == real.inverse().numerators

    @given(st.sampled_from([1, 2]), st.fractions(max_denominator=10**6))
    def test_inverse_in_the_rational_fields(self, order, value):
        # phi = 1: there are no +-k pairs, and the inverse is 1/value.
        assume(value != 0)
        assert CyclotomicNumber.from_fraction(value, order).inverse() == 1 / value

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroInput):
            CyclotomicNumber.zero(5).inverse()
        for zero in (0, Fraction(0), CyclotomicNumber.zero(5)):
            with pytest.raises(ZeroInput):
                CyclotomicNumber.one(5) / zero

    def test_promotion_equality(self):
        # zeta_4 is zeta_8^2 once Q(zeta_4) is embedded in Q(zeta_8).
        i_small = embed(CyclotomicNumber.root_of_unity(4), 8)
        i_large = CyclotomicNumber.root_of_unity(8, 2)
        assert i_small == i_large
        assert i_small * i_large == -1

    def test_rational_constants_collapse_across_orders(self):
        assert len({CyclotomicNumber.one(4), CyclotomicNumber.one(8), 1}) == 1

    @given(
        st.fractions(max_denominator=50),
        st.sampled_from([1, 2, 3, 4, 8, 12]),
        st.sampled_from([1, 2, 3, 4, 8, 12]),
    )
    def test_equal_rationals_hash_equal(self, value, order_a, order_b):
        a = CyclotomicNumber.from_fraction(value, order_a)
        b = CyclotomicNumber.from_fraction(value, order_b)
        for x, y in ((a, b), (a, value)):
            assert x == y
            assert hash(x) == hash(y)

    def test_negative_power(self):
        z = CyclotomicNumber.root_of_unity(9)
        assert z**-4 == z**5

    @given(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    )
    def test_field_laws_in_q_zeta_8(self, a, b, c):
        z = CyclotomicNumber.root_of_unity(8)
        x = z * a + Fraction(b, 3)
        y = z**3 * c + b
        w = z**2 * b + a
        assert x * (y + w) == x * y + x * w
        assert (x * y) * w == x * (y * w)

    @given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=40)
    def test_float_cross_check(self, a, b):
        # Embedding at zeta_N = exp(2*pi*i/N) matches exact products to 1e-10.
        z = CyclotomicNumber.root_of_unity(12)
        x = z * a + b
        y = z**5 * b + a
        exact = (x * y).to_complex()
        approx = x.to_complex() * y.to_complex()
        assert abs(exact - approx) < 1e-10


def test_zero_and_one_are_shared_per_field():
    for order in (1, 2, 5, 12, 40):
        zero, one = CyclotomicNumber.zero(order), CyclotomicNumber.one(order)
        assert CyclotomicNumber.zero(order) is zero and zero.is_zero
        assert CyclotomicNumber.one(order) is one and one.is_one
        assert zero == CyclotomicNumber.from_fraction(0, order)
        assert one == CyclotomicNumber.from_fraction(1, order)
        assert (zero.order, one.order) == (order, order)
    assert CyclotomicNumber.zero(5) is not CyclotomicNumber.zero(10)


class TestImmutable:
    """Elements and matrices refuse assignment and deletion: zero, one, the
    roots of unity and the unit rows are shared by every caller, so a change
    to one of them would change every matrix that holds it."""

    VALUES = {"order": 7, "_num": (1, 0, 0, 0), "_den": 3}

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_shared_elements(self, name):
        shared = (
            CyclotomicNumber.zero(5),
            CyclotomicNumber.one(5),
            CyclotomicNumber.root_of_unity(5, 3),
            _roots_of_unity(7)[9],
        )
        before = [(x.order, x.numerators, x.denominator) for x in shared]
        for x in shared:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, name, self.VALUES[name])
            with pytest.raises(AttributeError, match="immutable"):
                delattr(x, name)
        assert [(x.order, x.numerators, x.denominator) for x in shared] == before
        assert CyclotomicNumber.zero(5).is_zero and CyclotomicNumber.one(5).is_one
        assert CyclotomicNumber.one(5).order == 5 and CyclotomicNumber.one(5) is shared[1]
        assert CyclotomicNumber.root_of_unity(5, 3) is shared[2]

    @pytest.mark.parametrize("name, value", [("_rows", ((1,),)), ("dim", 1)])
    def test_identity_matrix(self, name, value):
        identity = CycloMatrix(_unit_rows(5, 3))
        for m in (identity, LaurentMatrix(_identity_rows(2))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, value)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(m, name)
        assert identity.dim == 3 and identity.is_identity
        assert CycloMatrix(_unit_rows(5, 3)).rows == identity.rows

    def test_a_second_init_is_refused(self):
        # __init__ on a built element or matrix would rewrite its slots.
        one = CyclotomicNumber.one(5)
        with pytest.raises(AttributeError, match="immutable"):
            one.__init__(5, [2, 0, 0, 0])
        assert one is CyclotomicNumber.one(5) and one.is_one and str(one) == "1"
        identity = CycloMatrix(_unit_rows(5, 3))
        two = CyclotomicNumber.from_fraction(2, 5)
        laurent = LaurentMatrix(_identity_rows(2))
        for m, rows in ((identity, [[two]]), (laurent, [[LaurentPoly.t()]])):
            with pytest.raises(AttributeError, match="immutable"):
                m.__init__(rows)
        assert identity.dim == 3 and identity.is_identity
        assert CycloMatrix(_unit_rows(5, 3)).is_identity
        assert LaurentMatrix(_identity_rows(2)) == LaurentMatrix([[1, 0], [0, 1]])

    def test_pickle_and_copy_rebuild_values(self):
        # They cannot assign slots, so each value says how to rebuild itself.
        x = CyclotomicNumber(12, [1, -2, 0, 3], 5)
        values = (
            x,
            minus_q_from_d(7),
            CycloMatrix([[x, CyclotomicNumber.zero(12)], [x * x, CyclotomicNumber.one(12)]]),
            LaurentMatrix(_identity_rows(3)),
        )
        for value in values:
            for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert type(clone) is type(value) and clone == value


class TestSpecialize:
    def test_alternating_sum_vanishes(self):
        # 1 - t + t^2 - ... + (-t)^(d-1) vanishes at t = -q for every
        # primitive d-th root q: it is (1 - (-t)^d)/(1 + t).
        for d in (3, 5, 7, 8, 12):
            poly = LaurentPoly({k: (-1) ** k for k in range(d)})
            assert specialize_poly(poly, minus_q_from_d(d)).is_zero

    def test_identity_evaluation(self):
        mq = minus_q_from_d(4)
        assert specialize_poly(LaurentPoly.t(), mq) == mq

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroInput):
            specialize_poly(LaurentPoly.t(), CyclotomicNumber.zero(4))

    def test_signed_monomials_are_the_shared_roots(self):
        # +-t^e at t = zeta_N^k is read from the field's table of roots of
        # unity; it must equal the reduction of its power vector.
        rng = random.Random(31)
        for order in range(1, 81):
            roots = _roots_of_unity(order)
            zero = CyclotomicNumber.zero(order)
            for k in {1, order - 1, rng.randrange(order)}:
                for e in range(-order, 2 * order):
                    for c in (1, -1):
                        powers = [0] * order
                        powers[k * e % order] = c
                        value = _specialize(LaurentPoly({e: c}), order, k, zero)
                        assert value == CyclotomicNumber.from_powers(order, powers), (order, k, e)
                        assert any(value is r for r in roots), (order, k, e, c)

    def test_negative_exponents(self):
        mq = minus_q_from_d(5)
        p = LaurentPoly({-2: 3, 1: 1})
        expected = mq.inverse() ** 2 * 3 + mq
        assert specialize_poly(p, mq) == expected

    @given(
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-5, max_value=5),
            max_size=4,
        ),
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-5, max_value=5),
            max_size=4,
        ),
    )
    @settings(max_examples=40)
    def test_ring_homomorphism(self, da, db):
        a, b = LaurentPoly(da), LaurentPoly(db)
        x = minus_q_from_d(7)
        assert specialize_poly(a * b, x) == specialize_poly(a, x) * specialize_poly(b, x)
        assert specialize_poly(a + b, x) == specialize_poly(a, x) + specialize_poly(b, x)

    @pytest.mark.parametrize("d", range(2, 41))
    def test_matrix_is_entrywise_poly(self, d):
        # Zero entries and negative exponents, at odd and even orders N.
        rng = random.Random(d)
        entries = [LaurentPoly.zero()] * 4 + [
            LaurentPoly({rng.randint(-9, 9): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))})
            for _ in range(12)
        ]
        rng.shuffle(entries)
        m = LaurentMatrix([entries[i:i + 4] for i in range(0, 16, 4)])
        x = minus_q_from_d(d)
        spec = specialize_matrix(m, x)
        assert spec.rows == tuple(tuple(specialize_poly(p, x) for p in row) for row in m.rows)

    def test_matrix_specialization(self):
        m = LaurentMatrix([[LaurentPoly.t(), LaurentPoly.one()], [LaurentPoly.zero(), LaurentPoly.t(-1)]])
        mq = minus_q_from_d(4)
        spec = specialize_matrix(m, mq)
        assert spec.entry(0, 0) == mq
        assert spec.entry(1, 1) == mq.inverse()


class TestFromPowers:
    def test_matches_the_full_substitution(self):
        # The head of phi coefficients is kept as it is and only the tail
        # is folded; vectors shorter than phi are padded with zeros, and
        # powers of order or more wrap around as zeta^order = 1.
        rng = random.Random(37)
        for order in range(1, 81):
            deg, _ = _field(order)
            for length in {0, 1, deg // 2, deg, order, 2 * order + 1, rng.randint(0, order)}:
                for _ in range(3):
                    v = [rng.randint(-5, 5) for _ in range(length)]
                    got = CyclotomicNumber.from_powers(order, v)
                    assert got.numerators == tuple(_substitute(v, 1, order)), (order, v)
                    assert got.denominator == 1


class TestCycloMatrix:
    def test_scalar_action(self):
        z = CyclotomicNumber.root_of_unity(6)
        eye = CycloMatrix(_unit_rows(6, 2))
        assert scaled(eye, z).entry(0, 0) == z
        assert scaled(eye, z).entry(0, 1).is_zero


def test_str_forms():
    z = CyclotomicNumber.root_of_unity(8, 3)
    assert "zeta(8)^3" in str(z)
    assert str(CyclotomicNumber.zero(4)) == "0"
    assert str(CyclotomicNumber.one(4)) == "1"


@pytest.mark.parametrize(
    "num, den, text",
    [
        ((-1, 1, 0, 0), 1, "-1 + zeta(8)"),
        ((1, -1, 0, 1), 2, "1/2 - (1/2)*zeta(8) + (1/2)*zeta(8)^3"),
        ((0, 0, 0, 1), 2, "(1/2)*zeta(8)^3"),
        ((0, -2, 0, 0), 1, "-(2)*zeta(8)"),
        ((0, -1, 0, 0), 1, "-zeta(8)"),
        ((-3, 0, 0, 0), 2, "-3/2"),
        ((0, 0, 0, 0), 1, "0"),
    ],
)
def test_str_pinned(num, den, text):
    assert str(CyclotomicNumber(8, num, den)) == text


ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20]


def field_elements():
    """Elements of Q(zeta_N) with small coefficients, for N in ORDERS."""

    def build(order, coeffs, den):
        deg = len(cyclotomic_polynomial(order)) - 1
        return CyclotomicNumber(order, coeffs[:deg], den)

    return st.builds(
        build,
        st.sampled_from(ORDERS),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=8, max_size=8),
        st.integers(min_value=1, max_value=12),
    )


class TestSignedRoot:
    """``root_exponent`` on signed roots +-zeta_N^e: -zeta_N^e is a power of
    zeta_N for even N only, and is refused for odd N, naming the point of
    Q(zeta_2N) that it is."""

    @pytest.mark.parametrize("order", range(1, 31))
    def test_powers_of_zeta(self, order):
        for e in range(order):
            z = CyclotomicNumber.root_of_unity(order, e)
            assert root_exponent(z) == e
            if order % 2 == 0:
                assert root_exponent(-z) == (e + order // 2) % order
                continue
            with pytest.raises(NotARoot, match=rf"root_of_unity\({2 * order}, {2 * e + order}\)$"):
                root_exponent(-z)
            assert CyclotomicNumber.root_of_unity(2 * order, 2 * e + order) == embed(-z, 2 * order)

    def test_negated_entry_at_d_2_mod_4_has_sign_minus_one(self):
        # -q has odd order there, so the letter entry -t = q is -zeta_N^k:
        # not a point of Q(zeta_N), but zeta_d^a with d = 2N.
        for d in (6, 10, 14, 18):
            mq = minus_q_from_d(d)
            assert mq.order % 2 == 1
            with pytest.raises(NotARoot):
                root_exponent(-mq)
            q = q_point(d)
            assert q == embed(-mq, d) and q.order == d
            assert root_exponent(q) == (2 * root_exponent(mq) + mq.order) % d

    def test_non_roots(self):
        z5 = CyclotomicNumber.root_of_unity(5)
        for x in (
            z5 + 1,
            z5 * 2,
            CyclotomicNumber.from_fraction(Fraction(1, 2), 8),
            CyclotomicNumber.from_fraction(2, 1),
            CyclotomicNumber.root_of_unity(4) + 1,
        ):
            with pytest.raises(NotARoot, match=r"is not a power of zeta\(\d+\)$"):
                root_exponent(x)
        with pytest.raises(ZeroInput):
            root_exponent(CyclotomicNumber.zero(6))


def test_every_specialization_point_is_a_power_of_zeta():
    # The assumption behind specializing only at zeta_N^k: every point
    # minus_q_from_d returns is one.
    points = [
        minus_q_from_d(d, a) for d in range(2, 61) for a in range(1, d) if math.gcd(a, d) == 1
    ]
    for x in points + [minus_q_from_d(MAX_D)]:
        assert CyclotomicNumber.root_of_unity(x.order, root_exponent(x)) == x


@st.composite
def same_field_pairs(draw):
    """Two elements of one Q(zeta_N), with denominators, for N in ORDERS or
    one of three larger orders."""
    order = draw(st.sampled_from(ORDERS + [13, 21, 36]))
    deg = len(cyclotomic_polynomial(order)) - 1
    coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=deg, max_size=deg)
    dens = st.integers(min_value=1, max_value=12)
    return tuple(CyclotomicNumber(order, draw(coeffs), draw(dens)) for _ in range(2))


class TestConjugate:
    @given(same_field_pairs())
    @settings(max_examples=80, deadline=None)
    def test_conjugate_is_the_substitution_zeta_to_its_inverse(self, pair):
        x, y = pair
        order = x.order
        bar = x.conjugate()
        rebuilt = CyclotomicNumber(order, _substitute(x.numerators, order - 1, order), x.denominator)
        assert bar == rebuilt
        # Canonical as built: renormalizing changes nothing.
        assert (rebuilt.numerators, rebuilt.denominator) == (bar.numerators, bar.denominator)
        assert bar.conjugate() == x
        assert (x * y).conjugate() == bar * y.conjugate()
        assert cmath.isclose(bar.to_complex(), x.to_complex().conjugate(), abs_tol=1e-9)

    def test_conjugate_of_a_root_is_its_inverse(self):
        for order in range(1, 31):
            for e in range(order):
                z = CyclotomicNumber.root_of_unity(order, e)
                assert z.conjugate() == CyclotomicNumber.root_of_unity(order, -e)


@st.composite
def one_field_operands(draw):
    """(order, operands): three operands for Q(zeta_order), each an element
    of that field (often rational), an int, a Fraction, or a rational
    element of another field."""
    order = draw(st.sampled_from(ORDERS))
    deg = len(cyclotomic_polynomial(order)) - 1
    small = st.integers(min_value=-2, max_value=2)
    value = st.builds(Fraction, small, st.sampled_from((1, 2)))
    other_order = st.sampled_from([n for n in ORDERS if n != order])
    operand = st.one_of(
        st.builds(
            lambda coeffs, den: CyclotomicNumber(order, coeffs, den),
            st.lists(small, min_size=deg, max_size=deg),
            st.sampled_from((1, 2)),
        ),
        st.builds(CyclotomicNumber.from_fraction, value, st.just(order)),
        small,
        value,
        st.builds(CyclotomicNumber.from_fraction, value, other_order),
    )
    return order, draw(st.lists(operand, min_size=3, max_size=3))


class TestOneFieldContract:
    """An element belongs to one field. Across fields, ``==`` holds only
    between rationals of equal value, and arithmetic raises ValueError.
    Arithmetic with an operand that is not a field element, int or Fraction
    is a TypeError."""

    @given(one_field_operands())
    @settings(max_examples=300)
    def test_equality_is_an_equivalence_with_matching_hashes(self, drawn):
        _, operands = drawn
        for a in operands:
            for b in operands:
                assert (a == b) == (b == a), (a, b)
                if a == b:
                    assert hash(a) == hash(b), (a, b)
                for k in range(-2, 3):
                    if a == k and k == b:
                        assert a == b, (a, k, b)
        a, b, c = operands
        if a == b and b == c:
            assert a == c

    def test_roots_of_two_fields_are_unequal(self):
        i_small = CyclotomicNumber.root_of_unity(4)
        i_large = CyclotomicNumber.root_of_unity(8, 2)
        assert i_small != i_large and i_large != i_small
        assert len({i_small, i_large}) == 2

    @given(field_elements(), field_elements())
    @settings(max_examples=100)
    def test_arithmetic_across_fields_raises(self, a, b):
        assume(a.order != b.order)
        for x, y in ((a, b), (b, a)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(ValueError) as caught:
                    op(x, y)
                message = str(caught.value)
                assert f"Q(zeta_{a.order})" in message and f"Q(zeta_{b.order})" in message

    def test_arithmetic_with_a_foreign_operand_is_a_type_error(self):
        x = CyclotomicNumber.one(5)
        for other in ([1], "x", 1.5, CycloMatrix(_unit_rows(5, 2))):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for left, right in ((x, other), (other, x)):
                    with pytest.raises(TypeError):
                        op(left, right)


def _points():
    pairs = ((3, 1), (6, 5), (7, 3), (8, 3), (12, 5))
    mq = [minus_q_from_d(d, a) for d, a in pairs]
    return mq + [q_point(d, a) for d, a in pairs] + [x**3 for x in mq]


class TestExponentFlip:
    @given(
        st.dictionaries(
            st.integers(min_value=-30, max_value=30),
            st.integers(min_value=-5, max_value=5),
            max_size=6,
        ),
        st.sampled_from(_points()),
    )
    @settings(max_examples=80)
    def test_matches_powers_of_the_point(self, coeffs, x):
        # Independent oracle: sum of c * x**e, negative powers by inverse().
        expected = CyclotomicNumber.zero(x.order)
        for e, c in coeffs.items():
            expected = expected + x**e * c
        assert specialize_poly(LaurentPoly(coeffs), x) == expected


FIELD_ORDERS = sorted({minus_q_from_d(d).order for d in range(2, 41)})


@st.composite
def same_field_operands(draw):
    """(a, b): a in Q(zeta_N), N the field order of -q for some d in 2..40,
    integral or not; b another element of that field, a itself, an int or a
    Fraction."""
    order = draw(st.sampled_from(FIELD_ORDERS))
    deg = len(cyclotomic_polynomial(order)) - 1
    element = st.builds(
        lambda coeffs, den: CyclotomicNumber(order, coeffs, den),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=deg, max_size=deg),
        st.sampled_from((1, 1, 1, 2, 3, 6)),
    )
    a = draw(element)
    b = draw(
        st.one_of(
            element,
            st.just(a),
            st.integers(min_value=-6, max_value=6),
            st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(1, 6)),
        )
    )
    return a, b


def is_canonical(x: CyclotomicNumber) -> bool:
    nums, den = x.numerators, x.denominator
    return (
        type(nums) is tuple
        and len(nums) == len(cyclotomic_polynomial(x.order)) - 1
        and den > 0
        and math.gcd(den, *nums) == 1
        and (den == 1 or any(nums))
    )


class TestSameFieldFastPath:
    """Operands of one field skip coercion, and integral results skip
    renormalization. The general path takes both operands into Q(zeta_2N),
    an int or Fraction as a field element, and must give the same value
    embedded there."""

    @staticmethod
    def widen(x, order):
        if isinstance(x, CyclotomicNumber):
            return embed(x, order)
        return CyclotomicNumber.from_fraction(x, order)

    @given(
        same_field_operands(),
        st.sampled_from((operator.add, operator.sub, operator.mul)),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_arithmetic_matches_the_general_path(self, operands, op, swap):
        a, b = operands
        wide = 2 * a.order
        a_wide, b_wide = embed(a, wide), self.widen(b, wide)
        if swap:
            fast, general = op(b, a), op(b_wide, a_wide)
        else:
            fast, general = op(a, b), op(a_wide, b_wide)
        assert fast.order == a.order and general.order == wide
        promoted = embed(fast, wide)
        assert (promoted.numerators, promoted.denominator) == (
            general.numerators,
            general.denominator,
        )
        assert is_canonical(fast) and is_canonical(general)

    @given(same_field_operands())
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_match_the_general_path(self, operands):
        a, b = operands
        equal = a == b
        wide = 2 * a.order
        assert equal == (embed(a, wide) == self.widen(b, wide)) == (b == a)
        if equal:
            assert hash(a) == hash(b)

    def test_non_integral_results_are_renormalized(self):
        a = CyclotomicNumber(3, [2, 3], 3)
        half = CyclotomicNumber(3, [1, 0], 2)
        for product in (a * CyclotomicNumber(3, [3, 0], 2), a * Fraction(3, 2)):
            assert (product.numerators, product.denominator) == ((2, 3), 2)
        product = half * 4
        assert (product.numerators, product.denominator) == ((2, 0), 1)
        total = half + half
        assert (total.numerators, total.denominator) == ((1, 0), 1)
        difference = a - a
        assert (difference.numerators, difference.denominator) == ((0, 0), 1)
        assert is_canonical(-a) and (-a).denominator == 3
