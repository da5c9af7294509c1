import cmath
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burau_lab
from burau_lab.cyclotomic import (
    INFINITE,
    CycloMatrix,
    CyclotomicNumber,
    InvalidD,
    ZeroInput,
    cyclotomic_polynomial,
    minus_q_from_d,
    multiplicative_order,
    signed_root,
    specialize_matrix,
    specialize_poly,
    _polydiv_exact,
)
from burau_lab.laurent import LaurentMatrix, LaurentPoly, NotDivisible


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

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroInput):
            CyclotomicNumber.zero(5).inverse()

    def test_promotion_equality(self):
        i_small = CyclotomicNumber.root_of_unity(4)
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

    def test_matrix_specialization(self):
        m = LaurentMatrix([[LaurentPoly.t(), LaurentPoly.one()], [LaurentPoly.zero(), LaurentPoly.t(-1)]])
        mq = minus_q_from_d(4)
        spec = specialize_matrix(m, mq)
        assert spec.entry(0, 0) == mq
        assert spec.entry(1, 1) == mq.inverse()


class TestCycloMatrix:
    def test_identity_and_inverse(self):
        z = CyclotomicNumber.root_of_unity(5)
        m = CycloMatrix([[z, CyclotomicNumber.one(5)], [CyclotomicNumber.zero(5), z**2]])
        assert (m * m.inverse()).is_identity
        assert (m.inverse() * m).is_identity

    def test_singular_matrix(self):
        one = CyclotomicNumber.one(3)
        m = CycloMatrix([[one, one], [one, one]])
        with pytest.raises(ZeroInput):
            m.inverse()

    def test_scalar_action(self):
        z = CyclotomicNumber.root_of_unity(6)
        eye = CycloMatrix.identity(2, 6)
        assert eye.scale(z).entry(0, 0) == z
        assert eye.scale(z).entry(0, 1).is_zero


def test_str_forms():
    z = CyclotomicNumber.root_of_unity(8, 3)
    assert "zeta(8)^3" in str(z)
    assert str(CyclotomicNumber.zero(4)) == "0"
    assert str(CyclotomicNumber.one(4)) == "1"


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
    @pytest.mark.parametrize("order", range(1, 31))
    def test_powers_of_zeta(self, order):
        for e in range(order):
            z = CyclotomicNumber.root_of_unity(order, e)
            assert signed_root(z) == (1, e)
            expected = (1, (e + order // 2) % order) if order % 2 == 0 else (-1, e)
            assert signed_root(-z) == expected

    def test_negated_entry_at_d_2_mod_4_has_sign_minus_one(self):
        # -q has odd order there, so the letter entry -t = q is -zeta_N^k.
        for d in (6, 10, 14, 18):
            mq = minus_q_from_d(d)
            assert mq.order % 2 == 1
            sign, k = signed_root(-mq)
            assert sign == -1 and signed_root(mq) == (1, k)

    def test_non_roots(self):
        z5 = CyclotomicNumber.root_of_unity(5)
        for x in (
            z5 + 1,
            z5 * 2,
            CyclotomicNumber.from_fraction(Fraction(1, 2), 8),
            CyclotomicNumber.from_fraction(2, 1),
            CyclotomicNumber.root_of_unity(4) + 1,
            CyclotomicNumber.zero(6),
        ):
            assert signed_root(x) is None


class TestHashAcrossOrders:
    def test_root_of_unity_in_two_fields(self):
        i_small = CyclotomicNumber.root_of_unity(4)
        i_large = CyclotomicNumber.root_of_unity(8, 2)
        assert len({i_small, i_large}) == 1
        assert len({CycloMatrix([[i_small]]), CycloMatrix([[i_large]])}) == 1

    @given(field_elements(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80)
    def test_promotion_keeps_the_hash(self, x, k):
        y = x.promote(k * x.order)
        assert x == y
        assert hash(x) == hash(y)

    @given(st.lists(field_elements(), min_size=4, max_size=4), st.integers(min_value=2, max_value=3))
    @settings(max_examples=30)
    def test_promoted_matrices_hash_equal(self, entries, k):
        a = CycloMatrix([entries[:2], entries[2:]])
        b = CycloMatrix([[e.promote(k * e.order) for e in row] for row in a.rows])
        assert a == b
        assert hash(a) == hash(b)


def _points():
    mq = [minus_q_from_d(d, a) for d, a in ((3, 1), (6, 5), (7, 3), (8, 3), (12, 5))]
    z5 = CyclotomicNumber.root_of_unity(5)
    return mq + [-x for x in mq] + [x**3 for x in mq] + [z5 + 1, z5 * 2 - Fraction(1, 3)]


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
