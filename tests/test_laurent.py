import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau_lab.cyclotomic import CycloMatrix, CyclotomicNumber
from burau_lab.laurent import (
    DimensionMismatch,
    LaurentMatrix,
    LaurentPoly,
    NotDivisible,
)

T = LaurentPoly.t()
ONE = LaurentPoly.one()


def laurent_polys(max_terms=5, min_exp=-4, max_exp=4, max_coeff=9):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp),
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        max_size=max_terms,
    ).map(LaurentPoly)


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        assert (ONE - T) * (ONE + T) == ONE - LaurentPoly.t(2)

    def test_unit_inverse(self):
        assert LaurentPoly.t(-1) * T == ONE

    def test_telescoping_sum(self):
        T2 = LaurentPoly.t(2)
        assert (ONE - T + T2) + (T - T2) == ONE

    def test_zero_has_empty_support(self):
        assert (T - T).coeffs == {}
        assert LaurentPoly({2: 0}).is_zero

    def test_int_coercion(self):
        assert T + 1 == ONE + T
        assert 2 * T == T + T
        assert T - 1 == -(ONE - T)

    @given(laurent_polys(), st.integers(min_value=-9, max_value=9))
    def test_equal_constants_hash_equal(self, p, c):
        # p - p + c is built through arithmetic, not the constructor.
        const = p - p + c
        assert const == c
        assert hash(const) == hash(c) == hash(LaurentPoly({0: c}))

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


class TestExactDivision:
    def test_geometric_factor(self):
        assert (ONE - LaurentPoly.t(2)).exact_div(ONE - T) == ONE + T

    def test_longer_geometric_factor(self):
        t2, t3, t4 = (LaurentPoly.t(k) for k in (2, 3, 4))
        assert (ONE - t4).exact_div(ONE - T) == ONE + T + t2 + t3

    def test_remainder_detected(self):
        with pytest.raises(NotDivisible):
            (ONE - T + LaurentPoly.t(2)).exact_div(ONE - T)

    def test_laurent_shift_divides(self):
        num = LaurentPoly({-2: 1, 1: -1})
        den = LaurentPoly({-3: 1})
        assert num.exact_div(den) * den == num

    def test_zero_numerator(self):
        assert LaurentPoly.zero().exact_div(ONE - T) == LaurentPoly.zero()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            T.exact_div(LaurentPoly.zero())

    def test_integer_coefficient_failure(self):
        # 2t is divisible by 2 but t is not.
        assert LaurentPoly({1: 2}).exact_div(LaurentPoly({0: 2})) == T
        with pytest.raises(NotDivisible):
            T.exact_div(LaurentPoly({0: 2}))

    @given(laurent_polys(), laurent_polys())
    def test_product_division_round_trip(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a


class TestMatrices:
    def test_identity_product(self):
        eye = LaurentMatrix.identity(3)
        assert eye * eye == eye

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LaurentMatrix.identity(2) * LaurentMatrix.identity(3)
        with pytest.raises(DimensionMismatch):
            LaurentMatrix([[ONE, T]])

    @given(st.data())
    @settings(max_examples=25)
    def test_multiplication_associative(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=3))
        polys = laurent_polys(max_terms=3, min_exp=-2, max_exp=2, max_coeff=4)
        draw_matrix = lambda: LaurentMatrix(
            [[data.draw(polys) for _ in range(dim)] for _ in range(dim)]
        )
        a, b, c = draw_matrix(), draw_matrix(), draw_matrix()
        assert (a * b) * c == a * (b * c)

    def test_pad_and_drop(self):
        zero = LaurentPoly.zero()
        m = LaurentMatrix([[T, ONE], [zero, LaurentPoly.t(-1)]])
        assert m.pad_identity(0) is m
        assert m.pad_identity(2).rows == (
            (T, ONE, zero, zero),
            (zero, LaurentPoly.t(-1), zero, zero),
            (zero, zero, ONE, zero),
            (zero, zero, zero, ONE),
        )

    def test_operations_keep_the_subclass(self):
        z = CyclotomicNumber.root_of_unity(8)
        one = CyclotomicNumber.one(8)
        for m in (
            LaurentMatrix([[T, ONE], [LaurentPoly.zero(), LaurentPoly.t(-1)]]),
            CycloMatrix([[z, one], [CyclotomicNumber.zero(8), z**3]]),
        ):
            results = (m * m, m.pad_identity(1))
            assert all(type(r) is type(m) for r in results), type(m)
            assert repr(m) == f"{type(m).__name__}(dim=2)"
        assert LaurentMatrix([[ONE]]) != CycloMatrix([[one]])
        with pytest.raises(TypeError):
            LaurentMatrix([[ONE]]) * CycloMatrix([[one]])

    def test_padding_stays_in_the_matrix_ring(self):
        # Equal values from different rings compare equal, so compare each
        # entry's ring as well: its type and, over Q(zeta_N), its order N.
        def typed(rows):
            return [[(type(e), getattr(e, "order", None), e) for e in row] for row in rows]

        z = CyclotomicNumber.root_of_unity(8)
        laurent = LaurentMatrix([[T, ONE], [LaurentPoly.zero(), LaurentPoly.t(-1)]])
        cyclo = CycloMatrix([[z, z**2], [CyclotomicNumber.zero(8), z**3]])
        for m, eye in ((laurent, LaurentMatrix.identity(4)), (cyclo, CycloMatrix.identity(4, 8))):
            padded = m.pad_identity(2)
            assert typed(row[2:] for row in padded.rows) == typed(row[2:] for row in eye.rows)
            assert typed(padded.rows[2:]) == typed(eye.rows[2:])


def test_module_doctests():
    import doctest

    import burau_lab.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
