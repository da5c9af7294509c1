import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau_lab.cyclotomic import CycloMatrix, CyclotomicNumber, ZeroInput
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
        assert (ONE - T) * (ONE + T) == ONE - T**2

    def test_unit_inverse(self):
        assert LaurentPoly.t(-1) * T == ONE

    def test_telescoping_sum(self):
        assert (ONE - T + T**2) + (T - T**2) == ONE

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
        assert hash(const) == hash(c) == hash(LaurentPoly.constant(c))

    def test_negative_power_of_unit(self):
        assert LaurentPoly.monomial(-1, 1) ** -2 == LaurentPoly.t(-2)
        assert LaurentPoly.monomial(-1, 1) ** -1 == LaurentPoly.monomial(-1, -1)
        with pytest.raises(NotDivisible):
            (ONE + T) ** -1

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(laurent_polys())
    def test_canonical_form_round_trips_through_text(self, p):
        assert LaurentPoly.parse(str(p)) == p


class TestExactDivision:
    def test_geometric_factor(self):
        assert (ONE - T**2).exact_div(ONE - T) == ONE + T

    def test_longer_geometric_factor(self):
        assert (ONE - T**4).exact_div(ONE - T) == ONE + T + T**2 + T**3

    def test_remainder_detected(self):
        with pytest.raises(NotDivisible):
            (ONE - T + T**2).exact_div(ONE - T)

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
        assert LaurentPoly({1: 2}).exact_div(LaurentPoly.constant(2)) == T
        with pytest.raises(NotDivisible):
            T.exact_div(LaurentPoly.constant(2))

    @given(laurent_polys(), laurent_polys())
    def test_product_division_round_trip(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", LaurentPoly.zero()),
            ("1 - t + t^2 - t^-1", LaurentPoly({0: 1, 1: -1, 2: 1, -1: -1})),
            ("3t^2", LaurentPoly({2: 3})),
            ("-t", LaurentPoly({1: -1})),
            ("2 + 2", LaurentPoly({0: 4})),
        ],
    )
    def test_examples(self, text, expected):
        assert LaurentPoly.parse(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("t + + t")
        with pytest.raises(ValueError):
            LaurentPoly.parse("x^2")
        with pytest.raises(ValueError):
            LaurentPoly.parse("")


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

    def test_det_two_by_two(self):
        m = LaurentMatrix([[T, ONE], [ONE - T, LaurentPoly.t(-1)]])
        assert m.det() == ONE - (ONE - T)

    def test_det_matches_cofactor_expansion(self):
        rows = [
            [T, ONE, LaurentPoly.zero()],
            [ONE - T, LaurentPoly.t(2), ONE],
            [ONE, LaurentPoly.zero(), LaurentPoly.monomial(-1, -1)],
        ]
        m = LaurentMatrix(rows)
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        cofactor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert m.det() == cofactor

    @given(st.data())
    @settings(max_examples=25)
    def test_det_multiplicative(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=4))
        polys = laurent_polys(max_terms=3, min_exp=-2, max_exp=2, max_coeff=4)
        draw_matrix = lambda: LaurentMatrix(
            [[data.draw(polys) for _ in range(dim)] for _ in range(dim)]
        )
        a, b = draw_matrix(), draw_matrix()
        assert (a * b).det() == a.det() * b.det()

    def test_zero_leading_entry_needs_row_swap(self):
        zero = LaurentPoly.zero()
        m = LaurentMatrix([[zero, T, ONE], [ONE, ONE + T, zero], [T, zero, LaurentPoly.t(-1)]])
        # Cofactor expansion along the first row.
        assert m.det() == -T * LaurentPoly.t(-1) + ONE * (-T - T**2)
        unit = LaurentMatrix([[zero, T], [ONE, ONE + T]])
        assert unit.det() == -T
        assert unit * unit.inverse() == LaurentMatrix.identity(2)
        assert unit.inverse() == LaurentMatrix(
            [[-(ONE + T) * LaurentPoly.t(-1), ONE], [LaurentPoly.t(-1), zero]]
        )

    def test_inverse_round_trip(self):
        m = LaurentMatrix(
            [[LaurentPoly.monomial(-1, 1), ONE, LaurentPoly.zero()],
             [LaurentPoly.zero(), ONE, LaurentPoly.zero()],
             [T, LaurentPoly.zero(), ONE]]
        )
        assert m * m.inverse() == LaurentMatrix.identity(3)
        assert m.inverse() * m == LaurentMatrix.identity(3)

    def test_non_unit_determinant_not_invertible(self):
        m = LaurentMatrix([[ONE + T, LaurentPoly.zero()], [LaurentPoly.zero(), ONE]])
        with pytest.raises(NotDivisible):
            m.inverse()

    def test_singular_not_invertible(self):
        m = LaurentMatrix([[ONE, ONE], [ONE, ONE]])
        with pytest.raises(NotDivisible):
            m.inverse()

    def test_pad_and_drop(self):
        m = LaurentMatrix([[T]])
        padded = m.pad_identity(2)
        assert padded.dim == 3
        assert padded.entry(0, 0) == T
        assert padded.entry(2, 2) == ONE
        assert padded.drop_last_row_col().drop_last_row_col() == m

    def test_operations_keep_the_subclass(self):
        z = CyclotomicNumber.root_of_unity(8)
        one = CyclotomicNumber.one(8)
        for m in (
            LaurentMatrix([[T, ONE], [LaurentPoly.zero(), LaurentPoly.t(-1)]]),
            CycloMatrix([[z, one], [CyclotomicNumber.zero(8), z**3]]),
        ):
            results = (
                m * m, m + m, m - m, m**2, m**-1, m.inverse(), m.scale(m.entry(0, 0)),
                m.pad_identity(1), m.pad_identity(1).drop_last_row_col(),
            )
            assert all(type(r) is type(m) for r in results), type(m)
            assert m.pad_identity(1).drop_last_row_col() == m
            assert repr(m) == f"{type(m).__name__}(dim=2)"
        assert LaurentMatrix([[ONE]]) != CycloMatrix([[one]])
        with pytest.raises(TypeError):
            LaurentMatrix([[ONE]]) * CycloMatrix([[one]])


def _leibniz_det(m):
    """Independent oracle: the sum over permutations, in the entries' ring."""
    total = m.entry(0, 0) * 0
    for perm in itertools.permutations(range(m.dim)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(m.dim), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = m.entry(i, j) * term
        total = total + term
    return total


@st.composite
def cyclo_matrices(draw, dim, order):
    """A dim x dim CycloMatrix over Q(zeta_order). About one entry in five
    is zero, so pivots need row swaps, and some draws are made singular by
    setting one row to a multiple of another."""
    phi = len(CyclotomicNumber.one(order).numerators)
    nonzero = st.builds(
        lambda num, den: CyclotomicNumber(order, num, den),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).filter(any),
        st.sampled_from((1, 1, 2, 3)),
    )
    entry = st.one_of(st.just(CyclotomicNumber.zero(order)), *[nonzero] * 4)
    rows = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    if dim > 1 and draw(st.integers(0, 2)) == 2:
        src, dst = draw(st.permutations(range(dim)))[:2]
        c = draw(entry)
        rows[dst] = [c * e for e in rows[src]]
    return CycloMatrix(rows)


class TestCyclotomicElimination:
    """The one fraction-free elimination, run over Q(zeta_N)."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_det_and_inverse(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=3), label="dim")
        order = data.draw(st.sampled_from((5, 8, 12)), label="order")
        a = data.draw(cyclo_matrices(dim, order), label="a")
        b = data.draw(cyclo_matrices(dim, order), label="b")
        product = a * b
        assert type(product) is CycloMatrix
        assert a.det() == _leibniz_det(a)
        assert product.det() == a.det() * b.det()
        if a.det().is_zero:
            with pytest.raises(ZeroInput):
                a.inverse()
            return
        inv = a.inverse()
        assert type(inv) is CycloMatrix
        assert (a * inv).is_identity and (inv * a).is_identity
        assert inv == a**-1

    def test_zero_leading_entry_needs_row_swap(self):
        zero, one = CyclotomicNumber.zero(5), CyclotomicNumber.one(5)
        z = CyclotomicNumber.root_of_unity(5)
        m = CycloMatrix([[zero, z], [one, one + z]])
        assert m.det() == -z
        assert m.inverse() == CycloMatrix([[-(one + z) * z**-1, one], [z**-1, zero]])
        assert (m * m.inverse()).is_identity


def test_module_doctests():
    import doctest

    import burau_lab.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
