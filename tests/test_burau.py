import math
import random

import pytest

from burau_lab.burau import (
    BurauImage,
    ProjectiveMatrix,
    affine_extension,
    burau_generator,
    burau_of_word,
    crossed_v,
    ev_map,
    projectively_equal,
    specialized_burau,
)
from burau_lab.cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    ZeroInput,
    minus_q_from_d,
    specialize_matrix,
)
from burau_lab.laurent import LaurentMatrix, LaurentPoly, NotDivisible
from burau_lab.words import BraidWord, parse_word, random_word

T = LaurentPoly.t()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def naive_word_image(word: BraidWord) -> LaurentMatrix:
    """Independent oracle: plain matrix product of the generator images."""
    out = LaurentMatrix.identity(max(word.strands_n - 1, 1))
    for i, e in word.letters:
        out = out * burau_generator(word.strands_n, i, e < 0).matrix
    return out


class TestGenerators:
    def test_first_generator(self):
        assert burau_generator(4, 1).matrix == LaurentMatrix(
            [[-1 * T, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        )

    def test_interior_generator(self):
        assert burau_generator(4, 2).matrix == LaurentMatrix(
            [[ONE, ZERO, ZERO], [T, -1 * T, ONE], [ZERO, ZERO, ONE]]
        )

    def test_last_generator(self):
        assert burau_generator(4, 3).matrix == LaurentMatrix(
            [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, T, -1 * T]]
        )

    def test_two_strand_case(self):
        assert burau_generator(2, 1).matrix == LaurentMatrix([[-1 * T]])

    def test_inverse_is_exact(self):
        for n in range(2, 7):
            for i in range(1, n):
                product = (
                    burau_generator(n, i, inverse=True).matrix
                    * burau_generator(n, i).matrix
                )
                assert product == LaurentMatrix.identity(n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_form_inverse_matches_matrix_inverse(self, n):
        for i in range(1, n):
            assert (
                burau_generator(n, i, inverse=True).matrix
                == burau_generator(n, i).matrix.inverse()
            )

    def test_index_out_of_range(self):
        from burau_lab.words import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            burau_generator(4, 4)
        with pytest.raises(IndexOutOfRange):
            burau_generator(4, 0)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_braid_relations(self, n):
        for i in range(1, n - 1):
            a = burau_generator(n, i).matrix
            b = burau_generator(n, i + 1).matrix
            assert a * b * a == b * a * b
        for i in range(1, n):
            for j in range(i + 2, n):
                a = burau_generator(n, i).matrix
                b = burau_generator(n, j).matrix
                assert a * b == b * a


class TestWordImages:
    def test_empty_word(self):
        assert burau_of_word(BraidWord(4)).matrix == LaurentMatrix.identity(3)

    def test_group_inverse(self):
        w = parse_word("s1 s1^-1", 4)
        assert burau_of_word(w).matrix == LaurentMatrix.identity(3)

    def test_full_twist_is_central_scalar(self):
        for n in range(3, 11):
            tau = parse_word(f"T{n}", n)
            expected = LaurentMatrix.identity(n - 1).scale(LaurentPoly.t(n))
            assert burau_of_word(tau).matrix == expected

    def test_sub_full_twist_affine_form(self):
        # The twist on the first three of four strands lands in affine form:
        # scalar t^3 bordered by the column ((1-t), (1-t^2)).
        got = burau_of_word(parse_word("T3", 4)).matrix
        expected = LaurentMatrix(
            [[T**3, ZERO, ONE - T], [ZERO, T**3, ONE - T**2], [ZERO, ZERO, ONE]]
        )
        assert got == expected

    def test_half_twist_power_block(self):
        # sigma_1^d has the 2x2 block [[(-t)^d, 1 - t + ... + (-t)^(d-1)], [0, 1]].
        d = 5
        got = burau_of_word(parse_word(f"s1^{d}", 4)).matrix
        top = LaurentPoly({k: (-1) ** k for k in range(d)})
        expected = LaurentMatrix(
            [[(-1 * T) ** d, top, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        )
        assert got == expected

    def test_matches_naive_product(self):
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(4):
                w = random_word(n, 10, rng)
                assert burau_of_word(w).matrix == naive_word_image(w)

    def test_determinant_tracks_writhe(self):
        rng = random.Random(5)
        for n in (3, 4, 5, 6):
            for _ in range(4):
                w = random_word(n, 8, rng)
                det = burau_of_word(w).matrix.det()
                assert det == LaurentPoly.monomial((-1) ** (w.writhe % 2), w.writhe)

    def test_image_wrapper_validates_dim(self):
        with pytest.raises(ValueError):
            BurauImage(4, LaurentMatrix.identity(2))


class TestCrossedHomomorphism:
    def test_generator_values(self):
        assert crossed_v(burau_generator(4, 1)) == (ZERO, ZERO, ZERO)
        assert crossed_v(burau_generator(4, 2)) == (ZERO, ZERO, ZERO)
        assert crossed_v(burau_generator(4, 3)) == (ZERO, ZERO, ONE)

    def test_identity_value(self):
        eye = BurauImage(4, LaurentMatrix.identity(3))
        assert crossed_v(eye) == (ZERO, ZERO, ZERO)

    def test_crossed_law(self):
        # v(AB) = v(A) + A v(B), exactly, on random word pairs.
        rng = random.Random(23)
        for n in (3, 4, 5):
            for _ in range(6):
                wa, wb = random_word(n, 7, rng), random_word(n, 7, rng)
                a, b = burau_of_word(wa), burau_of_word(wb)
                va, vb, vab = crossed_v(a), crossed_v(b), crossed_v(a * b)
                for i in range(n - 1):
                    rhs = va[i] + sum(
                        (a.matrix.entry(i, j) * vb[j] for j in range(n - 1)),
                        ZERO,
                    )
                    assert vab[i] == rhs

    def test_rejects_matrix_outside_image(self):
        outside = BurauImage(3, LaurentMatrix([[ONE, ONE], [ZERO, ONE]]))
        with pytest.raises(NotDivisible):
            crossed_v(outside)


class TestAffineExtension:
    def test_identity(self):
        eye = BurauImage(4, LaurentMatrix.identity(3))
        assert affine_extension(eye).matrix == LaurentMatrix.identity(4)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_agrees_with_next_strand_count(self, n):
        for i in range(1, n):
            extended = affine_extension(burau_generator(n, i)).matrix
            assert extended == burau_generator(n + 1, i).matrix

    def test_multiplicative(self):
        rng = random.Random(41)
        for n in (3, 4, 5):
            for _ in range(5):
                a = burau_of_word(random_word(n, 8, rng))
                b = burau_of_word(random_word(n, 8, rng))
                lhs = affine_extension(a * b).matrix
                rhs = affine_extension(a).matrix * affine_extension(b).matrix
                assert lhs == rhs

    def test_last_row_shape(self):
        ext = affine_extension(burau_of_word(parse_word("s1 s2 s1^-1", 4)))
        last = ext.matrix.rows[-1]
        assert last == (ZERO, ZERO, ZERO, ONE)


class TestEvMap:
    def test_minimal_padding_recovers_direct_evaluation(self):
        mq = minus_q_from_d(6)
        image = burau_generator(4, 1)
        via_ev = ev_map(image, mq, 5)
        direct = specialize_matrix(image.matrix, mq)
        assert projectively_equal(via_ev.matrix, direct)
        # -t evaluates to q = -(-q) at the top-left corner.
        assert via_ev.matrix.entry(0, 0) == -mq

    def test_identity_any_padding(self):
        eye = BurauImage(4, LaurentMatrix.identity(3))
        pm = ev_map(eye, minus_q_from_d(5), 6)
        assert pm.is_identity
        assert pm.matrix.dim == 4

    def test_padding_agrees_with_independent_composition(self):
        # Compose affine extension, pad, then specialize by hand; the
        # result is the 4x4 image of the same generator one strand up.
        mq = minus_q_from_d(4)  # -q = -i
        image = burau_generator(4, 3)
        by_hand = specialize_matrix(
            affine_extension(image).matrix.pad_identity(0), mq
        )
        got = ev_map(image, mq, 6).matrix
        assert projectively_equal(got, by_hand)
        assert got == specialize_matrix(burau_generator(5, 3).matrix, mq)

    def test_central_twist_is_projectively_trivial(self):
        mq = minus_q_from_d(7)
        tau = burau_of_word(parse_word("T4", 4))
        pm = ev_map(tau, mq, 5)
        assert pm.is_identity
        assert not specialize_matrix(tau.matrix, mq).is_identity

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            ev_map(burau_generator(4, 1), minus_q_from_d(5), 4)

    def test_rejects_zero_point(self):
        with pytest.raises(ZeroInput):
            ev_map(burau_generator(4, 1), CyclotomicNumber.zero(4), 5)


class TestSpecializedBurau:
    def test_half_twist_power_in_kernel(self):
        assert specialized_burau(parse_word("s1^5", 4), minus_q_from_d(5)).is_identity

    def test_sub_twist_power_in_kernel(self):
        assert specialized_burau(parse_word("T4^2", 5), minus_q_from_d(8)).is_identity

    def test_central_twist_minimal_power(self):
        mq = minus_q_from_d(5)
        for k in range(1, 5):
            assert not specialized_burau(parse_word(f"T4^{k}", 4), mq).is_identity
        assert specialized_burau(parse_word("T4^5", 4), mq).is_identity

    def test_agrees_with_specializing_the_laurent_image(self):
        rng = random.Random(99)
        cases = []
        for n in (3, 4, 5):
            for d in (4, 5, 7):
                cases.append((random_word(n, 12, rng), minus_q_from_d(d)))
        # Every d in 2..40 with a coprime numerator other than 1 where there
        # is one, at -q and at the non-primitive roots q = -(-q) and (-q)^3
        # (sign -1 with odd N when d = 2 mod 4), on words of length 0, 1 and
        # random length; a central twist of 2500 letters; and a point that
        # is not a root of unity, which takes the Laurent path.
        for d in range(2, 41):
            a = max(k for k in range(1, d) if math.gcd(k, d) == 1)
            mq = minus_q_from_d(d, a)
            for x in (mq, -mq, mq**3):
                for length in (0, 1, rng.randint(2, 40)):
                    cases.append((random_word(rng.randint(2, 6), length, rng), x))
        twist = parse_word("T5^125", 5)
        assert len(twist) == 2500
        cases += [(twist, minus_q_from_d(7)), (twist, minus_q_from_d(10))]
        non_root = CyclotomicNumber.root_of_unity(5) + 1
        cases += [(random_word(4, length, rng), non_root) for length in (0, 1, 9)]
        for w, x in cases:
            fast = specialized_burau(w, x)
            slow = specialize_matrix(burau_of_word(w).matrix, x)
            assert fast == slow, (w, x)

    def test_first_generator_at_minus_i(self):
        # -t evaluates to i when t = -zeta_4 = -i.
        mq = minus_q_from_d(4)
        got = specialize_matrix(burau_generator(4, 1).matrix, mq)
        i = CyclotomicNumber.root_of_unity(4)
        one = CyclotomicNumber.one(4)
        zero = CyclotomicNumber.zero(4)
        assert got == CycloMatrix(
            [[i, one, zero], [zero, one, zero], [zero, zero, one]]
        )

    def test_descriptor_generators_specialize_to_identity(self):
        from burau_lab.cli import KERNEL_TABLE_FIXTURE
        from burau_lab.moduli import kernel_descriptor

        for n, d, _, _ in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            for gen in kernel_descriptor(n, d).normal_generators():
                assert specialized_burau(gen, mq).is_identity, (n, d)

    def test_rejects_zero(self):
        with pytest.raises(ZeroInput):
            specialized_burau(parse_word("s1", 4), CyclotomicNumber.zero(4))


class TestProjectiveEquality:
    def test_scalar_multiples_identified(self):
        mq = minus_q_from_d(5)
        m = specialized_burau(parse_word("s1 s2", 4), mq)
        assert projectively_equal(m, m.scale(mq**3))
        assert ProjectiveMatrix(m) == ProjectiveMatrix(m.scale(-1 * mq))

    def test_distinct_classes(self):
        mq = minus_q_from_d(5)
        a = specialized_burau(parse_word("s1", 4), mq)
        b = specialized_burau(parse_word("s2", 4), mq)
        assert not projectively_equal(a, b)

    def test_zero_pattern_mismatch(self):
        one = CyclotomicNumber.one(4)
        zero = CyclotomicNumber.zero(4)
        a = CycloMatrix([[one, zero], [zero, one]])
        b = CycloMatrix([[one, one], [zero, one]])
        assert not projectively_equal(a, b)
