import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau_lab import burau
from burau_lab.burau import (
    BurauImage,
    _letter_action,
    _root_length,
    _rotation_letters,
    _scalar_value,
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
    NotARoot,
    ZeroInput,
    minus_q_from_d,
    root_exponent,
    specialize_matrix,
    specialize_poly,
)
from burau_lab.laurent import LaurentMatrix, LaurentPoly, NotDivisible
from burau_lab.monodromy import rho_generators
from burau_lab.words import BraidWord, parse_word, random_word
from oracles import leibniz_det, q_point, scaled, writhe

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
        for n in range(2, 11):
            for i in range(1, n):
                g = burau_generator(n, i).matrix
                g_inv = burau_generator(n, i, inverse=True).matrix
                assert g_inv * g == LaurentMatrix.identity(n - 1)
                assert g * g_inv == LaurentMatrix.identity(n - 1)

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
            expected = scaled(LaurentMatrix.identity(n - 1), LaurentPoly.t(n))
            assert burau_of_word(tau).matrix == expected

    def test_sub_full_twist_affine_form(self):
        # The twist on the first three of four strands lands in affine form:
        # scalar t^3 bordered by the column ((1-t), (1-t^2)).
        got = burau_of_word(parse_word("T3", 4)).matrix
        T3 = LaurentPoly.t(3)
        expected = LaurentMatrix(
            [[T3, ZERO, ONE - T], [ZERO, T3, ONE - LaurentPoly.t(2)], [ZERO, ZERO, ONE]]
        )
        assert got == expected

    def test_half_twist_power_block(self):
        # sigma_1^d has the 2x2 block [[(-t)^d, 1 - t + ... + (-t)^(d-1)], [0, 1]].
        d = 5
        got = burau_of_word(parse_word(f"s1^{d}", 4)).matrix
        top = LaurentPoly({k: (-1) ** k for k in range(d)})
        expected = LaurentMatrix(
            [[LaurentPoly.monomial((-1) ** d, d), top, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
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
                det = leibniz_det(burau_of_word(w).matrix)
                assert det == LaurentPoly.monomial((-1) ** (writhe(w) % 2), writhe(w))

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
        with pytest.raises(NotDivisible):
            ev_map(outside, minus_q_from_d(5), 5)


class TestAffineExtension:
    def test_identity(self):
        eye = BurauImage(4, LaurentMatrix.identity(3))
        assert affine_extension(eye) == BurauImage(5, LaurentMatrix.identity(4))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_is_the_image_one_strand_up(self, n):
        rng = random.Random(n)
        words = [BraidWord(n, ())] + [random_word(n, length, rng) for length in (1, 5, 12, 20)]
        for w in words:
            extended = affine_extension(burau_of_word(w))
            assert type(extended) is BurauImage
            assert extended == burau_of_word(BraidWord(n + 1, w.letters)), w

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
        assert via_ev.matrix == specialize_matrix(image.matrix, mq)
        # -t evaluates to q = -(-q) at the top-left corner.
        assert via_ev.matrix.entry(0, 0) == -mq
        rng = random.Random(6)
        for n in (2, 3, 5):
            image = burau_of_word(random_word(n, 12, rng))
            assert ev_map(image, mq, n + 1).matrix == specialize_matrix(image.matrix, mq)

    def test_identity_any_padding(self):
        eye = BurauImage(4, LaurentMatrix.identity(3))
        mq = minus_q_from_d(5)
        pm = ev_map(eye, mq, 6)
        assert projectively_equal(pm.matrix, CycloMatrix.identity(4, mq.order))
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
        assert projectively_equal(pm.matrix, CycloMatrix.identity(3, mq.order))
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
        # (odd N when d = 2 mod 4), on words of length 0, 1 and random
        # length; and a central twist of 2500 letters.
        for d in range(2, 41):
            a = max(k for k in range(1, d) if math.gcd(k, d) == 1)
            mq = minus_q_from_d(d, a)
            for x in (mq, q_point(d, a), mq**3):
                for length in (0, 1, rng.randint(2, 40)):
                    cases.append((random_word(rng.randint(2, 6), length, rng), x))
        twist = parse_word("T5^125", 5)
        assert len(twist) == 2500
        cases += [(twist, minus_q_from_d(7)), (twist, minus_q_from_d(10))]
        for w, x in cases:
            fast = specialized_burau(w, x)
            slow = specialize_matrix(burau_of_word(w).matrix, x)
            assert fast == slow, (w, x)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_oracle_on_random_words_and_roots(self, data):
        # n = 2 is dim 1; (-q)^3, -q and q at odd N give the sign -1
        # rotations of the group-ring columns.
        n = data.draw(st.integers(min_value=2, max_value=10), label="n")
        letters = data.draw(
            st.lists(
                st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=40
            ),
            label="letters",
        )
        d = data.draw(st.integers(min_value=2, max_value=40), label="d")
        numerator = data.draw(
            st.sampled_from([a for a in range(1, d) if math.gcd(a, d) == 1]),
            label="numerator",
        )
        mq = minus_q_from_d(d, numerator)
        x = data.draw(st.sampled_from((mq, q_point(d, numerator), mq**3)), label="x")
        w = BraidWord(n, tuple(letters))
        assert specialized_burau(w, x) == specialize_matrix(burau_of_word(w).matrix, x)

    def test_letter_table_matches_field_evaluation(self):
        # Each entry s * t^e of the table at a root x = zeta_N^k must be
        # (sign, e' * (n-1)) for s * x^e = sign * zeta_N^e' evaluated in
        # Q(zeta_N): the rotation of a flat column of n-1 entries. sign is
        # -1 only for odd N, where -zeta_N^e' is no power of zeta_N.
        for d in range(2, 41):
            mq = minus_q_from_d(d)
            for x in (mq, q_point(d), mq**3):
                for n in range(2, 11):
                    table = _rotation_letters(n, x.order, root_exponent(x))
                    for index in range(1, n):
                        for letter_sign in (1, -1):
                            r, *entries = _letter_action(n, index, letter_sign < 0)
                            expected = []
                            for entry in entries:
                                if entry is None:
                                    expected.append(None)
                                    continue
                                value = specialize_poly(LaurentPoly.monomial(*entry), x)
                                try:
                                    s, e = 1, root_exponent(value)
                                except NotARoot:
                                    s, e = -1, root_exponent(-value)
                                expected.append((s, e * (n - 1)))
                            assert table[index, letter_sign] == (r, *expected), (
                                d, x, n, index, letter_sign
                            )

    def test_words_that_leave_columns_untouched(self):
        # A letter s_i changes only columns i-2, i-1 and i; every other
        # column is emitted as e_j. Words on a few generators, up to the CLI's
        # 20 strands, at -q, q and (-q)^3.
        rng = random.Random(17)
        cases = [(parse_word("s1 s2", 10), minus_q_from_d(3))]
        for n in (3, 4, 7, 10, 15, 20):
            for text in ("s1", f"s{n - 1}^-1", f"s{n // 2} s{max(1, n // 2 - 1)}^-1", "s1 s2^2"):
                cases.append((parse_word(text, n), minus_q_from_d(5)))
            low = rng.randint(1, n - 1)
            high = min(n - 1, low + rng.randint(0, 2))
            letters = tuple(
                (rng.randint(low, high), rng.choice((1, -1))) for _ in range(rng.randint(1, 12))
            )
            for d in (4, 6, 7, 10):
                mq = minus_q_from_d(d)
                for x in (mq, q_point(d), mq**3):
                    cases.append((BraidWord(n, letters), x))
        for w, x in cases:
            expected = specialize_matrix(burau_of_word(w).matrix, x)
            assert specialized_burau(w, x) == expected, (w, x)

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


class TestPointsThatAreNotRoots:
    """Wherever a Burau matrix or polynomial is specialized, a point that
    is not a power zeta_N^k of its own field's zeta_N raises NotARoot, and
    zero raises ZeroInput."""

    @pytest.mark.parametrize(
        "x, error",
        [
            (CyclotomicNumber.root_of_unity(5) + 1, NotARoot),
            (CyclotomicNumber.root_of_unity(5) * 2 - Fraction(1, 3), NotARoot),
            (CyclotomicNumber.from_fraction(2), NotARoot),
            (-CyclotomicNumber.root_of_unity(3), NotARoot),
            (CyclotomicNumber.zero(4), ZeroInput),
        ],
        ids=["1+zeta5", "2zeta5-1/3", "2", "-zeta3", "zero"],
    )
    def test_every_specialization_refuses_it(self, x, error):
        for specialize in (
            lambda: specialize_poly(LaurentPoly.t(), x),
            lambda: specialize_matrix(burau_generator(4, 1).matrix, x),
            lambda: specialized_burau(parse_word("s1 s2^-1", 4), x),
            lambda: ev_map(burau_generator(4, 1), x, 6),
            lambda: rho_generators(4, 5, x),
        ):
            with pytest.raises(error):
                specialize()


class TestPowerEarlyStop:
    """At a root of unity a word u^k stops at its first scalar prefix u^j,
    j | k, j < k; the result must still equal the full product."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_powers_agree_with_specializing_the_laurent_image(self, n):
        # Central twists (scalar at j = n), powers that are never scalar
        # before the end, delta^(n+1) (scalar prefix delta^n, n not dividing
        # n+1), and words of length 0 and 1, at -q and (-q)^3 for d = 2..40:
        # N even and odd, and sign -1 (d = 2 mod 4 at -q).
        delta = " ".join(f"s{i}" for i in range(1, n))
        texts = [f"({delta})^{n + 1}", "", "s1"]
        for k in (1, 2, n, 2 * n + 1):
            texts += [f"T{n}^{k}", f"s1^{k}"]
            if n > 2:
                texts.append(f"(s1 s2^-1)^{k}")
        if n > 2:
            # Never scalar unless the identity, so applied in full: kept short.
            texts += [f"T{n - 1}", f"T{n - 1}^2"]
        points = [x for d in range(2, 41) for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3)]
        for text in texts:
            w = parse_word(text, n)
            laurent = burau_of_word(w).matrix
            for x in points:
                assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, x)

    def test_central_twist_power_applies_one_twist(self, monkeypatch):
        applied = []
        inner = burau._word_product

        def counting(actions, *rest):
            actions = list(actions)
            applied.append(len(actions))
            return inner(actions, *rest)

        monkeypatch.setattr(burau, "_word_product", counting)
        word = parse_word("T10^27", 10)
        assert len(word) == 2430
        assert specialized_burau(word, minus_q_from_d(3)).is_identity
        assert sum(applied) <= 90

    def test_central_twist_powers_are_scalar_matrices(self):
        # The full twist's image is t^n * I, so T_n^k gives x^(n*k) on the
        # diagonal and zero elsewhere.
        for n in (2, 3, 5, 8):
            for d in (3, 4, 6, 7, 12):
                x = minus_q_from_d(d)
                for k in (2, 3, 5):
                    got = specialized_burau(parse_word(f"T{n}^{k}", n), x)
                    c = x ** (n * k)
                    assert got == scaled(CycloMatrix.identity(n - 1, x.order), c)
                    for i, row in enumerate(got.rows):
                        for j, entry in enumerate(row):
                            assert entry == c if i == j else entry.is_zero

    def test_scalar_test_is_made_in_the_field(self):
        # Columns over Z[x]/(x^6 - 1); 1 + x^2 + x^4 is nonzero there but
        # vanishes in Q(zeta_6).
        # Each column is flat: entry i's coefficient of x^k at index 2k + i.
        def flat(*columns):
            return [[a for pair in zip(*col) for a in pair] for col in columns]

        one, zero, minus_one = [1, 0, 0, 0, 0, 0], [0] * 6, [0, 0, 0, 1, 0, 0]
        vanishing = [1, 0, 1, 0, 1, 0]
        one_plus_vanishing = [2, 0, 1, 0, 1, 0]
        assert _scalar_value(flat([one, vanishing], [vanishing, one_plus_vanishing]), 6) == 1
        assert _scalar_value(flat([minus_one, zero], [zero, minus_one]), 6) == -1
        assert _scalar_value(flat([one, zero], [zero, minus_one]), 6) is None
        assert _scalar_value(flat([one, zero], [one, one]), 6) is None

    def test_root_length_is_the_shortest_root(self):
        def naive(letters):
            length = len(letters)
            return next(
                p for p in range(1, length + 1)
                if length % p == 0 and letters == letters[:p] * (length // p)
            )

        rng = random.Random(5)
        assert _root_length(()) == 0
        for _ in range(300):
            root = random_word(4, rng.randint(1, 6), rng).letters
            letters = root * rng.randint(1, 12)
            assert _root_length(letters) == naive(letters), letters


class TestProjectiveEquality:
    def test_scalar_multiples_identified(self):
        mq = minus_q_from_d(5)
        m = specialized_burau(parse_word("s1 s2", 4), mq)
        assert projectively_equal(m, scaled(m, mq**3))
        assert projectively_equal(m, scaled(m, -1 * mq))

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

    def test_zero_matrix_against_nonzero(self):
        zero = CyclotomicNumber.zero(4)
        z = CycloMatrix([[zero, zero], [zero, zero]])
        m = CycloMatrix.identity(2, 4)
        assert not projectively_equal(z, m)
        assert not projectively_equal(m, z)
        assert projectively_equal(z, z)
