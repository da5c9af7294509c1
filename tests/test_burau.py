import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau_lab import burau, words
from burau_lab.burau import (
    BurauImage,
    _laurent_row,
    _laurent_step_at,
    _read_out,
    _root_step_at,
    _unpack,
    affine_extension,
    burau_generator,
    burau_of_word,
    crossed_v,
    ev_map,
    projectively_equal,
    specialized_burau,
)
from burau_lab.cli import KERNEL_TABLE_FIXTURE
from burau_lab.cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    NotARoot,
    ZeroInput,
    minus_q_from_d,
    root_exponent,
    specialize_matrix,
    specialize_poly,
    _field_value,
    _roots_of_unity,
    _unit_rows,
)
from burau_lab.laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotDivisible,
    _accumulate,
    _identity_rows,
)
from burau_lab.monodromy import _values_at, rho_generators
from burau_lab.words import BraidWord, InvalidStrandCount, parse_word, random_word
from oracles import (
    inverse_letters,
    leibniz_det,
    naive_free_reduce,
    pack_slots,
    q_point,
    ring_row,
    rounding_root_step,
    scaled,
    shift,
    signed_slots,
    word_programs,
    writhe,
)

T = LaurentPoly.t()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def naive_word_image(word: BraidWord) -> LaurentMatrix:
    """Independent oracle: plain matrix product of the generator images."""
    out = LaurentMatrix(_identity_rows(word.strands_n - 1))
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
                assert g_inv * g == LaurentMatrix(_identity_rows(n - 1))
                assert g * g_inv == LaurentMatrix(_identity_rows(n - 1))

    def test_each_letter_is_its_letter_action_row(self):
        # The image of every letter (i, s) is I with row i-1 rewritten by
        # the word loop's rule: t^s in column i-1-s, -t^s in column i-1 and
        # 1 in column i-1+s, where those columns exist. monodromy checks
        # generators against the same rule at a root.
        for n in range(2, 11):
            for i in range(1, n):
                for s in (1, -1):
                    r, power = i - 1, LaurentPoly.t(s)
                    rows = [list(row) for row in LaurentMatrix(_identity_rows(n - 1)).rows]
                    for col, entry in ((r - s, power), (r, -power), (r + s, ONE)):
                        if 0 <= col < n - 1:
                            rows[r][col] = entry
                    expected = LaurentMatrix(rows)
                    assert burau_generator(n, i, s == -1).matrix == expected, (n, i, s)

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
        assert burau_of_word(BraidWord(4)).matrix == LaurentMatrix(_identity_rows(3))

    def test_group_inverse(self):
        w = parse_word("s1 s1^-1", 4)
        assert burau_of_word(w).matrix == LaurentMatrix(_identity_rows(3))

    def test_full_twist_is_central_scalar(self):
        for n in range(3, 11):
            tau = parse_word(f"T{n}", n)
            expected = scaled(LaurentMatrix(_identity_rows(n - 1)), LaurentPoly.t(n))
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
            [[LaurentPoly({d: (-1) ** d}), top, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        )
        assert got == expected

    def test_matches_naive_product(self):
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(4):
                w = random_word(n, 10, rng)
                assert burau_of_word(w).matrix == naive_word_image(w)

    def test_matches_the_product_of_generator_images(self):
        # The row maps, split at the end, against BurauImage products of
        # the generators, on random words of up to 40 letters.
        rng = random.Random(27)
        for n in range(2, 13):
            for _ in range(3):
                w = random_word(n, rng.randint(0, 40), rng)
                product = BurauImage(n, LaurentMatrix(_identity_rows(n - 1)))
                for i, e in w.letters:
                    product = product * burau_generator(n, i, e < 0)
                assert burau_of_word(w) == product, w

    def test_untouched_rows_are_the_identity_rows(self):
        # A row no letter touched is the very row tuple of
        # laurent._identity_rows, built from the shared one and zero.
        for n in (2, 3, 6, 11):
            units = _identity_rows(n - 1)
            empty = burau_of_word(BraidWord(n)).matrix
            for rows in (LaurentMatrix(_identity_rows(n - 1)).rows, empty.rows):
                assert all(row is unit for row, unit in zip(rows, units))
            for w in (BraidWord(n, ((1, 1),)), BraidWord(n, ((n - 1, -1), (n - 1, -1)))):
                touched = {i - 1 for i, _ in w.letters}
                rows = burau_of_word(w).matrix.rows
                for a, (row, unit) in enumerate(zip(rows, units)):
                    if a in touched:
                        assert row is not unit and row != unit, (n, w, a)
                    else:
                        assert row is unit and row[a] is ONE, (n, w, a)
                        assert all(e is ZERO for b, e in enumerate(row) if b != a)

    def test_a_word_times_its_inverse_applies_no_letters(self, monkeypatch):
        # w w^-1 cancels to nothing before any letter is applied, so every
        # row is the shared unit row of laurent._identity_rows.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        monkeypatch.setattr(burau, "_word_product", counting)
        rng = random.Random(8)
        for n in (2, 3, 6, 11):
            units = _identity_rows(n - 1)
            w = random_word(n, 15, rng)
            rows = burau_of_word(w * w.inverse()).matrix.rows
            assert all(row is unit for row, unit in zip(rows, units)), n
            assert sum(applied) == 0, n
            # Only the letters that survive the cancellation are applied.
            word = w * parse_word("s1 s1^-1", n) * w
            image = burau_of_word(word).matrix
            assert applied[-1] == len(naive_free_reduce(word.letters)) <= 30
            assert image == naive_word_image(word)
            applied.clear()

    def test_twist_counts_apply_no_letters(self, monkeypatch):
        # t^n * I is proved once per n by multiplying out T_n's letters; once
        # it is cached, a count of T_n applies no letters, and the rows
        # start as those of t^(n * net) * I.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        monkeypatch.setattr(burau, "_word_product", counting)
        burau._laurent_twist.cache_clear()
        image = burau_of_word(parse_word("T4^10", 4)).matrix
        assert applied == [12, 0]
        assert image == scaled(LaurentMatrix(_identity_rows(3)), LaurentPoly.t(40))
        applied.clear()
        for text, power in (("T4^10", 40), ("T4^-3", -12), ("T4^-2 T4^2", 0), ("", 0)):
            image = burau_of_word(parse_word(text, 4)).matrix
            assert image == scaled(LaurentMatrix(_identity_rows(3)), LaurentPoly.t(power)), text
        assert sum(applied) == 0
        # Only the letters between the counts are applied.
        w = parse_word("s1 T4^-2 s2 T4^3", 4)
        image = burau_of_word(w).matrix
        assert applied[-1] == 2
        assert image == naive_word_image(BraidWord(4, w.letters))

    def test_counts_of_other_blocks_are_spelled_out_in_full(self, monkeypatch):
        # No power of s_i or T_{n-1} is I over Z[t, t^-1], so their counts
        # are spelled out whole and every letter that survives the free
        # reduction is applied.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        monkeypatch.setattr(burau, "_word_product", counting)
        for text in ("s1^60", "T3^-60 s2", "s1^-7 s2^12 T4^5 s3^30", "(s1 s2^-1)^9"):
            w = parse_word(text, 4)
            image = burau_of_word(w)
            # The last call applies the word; a first one proves t^4 * I.
            assert applied[-1] == len(naive_free_reduce(w.letters)) - (60 if "T4" in text else 0), text
            assert image == burau_of_word(BraidWord(4, w.letters)), text

    def test_untouched_rows_under_a_twist_are_not_the_unit_rows(self):
        # With net != 0 a row no letter touched is t^(n * net) on the
        # diagonal, not the shared unit row.
        for n in (2, 3, 6):
            units = _identity_rows(n - 1)
            w = parse_word(f"T{n}^2 s1", n)
            rows = burau_of_word(w).matrix.rows
            assert rows == naive_word_image(BraidWord(n, w.letters)).rows
            for a, row in enumerate(rows[1:], 1):
                assert row is not units[a] and row[a] == LaurentPoly.t(2 * n), (n, a)

    @pytest.mark.parametrize("fault", ["short period", "wrong letter"])
    def test_a_corrupted_laurent_proof_raises_the_typed_error(self, monkeypatch, fault):
        # t^n * I over Z[t, t^-1] is proved by multiplying out T_n's letters
        # as words spells them; letters that are not T_n refuse every count.
        period = ((1, 1), (2, 1)) if fault == "short period" else ((1, 1), (2, 1), (2, 1))
        for module in (words, burau):
            monkeypatch.setattr(module, "_twist_block", lambda p: period * 4)
        burau._laurent_twist.cache_clear()
        try:
            with pytest.raises(burau.TwistProofFailed, match=r"^T4 is not t\^4 \* I over Z\[t, t\^-1\]$"):
                burau_of_word(parse_word("s1 T4^2", 4))
        finally:
            burau._laurent_twist.cache_clear()

    def test_determinant_tracks_writhe(self):
        rng = random.Random(5)
        for n in (3, 4, 5, 6):
            for _ in range(4):
                w = random_word(n, 8, rng)
                det = leibniz_det(burau_of_word(w).matrix)
                assert det == LaurentPoly({writhe(w): (-1) ** (writhe(w) % 2)})

    def test_image_wrapper_validates_dim(self):
        with pytest.raises(ValueError):
            BurauImage(4, LaurentMatrix(_identity_rows(2)))

    def test_image_wrapper_needs_two_strands(self):
        # B_n has a Burau image only for n >= 2; a 1x1 matrix is no image
        # on fewer strands, and its affine extension would be B_(n+1)'s.
        one = LaurentMatrix(_identity_rows(1))
        for strands_n in (1, 0, -3):
            with pytest.raises(InvalidStrandCount, match=f"got {strands_n}$"):
                BurauImage(strands_n, one)
        assert BurauImage(2, one).matrix is one

    def test_image_wrapper_needs_an_integer_strand_count(self):
        # 2.0 - 1 == 1 == dim, so only the type tells it from 2.
        with pytest.raises(InvalidStrandCount, match="not an integer, got float$"):
            BurauImage(2.0, LaurentMatrix(_identity_rows(1)))


def _row_map(row):
    """A row of polynomials as the word loop's coefficient map: key
    e * dim + j for the coefficient of t^e in entry j."""
    dim = len(row)
    return {e * dim + j: c for j, p in enumerate(row) for e, c in p.coeffs.items()}


class TestLaurentStep:
    @staticmethod
    def _cases(rng):
        """(x, y, z, s), rows of 1 to 4 polynomials, with many
        cancellations: z shares terms with y, and every third case has
        z = y + t^-s * x entrywise, so x + t^s * (y - z) is 0."""
        def poly():
            return LaurentPoly(
                [(rng.randint(-4, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 5))]
            )

        for case in range(600):
            s = rng.choice((1, -1))
            dim = rng.randint(1, 4)
            x, y = [poly() for _ in range(dim)], [poly() for _ in range(dim)]
            if case % 3 == 0:
                z = [b + shift(a, -s) for a, b in zip(x, y)]
            elif case % 3 == 1:
                z = [b + poly() for b in y]
            else:
                z = [poly() for _ in range(dim)]
            yield x, y, z, s

    def test_merge_matches_the_public_operators(self):
        zeros = 0
        for x, y, z, s in self._cases(random.Random(24)):
            dim = len(x)
            expected = [a + shift(b - c, s) for a, b, c in zip(x, y, z)]
            for a, b, c, want in zip(x, y, z, expected):
                # The constructor sums repeated exponents by a loop of its own.
                summed = LaurentPoly(
                    [*a.coeffs.items()]
                    + [(e + s, v) for e, v in b.coeffs.items()]
                    + [(e + s, -v) for e, v in c.coeffs.items()]
                )
                assert want == summed
                acc = a.coeffs
                assert _accumulate(_accumulate(acc, b._coeffs, s), c._coeffs, s, -1) is acc
                assert acc == want.coeffs
            stepped = _laurent_step_at(dim)(_row_map(x), _row_map(y), _row_map(z), s)
            assert stepped == _row_map(expected)
            assert 0 not in stepped.values()
            entries = _laurent_row(stepped, dim)
            assert entries == expected
            assert [hash(e) for e in entries] == [hash(e) for e in expected]
            if not stepped:
                zeros += 1
                assert all(e is ZERO for e in entries)
        assert zeros >= 200

    def test_untouched_entries_are_kept(self):
        # Where b and c are zero, a's entry comes through as it is; the
        # step copies a's map and changes none of its inputs.
        a = [LaurentPoly({-1: 2, 3: -5}), ONE, T]
        b = [ZERO, T, ZERO]
        c = [ZERO, ZERO, ZERO]
        maps = [_row_map(a), _row_map(b), _row_map(c)]
        before = [dict(m) for m in maps]
        stepped = _laurent_step_at(3)(*maps, 1)
        assert maps == before and stepped is not maps[0]
        assert _laurent_row(stepped, 3) == [a[0], ONE + LaurentPoly.t(2), T]


class TestCrossedHomomorphism:
    def test_generator_values(self):
        assert crossed_v(burau_generator(4, 1)) == (ZERO, ZERO, ZERO)
        assert crossed_v(burau_generator(4, 2)) == (ZERO, ZERO, ZERO)
        assert crossed_v(burau_generator(4, 3)) == (ZERO, ZERO, ONE)

    def test_identity_value(self):
        eye = BurauImage(4, LaurentMatrix(_identity_rows(3)))
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
        eye = BurauImage(4, LaurentMatrix(_identity_rows(3)))
        assert affine_extension(eye) == BurauImage(5, LaurentMatrix(_identity_rows(4)))

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
        eye = BurauImage(4, LaurentMatrix(_identity_rows(3)))
        mq = minus_q_from_d(5)
        pm = ev_map(eye, mq, 6)
        assert projectively_equal(pm.matrix, CycloMatrix(_unit_rows(mq.order, 4)))
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
        assert projectively_equal(pm.matrix, CycloMatrix(_unit_rows(mq.order, 3)))
        assert not specialize_matrix(tau.matrix, mq).is_identity

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            ev_map(burau_generator(4, 1), minus_q_from_d(5), 4)

    def test_rejects_zero_point(self):
        with pytest.raises(ZeroInput):
            ev_map(burau_generator(4, 1), CyclotomicNumber.zero(4), 5)

    @pytest.mark.parametrize("m", [4.0, 5.5])
    def test_rejects_a_non_integer_m(self, m):
        # 4.0 used to be accepted, and 5.5 raised a bare TypeError from range.
        with pytest.raises(ValueError, match="^m is not an integer, got float$"):
            ev_map(burau_generator(3, 1), minus_q_from_d(5), m)


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
        # n = 2 is dim 1; -q, q and (-q)^3 reach both parities of N, and
        # letter entries x^p with p >= H, whose rotation flips the sign of
        # the part that does not wrap.
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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_the_dense_product(self, n):
        # The oracle multiplies dense generator images in word order, so it
        # shares no code with the row loop beyond the generator images, which
        # test_each_letter_is_its_letter_action_row pins.
        rng = random.Random(n)
        words = [BraidWord(n, ()), random_word(n, 1, rng)]
        words += [random_word(n, rng.randint(2, 24), rng) for _ in range(4)]
        for w in words:
            dense = naive_word_image(w)
            for d in range(2, 41):
                a = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
                mq = minus_q_from_d(d, a)
                for x in (mq, q_point(d, a), mq**3):
                    assert specialized_burau(w, x) == specialize_matrix(dense, x), (w, x)

    def test_letter_table_matches_field_evaluation(self):
        # At a root x = zeta_N^k the word is multiplied out in
        # Z[x]/(x^H + 1), H = N/2 for even N and N for odd N, with
        # x -> zeta_2H, on packed rows of dim * H slots of W bits, the
        # coefficient of x^e in entry j in slot e * dim + j. t^s is one
        # power x^p, 0 <= p < 2H: x^p evaluated at zeta_2H is y^s, y = x
        # written in Q(zeta_2H). The step of _root_step_at must multiply a
        # unit row x^e in entry j by x^p, wrapping with a sign change past
        # x^(H-1), and _field_value carries x^p to x^s in Q(zeta_N).
        def ring_power(p, half):
            v = [0] * half
            v[p % half] = -1 if p % (2 * half) >= half else 1
            return v

        for d in range(2, 41):
            mq = minus_q_from_d(d)
            for x in (mq, q_point(d), mq**3):
                order = x.order
                half = order // 2 if order % 2 == 0 else order
                k = root_exponent(x)
                y = CyclotomicNumber.root_of_unity(2 * half, 2 * half // order * k)
                powers = {
                    s: next(
                        p for p in range(2 * half)
                        if CyclotomicNumber.root_of_unity(2 * half, p)
                        == specialize_poly(LaurentPoly.t(s), y)
                    )
                    for s in (1, -1)
                }
                for n in range(2, 11):
                    dim = n - 1
                    size = dim * half
                    width = 64 if (d + n) % 2 else 128
                    step = _root_step_at(order, k, dim, width)
                    for index in range(1, n):
                        for s in (1, -1):
                            case = (d, x, n, index, s)
                            p = powers[s]
                            j = index - 1
                            # x^(H-1) * x^p wraps past x^(H-1) unless H divides p.
                            for e in {0, half - 1}:
                                unit = 1 << (e * dim + j) * width
                                flat = _unpack(step(0, unit, 0, s), size, width)
                                entry = ring_power(p + e, half)
                                assert flat[j::dim] == entry, (case, e)
                                assert sum(map(abs, flat)) == 1, (case, e)
                                if e == 0:
                                    assert _field_value(order, entry) == specialize_poly(
                                        LaurentPoly.t(s), x
                                    ), case

    def test_signed_unit_vectors_are_the_shared_roots(self):
        # A single +-x^e is read from the field's table of roots of unity;
        # it must equal the reduction of that vector, after the signed
        # permutation x^e -> (-1)^e zeta_N^(e(N+1)/2) for odd N; t^-1, read
        # from the same table, must be t's inverse, and the signature
        # check's letter entries -t, 1 and t its shared instances.
        for order in range(1, 81):
            half = order // 2 if order % 2 == 0 else order
            for e in range(half):
                for c in (1, -1):
                    powers = [0] * order
                    if order % 2:
                        powers[e * (order + 1) // 2 % order] = -c if e % 2 else c
                    else:
                        powers[e] = c
                    v = [0] * half
                    v[e] = c
                    value = _field_value(order, v)
                    assert value == CyclotomicNumber.from_powers(order, powers), (order, e, c)
                    assert _field_value(order, list(v)) is value
            roots = _roots_of_unity(order)
            for k in range(order):
                t = CyclotomicNumber.root_of_unity(order, k)
                t_inverse = roots[-k * (len(roots) // order) % len(roots)]
                (minus_t, one, at_t), _, _ = _values_at(order, k)
                assert (t * t_inverse).is_one and one.is_one
                assert at_t is t and minus_t == -t

    def test_rings_of_degree_one(self):
        # H = 1: at order 1 (x = 1) and order 2 (x = -1) the ring is
        # Z[x]/(x + 1) and each column holds one int per entry.
        rng = random.Random(23)
        points = [CyclotomicNumber.one(1), CyclotomicNumber.root_of_unity(2)]
        assert points[1] == -1
        for n in range(2, 7):
            words = [BraidWord(n, ())]
            words += [random_word(n, rng.randint(1, 30), rng) for _ in range(8)]
            words += [parse_word(f"T{n}^{k}", n) for k in (1, 2, 3)]
            for w in words:
                for x in points:
                    expected = specialize_matrix(burau_of_word(w).matrix, x)
                    assert specialized_burau(w, x) == expected, (w, x)

    def test_words_that_leave_columns_untouched(self):
        # A letter s_i changes only row i-1; every other row is emitted as
        # e_i. Words on a few generators, up to the CLI's 20 strands, at -q,
        # q and (-q)^3.
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

    def test_untouched_rows_are_the_identity_rows(self):
        # Every row but the letter's is the very row tuple of
        # cyclotomic._unit_rows, built from the field's shared one and zero.
        for n, d in ((3, 5), (6, 7), (10, 12)):
            x = minus_q_from_d(d)
            identity = CycloMatrix(_unit_rows(x.order, n - 1))
            for i in range(1, n):
                got = specialized_burau(BraidWord(n, ((i, 1),)), x)
                for a, (row, unit) in enumerate(zip(got.rows, identity.rows)):
                    if a != i - 1:
                        assert row is unit and row == unit, (n, d, i, a)
                        assert row[a] is CyclotomicNumber.one(x.order)
                assert got.rows[i - 1] != identity.rows[i - 1]

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
    """At a root of unity a power u^k is applied in one pass, its full
    twists taken out; the result must still equal the full product, also
    where a partial power u^j is already scalar."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_powers_agree_with_specializing_the_laurent_image(self, n):
        # Central twists, powers that are never scalar before the end,
        # delta^(n+1) (scalar at delta^n, n not dividing n+1), and words of
        # length 0 and 1, at -q and (-q)^3 for d = 2..40: N even and odd,
        # and sign -1 (d = 2 mod 4 at -q).
        delta = " ".join(f"s{i}" for i in range(1, n))
        texts = [f"({delta})^{n + 1}", "", "s1"]
        for k in (1, 2, n, 2 * n + 1):
            texts += [f"T{n}^{k}", f"s1^{k}"]
            if n > 2:
                texts.append(f"(s1 s2^-1)^{k}")
        if n > 2:
            # Never scalar unless the identity, so applied in full: kept short.
            texts += [f"T{n - 1}", f"T{n - 1}^2"]
            # (s1 s2 s1)^2 is T3 in another spelling, which is not read as
            # a twist: central in B_3.
            texts += [f"(s1 s2 s1)^{2 * r}" for r in (1, 2, 3)]
        points = [x for d in range(2, 41) for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3)]
        for text in texts:
            w = parse_word(text, n)
            laurent = burau_of_word(w).matrix
            for x in points:
                assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, x)
        # Powers of the kernel generators s1^d and T_{n-1}^j (the known
        # kernel rows): at -q for that d their partial powers u^d and u^j
        # are already the identity.
        twist_orders = {d: j for strands, d, j, _ in KERNEL_TABLE_FIXTURE if strands == n and j}
        for d in range(2, 41):
            texts = [f"s1^{d * r}" for r in (2, 3)]
            if d in twist_orders:
                texts += [f"T{n - 1}^{twist_orders[d] * r}" for r in (2, 3)]
            for text in texts:
                w = parse_word(text, n)
                laurent = burau_of_word(w).matrix
                for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3):
                    assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, x)

    def test_central_twist_power_applies_one_twist(self, monkeypatch):
        # The proof that T10 is t^10 * I multiplies out one T10; once it is
        # cached, T10^27 applies no letters at all.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        monkeypatch.setattr(burau, "_word_product", counting)
        word = parse_word("T10^27", 10)
        assert len(word) == 2430
        x = minus_q_from_d(3)
        burau._twist_at.cache_clear()
        assert specialized_burau(word, x).is_identity
        assert sum(applied) == 90
        applied.clear()
        assert specialized_burau(word, x).is_identity
        assert applied == []

    def test_central_twist_powers_are_scalar_matrices(self):
        # The full twist's image is t^n * I, so T_n^k gives x^(n*k) on the
        # diagonal and zero elsewhere.
        for n in (2, 3, 5, 8):
            for d in (3, 4, 6, 7, 12):
                x = minus_q_from_d(d)
                for k in (2, 3, 5):
                    got = specialized_burau(parse_word(f"T{n}^{k}", n), x)
                    c = x ** (n * k)
                    assert got == scaled(CycloMatrix(_unit_rows(x.order, n - 1)), c)
                    for i, row in enumerate(got.rows):
                        for j, entry in enumerate(row):
                            assert entry == c if i == j else entry.is_zero

    def test_scalar_test_is_made_in_the_field(self):
        # Rows over Z[x]/(x^3 + 1), the ring of orders 6 and 3, where
        # x -> zeta_6; 1 - x + x^2 is nonzero there but vanishes in the field.
        # Each row is flat, entry j's coefficient of x^k at index 2k + j, and
        # packed into one int of 6 slots of 64 bits, as the word loop holds
        # it; the read-out must give the scalar matrix the rows stand for.
        def read_out(order, *rows):
            flat = [[a for pair in zip(*row) for a in pair] for row in rows]
            return _read_out([0, *(burau._pack(row, 64) for row in flat), 0], order, 2, 64)

        def scalar(order, c):
            return CycloMatrix([[c, CyclotomicNumber.zero(order)], [CyclotomicNumber.zero(order), c]])

        one, zero, minus_one = [1, 0, 0], [0] * 3, [-1, 0, 0]
        vanishing = [1, -1, 1]
        one_plus_vanishing = [2, -1, 1]
        assert read_out(6, [one, vanishing], [vanishing, one_plus_vanishing]) == scalar(6, 1)
        assert read_out(6, [minus_one, zero], [zero, minus_one]) == scalar(6, -1)
        assert read_out(6, [one, zero], [zero, minus_one]) != scalar(6, 1)
        assert read_out(6, [one, zero], [one, one]) != scalar(6, 1)
        # At odd order 3, x is zeta_6 = -zeta_3^2: x^2 is zeta_3 and -x is
        # zeta_3^2, and the vanishing vector still vanishes.
        x_squared, minus_x = [0, 0, 1], [0, -1, 0]
        zeta3 = CyclotomicNumber.root_of_unity(3)
        assert read_out(3, [x_squared, vanishing], [vanishing, [1, -1, 2]]) == scalar(3, zeta3)
        assert read_out(3, [minus_x, zero], [zero, minus_x]) == scalar(3, zeta3**2)
        assert read_out(3, [one, vanishing], [zero, minus_one]) != scalar(3, 1)
        assert read_out(3, [x_squared, [1, 1, 0]], [zero, x_squared]) != scalar(3, zeta3)


class TestTwistBlocks:
    """A word holds each power it was written with as a count (block, k).
    At a root of unity the counts of T_n are added up to net and the rest's
    image is multiplied by t^(n * net); a count of s_i or T_{n-1} is reduced
    by its order there. The result must still equal the product of every
    letter. A twist typed as letters is letters, and costs them."""

    @staticmethod
    def twist_count(w):
        """The sum of the word's counts whose block is T_n's letters."""
        n = w.strands_n
        block = tuple((i, 1) for i in range(1, n)) * n
        return sum(k for b, k in w._segments if b == block)

    @staticmethod
    def words_with_twists(n, rng, count):
        """Random words with T_n^+-1 blocks typed as letters at random
        places: adjacent blocks of either sign, blocks next to partial
        periods of either sign, and words that are proper powers of a root
        holding a block."""
        delta = tuple((i, 1) for i in range(1, n))
        inverse = tuple((i, -1) for i in reversed(range(1, n)))
        twist, untwist = delta * n, inverse * n
        found = []
        for _ in range(count):
            letters = list(random_word(n, rng.randint(0, 12), rng).letters)
            pieces = []
            for _ in range(rng.randint(1, 4)):
                block, sign = rng.choice(((twist, 1), (untwist, -1)))
                piece = list(block)
                if rng.random() < 0.5:
                    # A partial period on one side, of either sign.
                    part = list(rng.choice((delta, inverse))[:rng.randint(1, n - 1)])
                    piece = part + piece if rng.random() < 0.5 else piece + part
                if rng.random() < 0.3:
                    piece += block
                pieces.append((rng.randint(0, len(letters)), piece))
            # Last place first, so that no piece lands inside another.
            for at, piece in sorted(pieces, key=lambda p: p[0], reverse=True):
                letters[at:at] = piece
            found.append(BraidWord(n, tuple(letters)))
        # A proper power whose root holds a block.
        found.append(BraidWord(n, (((n - 1, 1), (1, -1)) + twist) * 3))
        # (T_n s1^-1 s1 delta)^(2n), whose n-th power, a proper divisor of
        # 2n, is already scalar.
        found.append(BraidWord(n, (twist + ((1, -1), (1, 1)) + delta) * (2 * n)))
        return found

    @pytest.mark.parametrize("n", range(2, 11))
    def test_words_with_twist_blocks_equal_the_full_product(self, n):
        rng = random.Random(100 + n)
        # d = 3, 5, 7, 12 give even N = 6, 10, 14, 12 and d = 6, 10 odd
        # N = 3, 5; the cubes of -q reach other exponents k.
        points = [x for d in (3, 5, 6, 7, 10, 12) for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3)]
        for w in self.words_with_twists(n, rng, 4):
            # Blocks typed as letters stay letters: the word is one run, and
            # every letter is applied unless the run is T_n's block itself.
            assert w._segments == ((w.letters, 1),)
            net = self.twist_count(w)
            assert self.rest_and_net(w) == (([], 1) if net else (list(w.letters), 0))
            if not net:
                # A word of one run hands the run itself to the free reduction.
                assert burau._rest_and_net(w)[0] is w._segments[0][0]
            laurent = burau_of_word(w).matrix
            for x in points:
                assert specialized_burau(w, x) == specialize_matrix(laurent, x), (w, x)
        # T_n alone, as a count or typed as letters, is one segment and is
        # all net, with no letters left to apply.
        for w in (parse_word(f"T{n}", n), BraidWord(n, burau._twist_block(n))):
            assert w._segments == ((burau._twist_block(n), 1),)
            assert burau._rest_and_net(w) == ([], 1)
            assert burau._rest_and_net(w, (7, 1)) == ([], 1)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_small_words_with_twist_blocks_equal_the_dense_product(self, n):
        rng = random.Random(200 + n)
        for w in self.words_with_twists(n, rng, 3):
            dense = naive_word_image(w)
            for d in (3, 4, 6, 10, 40):
                for x in (minus_q_from_d(d), q_point(d)):
                    assert specialized_burau(w, x) == specialize_matrix(dense, x), (w, x)

    @pytest.mark.parametrize("text, n", [("(s1 s2^-1)^50 s1 T3", 3), ("T4^-1 (s1 s2^-1 s3)^40 T4^2", 4)])
    def test_twists_rotate_rows_that_were_widened(self, monkeypatch, text, n):
        # What is left outgrows 64-bit slots, so the rows that start as the
        # twists' power are widened to 128-bit slots.
        packed = TestPackedRows.record_widenings(monkeypatch)
        w = parse_word(text, n)
        assert self.twist_count(w) != 0
        laurent = burau_of_word(w).matrix
        for d in (7, 12, 40):
            x = minus_q_from_d(d)
            packed.clear()
            assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, d)
            assert 128 in packed, (text, d)

    @pytest.mark.parametrize(
        "text, n", [("s1 T3 s2^-1", 3), ("T4^-1 s2 s3^-1 s1 T4^2", 4), ("s2 T5^-1 s1^-1 s4", 5)]
    )
    def test_rest_starts_from_the_twists_power(self, text, n):
        # Letters are left after the twists are taken out, so the product
        # starts from the rows of x^twist * I: x^twist itself in [0, H) or
        # -x^(twist - H) in [H, 2H), at even and odd N. Rows widened to
        # 128-bit slots are test_twists_rotate_rows_that_were_widened's.
        w = parse_word(text, n)
        net = self.twist_count(w)
        assert net and len(w) > abs(net) * n * (n - 1)
        dense = naive_word_image(w)
        parities, halves = set(), set()
        for d in (3, 4, 5, 6, 7, 9, 10, 12, 40):
            x = minus_q_from_d(d)
            order = x.order
            roots = _roots_of_unity(order)
            twist = burau._twist_at(order, root_exponent(x), n) * net % len(roots)
            assert specialized_burau(w, x) == specialize_matrix(dense, x), (text, d)
            if twist:
                parities.add(order % 2)
                halves.add(twist >= len(roots) // 2)
        assert parities == {0, 1} and halves == {False, True}, text

    @staticmethod
    def naive_order(c):
        """The least e >= 1 with c^e = 1, by repeated multiplication; None
        when c is 1, as no count is reduced by that order."""
        if c.is_one:
            return None
        e, power = 1, c
        while not power.is_one:
            power, e = power * c, e + 1
        return e

    @staticmethod
    def rest_and_net(w, root=None):
        """``burau._rest_and_net`` with its rest as a list, as ``naive_scan``
        gives it: for a word of one run (run, 1), the rest is the run's
        tuple itself."""
        rest, net = burau._rest_and_net(w, root)
        return list(rest), net

    @classmethod
    def naive_scan(cls, w, x=None):
        """(rest, net) read off w's segments one at a time: a count of T_n's
        letters adds to net; at t = x a count of s_i or of T_{n-1}'s letters
        is brought below the order of -t or t^(n-1) by subtracting that
        order again and again; what is left is spelled out letter by
        letter."""
        n = w.strands_n
        delta = tuple((i, 1) for i in range(1, n))
        orders = {}
        if x is not None:
            for i in range(1, n):
                orders[((i, 1),)] = cls.naive_order(-x)
            if n > 2:
                orders[delta[:-1] * (n - 1)] = cls.naive_order(x ** (n - 1))
        rest, net = [], 0
        for block, k in w._segments:
            if block == delta * n:
                net += k
                continue
            o = orders.get(block)
            while o and abs(k) >= o:
                k -= o if k > 0 else -o
            for _ in range(abs(k)):
                rest.extend(block if k > 0 else inverse_letters(block))
        return rest, net

    @staticmethod
    def program(n, rng, orders=None):
        """A word text of about 1 to 8 terms on n strands: counts of T_n,
        of T_{n-1} and of s_i, each a multiple of its order (4 where it
        has none) by 0 to 3, one under, one over or exact, of either sign,
        and bare letters, T<p> and partial periods of T_n typed as letters,
        so that runs join between the counts."""
        orders = orders or {}
        terms = []
        for _ in range(rng.randint(1, 8)):
            r = rng.random()
            if r < 0.6:
                name = rng.choice([f"s{rng.randint(1, n - 1)}", f"T{n}"] + ([f"T{n - 1}"] if n > 2 else []))
                o = orders.get(name[0] if name[0] == "s" else name, 4)
                e = o * rng.randint(0, 3) + rng.choice((-1, 0, 0, 1))
                terms.append(f"{name}^{rng.choice((1, -1)) * e}")
            elif r < 0.8:
                terms.append(rng.choice([f"s{rng.randint(1, n - 1)}", f"s{rng.randint(1, n - 1)}^-1", f"T{rng.randint(2, n)}"]))
            else:
                period = [f"s{i}" for i in range(1, n)] * rng.randint(1, n)
                terms.append(" ".join(period[:rng.randint(1, len(period))]))
        return " ".join(terms)

    def test_strip_matches_a_naive_scan(self):
        # Parsed words with counts of T_n of any sign and size, bare twists,
        # other counts and runs typed as letters: their counts of T_n add up
        # to net and every other segment is spelled out, as a naive scan of
        # the segments finds.
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(2, 6)
            w = parse_word(self.program(n, rng), n)
            assert self.rest_and_net(w) == self.naive_scan(w), w._segments

    def test_cuts_match_a_naive_scan(self):
        # At roots of even and odd N, their cubes and t = -1, parsed words
        # whose counts of s_i and T_{n-1} are near multiples of their orders
        # there: each such count is reduced below its order, with its sign,
        # as a naive scan of the segments finds, and the image is the
        # spelled-out word's.
        rng = random.Random(12)
        points = [minus_q_from_d(d) ** e for d in (3, 4, 5, 6, 7, 8, 10, 12) for e in (1, 3)]
        points.append(CyclotomicNumber.root_of_unity(2))
        for n in range(2, 8):
            for x in points:
                root = (x.order, root_exponent(x))
                orders = {"s": self.naive_order(-x), f"T{n - 1}": self.naive_order(x ** (n - 1))}
                for _ in range(4):
                    w = parse_word(self.program(n, rng, {k: o for k, o in orders.items() if o}), n)
                    assert self.rest_and_net(w, root) == self.naive_scan(w, x), (n, x, w._segments)
                    if len(w) <= 400:
                        flat = BraidWord(n, w.letters)
                        assert specialized_burau(w, x) == specialized_burau(flat, x), (n, x, w._segments)

    def test_cut_orders_are_the_golden_rows_j_and_d(self):
        # At each golden row's root, -t has order d, and t^(n-1) has order
        # j wherever the row needs a power of T_{n-1}.
        for n, d, j, _ in KERNEL_TABLE_FIXTURE:
            x = minus_q_from_d(d)
            cuts = burau._cut_orders(x.order, root_exponent(x), n)
            assert all(cuts[((i, 1),)] == (1, d) for i in range(1, n)), (n, d)
            orders = dict(cuts.values())
            assert orders[1] == d, (n, d)
            if j:
                assert orders[n - 1] == j, (n, d)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_cut_runs_give_the_dense_product(self, n):
        # Random words with counts s_i^+-(o r) and T_{n-1}^+-(o r), one over
        # or one short, inserted, at roots of even and odd N and their cubes,
        # and at points where a block has no power that is I: t = -1, where
        # -t = 1, and t = zeta_3 on 4 strands, where t^3 = 1. The counts are
        # reduced by o; the dense product multiplies every letter.
        rng = random.Random(300 + n)
        points = [minus_q_from_d(d) ** e for d in (3, 5, 6, 7, 8) for e in (1, 3)]
        points.append(CyclotomicNumber.root_of_unity(2))
        if n == 4:
            points.append(minus_q_from_d(6))
        kinds = (1, n - 1) if n > 2 else (1,)
        for x in points:
            orders = dict(burau._cut_orders(x.order, root_exponent(x), n).values())
            if x.order == 2:
                assert 1 not in orders
            if n == 4 and x == minus_q_from_d(6):
                assert 3 not in orders
            for _ in range(2):
                letters = random_word(n, rng.randint(0, 8), rng).letters
                pieces, done = [], 0
                for at in sorted(rng.randint(0, len(letters)) for _ in range(rng.randint(1, 3))):
                    p = rng.choice(kinds)
                    count = orders.get(p, 4) * rng.randint(1, 2) + rng.choice((-1, 0, 0, 1))
                    block = ((rng.randint(1, n - 1), 1),) if p == 1 else words._twist_block(p)
                    pieces += [(letters[done:at], 1), (block, rng.choice((1, -1)) * count)]
                    done = at
                pieces.append((letters[done:], 1))
                w = words._from_segments(n, words._joined(pieces))
                assert specialized_burau(w, x) == specialize_matrix(naive_word_image(w), x), (w, x)

    def test_long_power_of_a_letter_applies_no_letters(self, monkeypatch):
        # s1^999995 at d = 5 is s1^(5 * 199999): its count is reduced to 0,
        # and once s1^5 is proved no letter is applied. One short, four
        # letters are left.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        x = minus_q_from_d(5)
        specialized_burau(parse_word("s1^5", 3), x)
        monkeypatch.setattr(burau, "_word_product", counting)
        assert specialized_burau(parse_word("s1^999995", 3), x).is_identity
        assert applied == []
        short = specialized_burau(parse_word("s1^999994", 3), x)
        assert applied == [4]
        assert short == specialized_burau(parse_word("s1^-1", 3), x)

    @pytest.mark.parametrize(
        "text, n, claim",
        [("s2 s1^5 s2^-1", 3, r"s1\^5"), ("s3 T3^10 s1", 4, r"T3\^10"), ("T2^10 s2 s1^-1", 3, r"T2\^5")],
    )
    def test_a_corrupted_cut_proof_raises_the_typed_error(self, monkeypatch, text, n, claim):
        # The first reduction that relies on an order at a root proves the
        # block's power I there; a read-out that is not exactly I refuses
        # it. A word with nothing to reduce needs no proof.
        def corrupted(rows, order, *rest):
            return scaled(_read_out(rows, order, *rest), CyclotomicNumber.root_of_unity(order))

        x = minus_q_from_d(5)
        burau._prove_cut.cache_clear()
        monkeypatch.setattr(burau, "_read_out", corrupted)
        try:
            specialized_burau(parse_word("s1^4 s2", n), x)
            assert burau._prove_cut.cache_info().currsize == 0
            with pytest.raises(burau.TwistProofFailed, match=rf"^{claim} is not I at t = zeta_10\^"):
                specialized_burau(parse_word(text, n), x)
        finally:
            burau._prove_cut.cache_clear()

    def test_a_cut_is_proved_once_per_root_and_block(self, monkeypatch):
        # The first reduction of a count of s1 by 5 at d = 5 multiplies out
        # s1^5 once; a later one of the same block reuses the proof, and a
        # word with nothing to reduce proves nothing.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        x = minus_q_from_d(5)
        burau._prove_cut.cache_clear()
        monkeypatch.setattr(burau, "_word_product", counting)
        assert not specialized_burau(parse_word("s1^4 s2 s1^3", 4), x).is_identity
        assert sum(applied) == 8
        applied.clear()
        assert specialized_burau(parse_word("s2 s1^10 s2^-1", 4), x).is_identity
        assert applied == [5]
        applied.clear()
        assert specialized_burau(parse_word("s3^-5", 4), x).is_identity
        assert applied == []

    def test_closure_word_applies_only_the_conjugator_letters(self, monkeypatch):
        # With its twists taken out, g T_n^l g^-1 is g g^-1, which cancels:
        # no letter is applied. So is g s1^d g^-1 once the count s1^d is
        # reduced to 0, the letter at g's end, s1^-1, being no part of it.
        # The near miss g s1^(d+1) g^-1 keeps one s1 of its count and
        # applies exactly the letters of g s1 g^-1 freely reduced.
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        rng = random.Random(3)
        for n, d, l in ((4, 5, 5), (7, 3, 6), (10, 3, 3)):
            x = minus_q_from_d(d)
            g = random_word(n, 20, rng) * BraidWord(n, ((1, -1),))
            closure = g * parse_word(f"T{n}^{l}", n) * g.inverse()
            conjugate = g * parse_word(f"s1^{d}", n) * g.inverse()
            near_miss = g * parse_word(f"s1^{d + 1}", n) * g.inverse()
            # The first calls prove t^n and s1^d at this root; later calls
            # reuse the proofs.
            specialized_burau(closure, x)
            specialized_burau(conjugate, x)
            monkeypatch.setattr(burau, "_word_product", counting)
            applied.clear()
            assert specialized_burau(closure, x).is_identity
            assert specialized_burau(conjugate, x).is_identity
            assert applied == []
            reduced = naive_free_reduce((g * BraidWord(n, ((1, 1),)) * g.inverse()).letters)
            image = specialized_burau(near_miss, x)
            assert sum(applied) == len(reduced)
            assert image == specialize_matrix(naive_word_image(near_miss), x)
            assert not image.is_identity
            monkeypatch.undo()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cancelling_pairs_around_twist_blocks(self, data):
        # Pieces of a word: a random letter, a block T_n^+-1, a pair
        # s_i^e s_i^-e, or a block between a letter and its inverse, all
        # typed as letters. The reduction takes some of them out; the image
        # must still be the product of every letter.
        n = data.draw(st.integers(2, 5), label="n")
        delta = tuple((i, 1) for i in range(1, n))
        blocks = (delta * n, tuple((i, -1) for i in reversed(range(1, n))) * n)
        letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
        letters = []
        for kind, a in data.draw(st.lists(st.tuples(st.integers(0, 3), letter), max_size=8)):
            inverse = (a[0], -a[1])
            block = blocks[data.draw(st.integers(0, 1))]
            letters += ([a], list(block), [a, inverse], [a, *block, inverse])[kind]
        w = BraidWord(n, tuple(letters))
        dense = naive_word_image(w)
        assert burau_of_word(w).matrix == dense
        for d in data.draw(st.lists(st.sampled_from((3, 4, 5, 6, 10, 12)), min_size=1, max_size=2)):
            x = minus_q_from_d(d)
            assert specialized_burau(w, x) == specialize_matrix(burau_of_word(w).matrix, x)
            assert specialized_burau(w, x) == specialize_matrix(dense, x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_give_the_spelled_out_word_s_image(self, data):
        # A word that keeps its powers of T_n as counts has the image of the
        # same letters spelled out, at the golden rows' roots and over
        # Z[t, t^-1].
        n, d, _, _ = data.draw(
            st.sampled_from([row for row in KERNEL_TABLE_FIXTURE if row[0] <= 6]), label="row"
        )
        text = data.draw(word_programs(n, max_leaves=4), label="text")
        w = parse_word(text, n)
        flat = BraidWord(n, w.letters)
        assert burau_of_word(w) == burau_of_word(flat)
        for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3):
            assert specialized_burau(w, x) == specialized_burau(flat, x), (text, d)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reduced_counts_give_the_spelled_out_word_s_image(self, data):
        # Counts of s_i and T<p> up to three times the larger of the orders
        # of -t and t^(n-1) at the point, where those counts are reduced:
        # the image is the spelled-out word's, which applies every letter.
        # Points: the golden rows' roots and their cubes, t = -1, where -t is
        # 1 and no count of s_i is reduced, and t = zeta_3 on 4 strands
        # (n = 4, d = 6), where t^3 is 1 and no count of T_3 is reduced.
        n, d, _, _ = data.draw(
            st.sampled_from([row for row in KERNEL_TABLE_FIXTURE if row[0] <= 5]), label="row"
        )
        x = data.draw(st.sampled_from(
            [minus_q_from_d(d), minus_q_from_d(d) ** 3, CyclotomicNumber.root_of_unity(2)]
            + ([minus_q_from_d(6)] if n == 4 else [])
        ), label="x")
        cuts = burau._cut_orders(x.order, root_exponent(x), n)
        if x.order == 2:
            assert ((1, 1),) not in cuts
        if n == 4 and x == minus_q_from_d(6):
            assert words._twist_block(3) not in cuts
        top = 3 * max([o for _, o in cuts.values()] + [2])
        w = parse_word(data.draw(word_programs(n, max_leaves=3, max_exponent=top), label="text"), n)
        flat = BraidWord(n, w.letters)
        assert specialized_burau(w, x) == specialized_burau(flat, x), (w._segments, x)

    def test_kernel_generators_as_counts_are_the_identity(self):
        # T_n^l, a count, is in the kernel at its row's root, and a count one
        # short or with a letter between is not.
        for n, d, _, l in KERNEL_TABLE_FIXTURE:
            x = minus_q_from_d(d)
            member = specialized_burau(parse_word(f"T{n}^{l}", n), x)
            assert member.is_identity and member.rows == _unit_rows(x.order, n - 1)
            assert all(row is unit for row, unit in zip(member.rows, _unit_rows(x.order, n - 1)))
            assert not specialized_burau(parse_word(f"T{n}^{l - 1}", n), x).is_identity
            for text in (f"T{n}^{l + 1} T{n}^-1", f"(T{n} s1)^{l} s1^-{l}"):
                assert specialized_burau(parse_word(text, n), x).is_identity, text
            assert not specialized_burau(parse_word(f"T{n}^{l} s1", n), x).is_identity

    @pytest.mark.parametrize("fault", ["not scalar", "another root"])
    def test_a_corrupted_proof_raises_the_typed_error(self, monkeypatch, fault):
        # t^n is proved once per (N, k, n) by multiplying out T_n's letters;
        # a read-out that is not exactly t^n * I refuses the root.
        def corrupted(rows, order, *rest):
            m = _read_out(rows, order, *rest)
            if fault == "another root":
                return scaled(m, CyclotomicNumber.root_of_unity(order))
            entries = [list(row) for row in m.rows]
            entries[0][1] = entries[0][0]
            return CycloMatrix(entries)

        n, x = 5, minus_q_from_d(7)
        word = parse_word("s1 T5 s2^-1", n)
        monkeypatch.setattr(burau, "_read_out", corrupted)
        burau._twist_at.cache_clear()
        try:
            with pytest.raises(burau.TwistProofFailed, match=r"^T5 is not t\^5 \* I at t = zeta_14\^"):
                specialized_burau(word, x)
        finally:
            burau._twist_at.cache_clear()


class TestPackedRows:
    """At a root of unity each row is one int of W-bit slots. Before each
    chunk of at most 14 letters (but the first), every slot must lie in
    [-2^T, 2^T), T = W - 24; when one does not, the rows are repacked at
    width 2W and the word goes on. Each word here outgrows 64-bit slots,
    so a broken or missing guard gives a wrong matrix or an error."""

    @staticmethod
    def record_widenings(monkeypatch):
        # Each widening repacks every row at the new width.
        packed = []
        inner = burau._pack

        def spy(slots, width):
            packed.append(width)
            return inner(slots, width)

        monkeypatch.setattr(burau, "_pack", spy)
        return packed

    @pytest.mark.parametrize(
        "text, n, ds, widths",
        [
            ("(s1 s2^-1)^50", 3, (7, 12, 40), {128}),
            # Widened three times, to 512 bits.
            ("(s1 s2^-1)^300", 3, (7,), {128, 256, 512}),
            # Not a power: its 122 letters are one chunked pass.
            ("(s1 s2^-1 s3)^40 s1 s2", 4, (7, 12, 40), {128}),
        ],
    )
    def test_words_that_outgrow_the_slots(self, monkeypatch, text, n, ds, widths):
        packed = self.record_widenings(monkeypatch)
        w = parse_word(text, n)
        laurent = burau_of_word(w).matrix
        for d in ds:
            x = minus_q_from_d(d)
            packed.clear()
            assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, d)
            assert set(packed) == widths, (text, d)

    def test_rows_no_letter_touched_are_not_reduced(self, monkeypatch):
        # (s1 s2^-1)^300 on 4 strands never touches matrix row 2, and at
        # d = 7 it widens the slots, repacking every row: row 2 is still
        # the unit row e_2, so only rows 0 and 1 are reduced into the field.
        packed = self.record_widenings(monkeypatch)
        reduced = []
        inner = burau._field_row

        def spy(flat, *rest):
            reduced.append(flat)
            return inner(flat, *rest)

        monkeypatch.setattr(burau, "_field_row", spy)
        w = parse_word("(s1 s2^-1)^300", 4)
        x = minus_q_from_d(7)
        got = specialized_burau(w, x)
        assert set(packed) == {128, 256, 512}
        assert got == specialize_matrix(burau_of_word(w).matrix, x)
        assert len(reduced) == 2
        assert got.rows[2] == CycloMatrix(_unit_rows(x.order, 3)).rows[2]

    @pytest.mark.parametrize("width", [64, 128])
    def test_slot_range_check_and_round_trip(self, width):
        # A row of 5 coefficients has 6 slots, the top one x^H in entry 0.
        # (row + safe) & top is zero exactly when every slot, the top one
        # included, is in [-2^T, 2^T), and unpacking folds the top slot
        # into slot 0 with sign -1.
        low = width - 24
        safe, top, _ = burau._slot_masks(6, width)

        def folded(slots):
            return [slots[0] - slots[5], *slots[1:5]]

        inside = [-(1 << low), (1 << low) - 1, 0, -1, 1, 0]
        for bad in (1 << low, -(1 << low) - 1, 1 << width - 2, -(1 << width - 1)):
            for slot in range(6):
                slots = inside[:slot] + [bad] + inside[slot + 1:]
                row = burau._pack(slots, width)
                assert _unpack(row, 5, width) == folded(slots)
                assert (row + safe) & top, (bad, slot)
        for top_slot in (0, 1, -1, (1 << low) - 1, -(1 << low)):
            slots = inside[:5] + [top_slot]
            row = burau._pack(slots, width)
            assert _unpack(row, 5, width) == folded(slots)
            assert not (row + safe) & top, top_slot
        extremes = [(1 << width - 1) - 1, -(1 << width - 1), 0, 1, -1]
        assert _unpack(burau._pack(extremes, width), 5, width) == extremes


KERNEL_TABLE = Path(__file__).parent / "data" / "kernel_table.txt"


def golden_points():
    """(dim, order, k) for each row (n, d) of the kernel table: dim = n - 1
    and -q = zeta_order^k."""
    points = []
    for line in KERNEL_TABLE.read_text().splitlines()[1:]:
        n, d = map(int, line.split()[:2])
        x = minus_q_from_d(d)
        points.append((n - 1, x.order, root_exponent(x)))
    return points


class TestFloorSplitStep:
    """The step reads a packed row modulo F = 2^(dim*H*W) + 1 and splits
    d = b - c by floor, which can leave 1 in the top slot and in slot 0.
    The rounded split it replaced (``oracles.rounding_root_step``) is the
    reference: after folding, both give the same ring row."""

    @pytest.mark.parametrize("width", [64, 128])
    def test_matches_the_rounded_split(self, width):
        rng = random.Random(width)
        bound = (1 << width - 24) - 1
        for dim, order, k in golden_points():
            size = dim * (order // 2 if order % 2 == 0 else order)
            modulus = (1 << size * width) + 1
            step = _root_step_at(order, k, dim, width)
            reference = rounding_root_step(order, k, dim, width)
            for s in (1, -1):
                for _ in range(4):
                    rows = [
                        [rng.randint(-bound, bound) for _ in range(size)] for _ in range(3)
                    ]
                    tops = [rng.randint(-3, 3) for _ in range(3)]
                    balanced = [pack_slots(v, width) for v in rows]
                    # The same ring rows with a top slot: row + top * F.
                    lifted = [row + t * modulus for row, t in zip(balanced, tops)]
                    got = step(*lifted, s)
                    want = signed_slots(reference(*balanced, s), size, width)
                    assert ring_row(got, size, width) == want, (dim, order, k, s)
                    assert _unpack(got, size, width) == want
                    # The top slot moves by at most one per letter.
                    top = signed_slots(got, size + 1, width)[-1]
                    assert abs(top - tops[0]) <= 1

    @pytest.mark.parametrize("width", [64, 128])
    def test_a_top_slot_is_folded_before_a_widening(self, width):
        rng = random.Random(width + 1)
        bound = (1 << width - 24) - 1
        for size in (1, 5, 12):
            coeffs = [rng.randint(-bound, bound) for _ in range(size)]
            for top in (1, -1, 5):
                row = pack_slots(coeffs, width) + top * ((1 << size * width) + 1)
                assert signed_slots(row, size + 1, width)[-1] == top
                wide = burau._pack(_unpack(row, size, width), 2 * width)
                assert signed_slots(wide, size + 1, 2 * width) == coeffs + [0]


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
        # x nonzero where y is zero: decided by testing x, not by a product.
        assert not projectively_equal(b, a)
        # The same with a scalar other than 1, which is tested entry by entry.
        assert not projectively_equal(scaled(b, 2), a)
        assert projectively_equal(scaled(a, 2), a)

    def test_equal_first_pair_then_a_later_mismatch(self):
        # The first nonzero pair is equal, so the scalar is 1, and a later
        # entry decides: a zero against a nonzero, or two unequal values.
        one, zero = CyclotomicNumber.one(5), CyclotomicNumber.zero(5)
        x = CyclotomicNumber.root_of_unity(5, 2)
        a = CycloMatrix([[zero, one], [zero, x]])
        for b in ([[zero, one], [x, x]], [[zero, one], [zero, zero]], [[zero, one], [zero, -x]]):
            assert not projectively_equal(a, CycloMatrix(b))
            assert not projectively_equal(CycloMatrix(b), a)
        assert projectively_equal(a, CycloMatrix([[zero, one], [zero, x]]))

    def test_scalar_other_than_one(self):
        # A scalar c != 1 takes the general path, entry by entry.
        rng = random.Random(29)
        mq = minus_q_from_d(7)
        for n in (3, 5):
            m = specialized_burau(random_word(n, 12, rng), mq)
            for c in (mq, -1, CyclotomicNumber(mq.order, [1, 2, 0, -1, 0, 3], 7)):
                assert projectively_equal(scaled(m, c), m)
                assert projectively_equal(m, scaled(m, c))
                rows = [list(row) for row in scaled(m, c).rows]
                rows[-1][-1] = rows[-1][-1] + 1
                assert not projectively_equal(CycloMatrix(rows), m)

    def test_zero_matrix_against_nonzero(self):
        zero = CyclotomicNumber.zero(4)
        z = CycloMatrix([[zero, zero], [zero, zero]])
        m = CycloMatrix(_unit_rows(4, 2))
        assert not projectively_equal(z, m)
        assert not projectively_equal(m, z)
        assert projectively_equal(z, z)
