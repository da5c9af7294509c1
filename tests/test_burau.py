import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau_lab import burau
from burau_lab.burau import (
    BurauImage,
    _laurent_row,
    _laurent_step_at,
    _root_length,
    _root_step_at,
    _scalar_value,
    _unpack,
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
    _field_value,
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
    leibniz_det,
    pack_slots,
    q_point,
    ring_row,
    rounding_root_step,
    scaled,
    shift,
    signed_slots,
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
        # permutation x^e -> (-1)^e zeta_N^(e(N+1)/2) for odd N, and t^-1
        # of the signature check, read from the same table, must be t's.
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
            for k in range(order):
                t = CyclotomicNumber.root_of_unity(order, k)
                t_inverse, (minus_t, one, at_t), _, _ = _values_at(order, k)
                assert t_inverse == CyclotomicNumber.root_of_unity(order, -k)
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

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

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
                    assert got == scaled(CycloMatrix(_unit_rows(x.order, n - 1)), c)
                    for i, row in enumerate(got.rows):
                        for j, entry in enumerate(row):
                            assert entry == c if i == j else entry.is_zero

    def test_scalar_test_is_made_in_the_field(self):
        # Rows over Z[x]/(x^3 + 1), the ring of orders 6 and 3, where
        # x -> zeta_6; 1 - x + x^2 is nonzero there but vanishes in the field.
        # Each row is flat, entry j's coefficient of x^k at index 2k + j, and
        # packed into one int of 6 slots of 64 bits, as the word loop holds it.
        def scalar_value(order, *rows):
            flat = [[a for pair in zip(*row) for a in pair] for row in rows]
            return _scalar_value([burau._pack(row, 64) for row in flat], order, 6, 64)

        one, zero, minus_one = [1, 0, 0], [0] * 3, [-1, 0, 0]
        vanishing = [1, -1, 1]
        one_plus_vanishing = [2, -1, 1]
        assert scalar_value(6, [one, vanishing], [vanishing, one_plus_vanishing]) == 1
        assert scalar_value(6, [minus_one, zero], [zero, minus_one]) == -1
        assert scalar_value(6, [one, zero], [zero, minus_one]) is None
        assert scalar_value(6, [one, zero], [one, one]) is None
        # At odd order 3, x is zeta_6 = -zeta_3^2: x^2 is zeta_3 and -x is
        # zeta_3^2, and the vanishing vector still vanishes.
        x_squared, minus_x = [0, 0, 1], [0, -1, 0]
        zeta3 = CyclotomicNumber.root_of_unity(3)
        assert scalar_value(3, [x_squared, vanishing], [vanishing, [1, -1, 2]]) == zeta3
        assert scalar_value(3, [minus_x, zero], [zero, minus_x]) == zeta3**2
        assert scalar_value(3, [one, vanishing], [zero, minus_one]) is None
        assert scalar_value(3, [x_squared, [1, 1, 0]], [zero, x_squared]) is None

    def test_scalar_test_unpacks_rows_as_it_reaches_them(self, monkeypatch):
        # A fault in row 0 ends the test before rows 1 and 2 are unpacked.
        unpacked = []
        inner = burau._unpack

        def spy(row, *rest):
            unpacked.append(row)
            return inner(row, *rest)

        monkeypatch.setattr(burau, "_unpack", spy)
        one, zero = [1, 0, 0], [0, 0, 0]
        rows = [[one, one, zero], [zero, one, zero], [zero, zero, one]]
        packed = [burau._pack([a for slots in zip(*row) for a in slots], 64) for row in rows]
        assert _scalar_value(packed, 6, 9, 64) is None
        assert unpacked == packed[:1]
        unpacked.clear()
        rows[0][1] = zero
        packed[0] = burau._pack([a for slots in zip(*rows[0]) for a in slots], 64)
        assert _scalar_value(packed, 6, 9, 64) == 1
        assert unpacked == packed

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


class TestTwistBlocks:
    """Inside a word that is not a whole power of the full twist, each
    block T_n^+-1 = (s1 ... s_{n-1})^(+-n) is taken out and counted, and
    the rest's image is multiplied by t^(n * net); the result must still
    equal the product of every letter."""

    @staticmethod
    def naive_strip(letters, n):
        # One left-to-right scan for either block, skipping past each one.
        delta = tuple((i, 1) for i in range(1, n))
        blocks = {delta * n: 1, tuple((i, -1) for i in reversed(range(1, n))) * n: -1}
        size = n * (n - 1)
        rest, net, i = [], 0, 0
        while i < len(letters):
            sign = blocks.get(tuple(letters[i:i + size]))
            if sign:
                net += sign
                i += size
            else:
                rest.append(letters[i])
                i += 1
        return tuple(rest), net

    @staticmethod
    def words_with_twists(n, rng, count):
        """Random words with T_n^+-1 blocks at random places: adjacent
        blocks of either sign, blocks next to partial periods of either
        sign, and words that are proper powers of a root holding a block."""
        delta = tuple((i, 1) for i in range(1, n))
        inverse = tuple((i, -1) for i in reversed(range(1, n)))
        twist, untwist = delta * n, inverse * n
        words = []
        for _ in range(count):
            letters, inserted = list(random_word(n, rng.randint(0, 12), rng).letters), 0
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
                    inserted += sign
                pieces.append((rng.randint(0, len(letters)), piece))
                inserted += sign
            # Last place first, so that no piece lands inside another.
            for at, piece in sorted(pieces, key=lambda p: p[0], reverse=True):
                letters[at:at] = piece
            words.append((BraidWord(n, tuple(letters)), inserted))
        # A proper power whose root holds a block.
        words.append((BraidWord(n, (((n - 1, 1), (1, -1)) + twist) * 3), 3))
        # What is left, s1^-1 s1 delta, is scalar at its n-th power, a proper
        # divisor of 2n, so the early stop meets a stripped twist.
        words.append((BraidWord(n, (twist + ((1, -1), (1, 1)) + delta) * (2 * n)), 2 * n))
        return words

    @pytest.mark.parametrize("n", range(2, 11))
    def test_words_with_twist_blocks_equal_the_full_product(self, n):
        rng = random.Random(100 + n)
        # d = 3, 5, 7, 12 give even N = 6, 10, 14, 12 and d = 6, 10 odd
        # N = 3, 5; the cubes of -q reach other exponents k.
        points = [x for d in (3, 5, 6, 7, 10, 12) for x in (minus_q_from_d(d), minus_q_from_d(d) ** 3)]
        for w, inserted in self.words_with_twists(n, rng, 4):
            rest, net = burau._strip_twists(w.letters, n)
            assert (rest, net) == self.naive_strip(w.letters, n)
            p = _root_length(w.letters)
            if n > 2 and p >= n * (n - 1):
                # Every block inserted is taken out of the root, unless the
                # root is shorter than T_n, as for a power of delta, which
                # keeps the whole-word path. On two strands the random
                # letters form blocks of their own.
                assert burau._strip_twists(w.letters[:p], n)[1] * (len(w) // p) == inserted
            laurent = burau_of_word(w).matrix
            for x in points:
                assert specialized_burau(w, x) == specialize_matrix(laurent, x), (w, x)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_small_words_with_twist_blocks_equal_the_dense_product(self, n):
        rng = random.Random(200 + n)
        for w, _ in self.words_with_twists(n, rng, 3):
            dense = naive_word_image(w)
            for d in (3, 4, 6, 10, 40):
                for x in (minus_q_from_d(d), q_point(d)):
                    assert specialized_burau(w, x) == specialize_matrix(dense, x), (w, x)

    @pytest.mark.parametrize("text, n", [("(s1 s2^-1)^50 s1 T3", 3), ("T4^-1 (s1 s2^-1 s3)^40 T4^2", 4)])
    def test_twists_rotate_rows_that_were_widened(self, monkeypatch, text, n):
        # What is left outgrows 64-bit slots, so the twists' power is a
        # rotation of rows of 128-bit slots.
        packed = TestPackedRows.record_widenings(monkeypatch)
        w = parse_word(text, n)
        assert burau._strip_twists(w.letters, n)[1] != 0
        laurent = burau_of_word(w).matrix
        for d in (7, 12, 40):
            x = minus_q_from_d(d)
            packed.clear()
            assert specialized_burau(w, x) == specialize_matrix(laurent, x), (text, d)
            assert 128 in packed, (text, d)

    def test_strip_matches_a_naive_scan(self):
        # Letters drawn mostly from runs of the two blocks' periods, whole or
        # cut short, so that blocks, runs too short for one, runs with a
        # partial period at either end and runs of both signs side by side
        # are common; words shorter than a block included.
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(2, 6)
            pool = [(i, 1) for i in range(1, n)] + [(i, -1) for i in range(1, n)]
            periods = (
                tuple((i, 1) for i in range(1, n)),
                tuple((i, -1) for i in reversed(range(1, n))),
            )
            letters = []
            while len(letters) < rng.randint(0, 80):
                r = rng.random()
                if r < 0.4:
                    letters += rng.choice(periods) * rng.randint(1, 2 * n + 1)
                elif r < 0.55:
                    period = rng.choice(periods)
                    letters += period[rng.randint(0, n - 2):] if r < 0.5 else period[:rng.randint(1, n - 1)]
                else:
                    letters.append(rng.choice(pool))
            letters = tuple(letters)
            assert burau._strip_twists(letters, n) == self.naive_strip(letters, n), (n, letters)

    def test_closure_word_applies_only_the_conjugator_letters(self, monkeypatch):
        applied = []
        inner = burau._word_product

        def counting(letters, *rest):
            applied.append(len(letters))
            return inner(letters, *rest)

        rng = random.Random(3)
        for n, d, l in ((4, 5, 5), (7, 3, 6), (10, 3, 3)):
            x = minus_q_from_d(d)
            g = random_word(n, 20, rng)
            word = g * parse_word(f"T{n}^{l}", n) * g.inverse()
            # The first call proves t^n at this root; later calls reuse it.
            specialized_burau(word, x)
            monkeypatch.setattr(burau, "_word_product", counting)
            applied.clear()
            assert specialized_burau(word, x).is_identity
            assert sum(applied) == 2 * len(g)
            monkeypatch.undo()

    @pytest.mark.parametrize("fault", ["not scalar", "another root"])
    def test_a_corrupted_proof_raises_the_typed_error(self, monkeypatch, fault):
        # t^n is proved once per (N, k, n) by multiplying out T_n's letters;
        # a product that is not exactly t^n * I refuses the root.
        def corrupted(rows, order, *rest):
            c = _scalar_value(rows, order, *rest)
            return None if fault == "not scalar" else c * CyclotomicNumber.root_of_unity(order)

        n, x = 5, minus_q_from_d(7)
        word = parse_word("s1 T5 s2^-1", n)
        monkeypatch.setattr(burau, "_scalar_value", corrupted)
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
            # The scalar test runs at every proper divisor of 300, so also
            # on rows that were widened three times, to 512 bits.
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
