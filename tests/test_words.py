import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from burau_lab import words
from burau_lab.words import (
    MAX_WORD_LETTERS,
    BraidWord,
    EmptyGeneratorSet,
    IndexOutOfRange,
    InvalidStrandCount,
    WordSyntaxError,
    WordTooLong,
    _expand_power,
    free_reduce,
    parse_word,
    random_word,
    sample_normal_closure,
)
from oracles import writhe


def braid_words(max_n=6, max_len=12):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1))
            ),
            max_size=max_len,
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )


class TestParser:
    def test_simple_word(self):
        assert parse_word("s1 s2^-1", 4).letters == ((1, 1), (2, -1))

    def test_full_twist_macro(self):
        w = parse_word("T4", 4)
        assert len(w) == 12
        assert w.letters == tuple([(1, 1), (2, 1), (3, 1)] * 4)

    def test_generator_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_word("s5", 4)
        with pytest.raises(IndexOutOfRange):
            parse_word("T5", 4)
        with pytest.raises(IndexOutOfRange):
            parse_word("T1", 4)

    def test_groups_and_exponents(self):
        assert parse_word("(s1 s2)^3", 4).letters == tuple([(1, 1), (2, 1)] * 3)
        assert parse_word("(s1 s2)^-1", 4).letters == ((2, -1), (1, -1))
        assert parse_word("s1^0", 4).letters == ()
        assert parse_word("s2^-3", 4).letters == ((2, -1),) * 3

    def test_empty_word(self):
        assert parse_word("", 4).letters == ()
        assert parse_word("   ", 4).letters == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "s", "^2", "(s1", "s1)", "q3", "s1^", "()",
            pytest.param("(" * 600 + "s1" + ")" * 600, id="groups-600-deep"),
            pytest.param("s1^" + "9" * 5000, id="exponent-5000-digits"),
            pytest.param("s" + "9" * 5000, id="index-5000-digits"),
        ],
    )
    def test_syntax_errors_report_position(self, bad):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(bad, 4)
        assert err.value.position is not None

    def test_group_depth_cap(self):
        depth = words.MAX_GROUP_DEPTH
        assert parse_word("(" * depth + "s1" + ")" * depth, 3).letters == ((1, 1),)
        with pytest.raises(WordSyntaxError, match=f"more than {depth} deep") as err:
            parse_word("s2 " + "(" * (depth + 1) + "s1" + ")" * (depth + 1), 3)
        assert err.value.position == 3 + depth

    def test_literal_digit_cap_without_the_interpreter_limit(self):
        # With Python's int-string limit lifted, a literal one digit over
        # the cap is still a syntax error, and one at the cap still parses.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-string limit")
        cap = words.MAX_LITERAL_DIGITS
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(WordTooLong):
                parse_word("s1^" + "9" * cap, 4)
            for text, position in (("s1^" + "9" * (cap + 1), 3), ("s" + "9" * (cap + 1), 1)):
                with pytest.raises(WordSyntaxError, match=f"length {cap + 1}") as err:
                    parse_word(text, 4)
                assert err.value.position == position
        finally:
            sys.set_int_max_str_digits(limit)

    def test_nested_groups(self):
        w = parse_word("((s1)^2 s2)^2", 3)
        assert w.letters == ((1, 1), (1, 1), (2, 1)) * 2

    @given(braid_words())
    def test_round_trip(self, w):
        assert parse_word(str(w), w.strands_n) == w


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(IndexOutOfRange):
            BraidWord(3, ((3, 1),))
        with pytest.raises(ValueError):
            BraidWord(1, ())
        with pytest.raises(ValueError):
            BraidWord(3, ((1, 2),))

    def test_letters_become_int_pairs(self):
        # Lists, bools, integral floats, non-integral floats, strings, an
        # iterator and indices of a hundred strands all convert as int()
        # does: every letter goes through the one check.
        cases = [
            (4, [[1, 1], [3, -1]], ((1, 1), (3, -1))),
            (4, ((True, True), (2, -1)), ((1, 1), (2, -1))),
            (4, ((1.0, -1.0), (3.0, 1)), ((1, -1), (3, 1))),
            (4, ((1.5, 1), (2.5, 1.5)), ((1, 1), (2, 1))),
            (4, (("2", "-1"),), ((2, -1),)),
            (4, iter([(1, 1), (2, 1)]), ((1, 1), (2, 1))),
            (100, ((99, 1), (70, -1), (1, 1)), ((99, 1), (70, -1), (1, 1))),
        ]
        for strands_n, letters, expected in cases:
            got = BraidWord(strands_n, letters).letters
            assert got == expected
            assert all(type(i) is int and type(e) is int for i, e in got)

    def test_numpy_letters_become_int_pairs(self):
        np = pytest.importorskip("numpy")
        letters = ((np.int64(2), np.int8(-1)), (np.float64(3.0), np.int32(1)))
        got = BraidWord(4, letters).letters
        assert got == ((2, -1), (3, 1))
        assert all(type(i) is int and type(e) is int for i, e in got)

    @pytest.mark.parametrize(
        "letters, error, message",
        [
            (((0, 1),), IndexOutOfRange, "generator index 0 outside 1..3"),
            (((4, 1),), IndexOutOfRange, "generator index 4 outside 1..3"),
            (((-1, 1),), IndexOutOfRange, "generator index -1 outside 1..3"),
            (((1, 2),), ValueError, "letter sign must be +1 or -1, got 2"),
            (((1, 0),), ValueError, "letter sign must be +1 or -1, got 0"),
            ((("a", 1),), ValueError, "invalid literal for int() with base 10: 'a'"),
            (
                ((None, 1),),
                TypeError,
                "int() argument must be a string, a bytes-like object or a real number,"
                " not 'NoneType'",
            ),
            (((1,),), ValueError, "not enough values to unpack (expected 2, got 1)"),
            (((1, 1, 1),), ValueError, "too many values to unpack (expected 2)"),
            ((5,), TypeError, "cannot unpack non-iterable int object"),
            (None, TypeError, "'NoneType' object is not iterable"),
        ],
    )
    def test_invalid_letter_errors_pinned(self, letters, error, message):
        with pytest.raises(error) as caught:
            BraidWord(4, letters)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_fewer_than_two_strands_is_a_typed_error(self):
        for make in (
            lambda: BraidWord(1),
            lambda: parse_word("", 0),
            lambda: random_word(1, 3, random.Random(0)),
        ):
            with pytest.raises(InvalidStrandCount):
                make()

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: BraidWord(3.5, ((1, 1),)), id="BraidWord"),
            pytest.param(lambda: parse_word("s1", 3.5), id="parse_word"),
            pytest.param(lambda: random_word(3.5, 3, random.Random(0)), id="random_word"),
        ],
    )
    def test_non_integer_strand_count_is_a_typed_error(self, make):
        # A float count was built, and the word loop then failed on it with
        # a bare TypeError.
        with pytest.raises(InvalidStrandCount, match="^the strand count is not an integer, got float$"):
            make()

    def test_inverse_and_power(self):
        w = parse_word("s1 s2", 3)
        assert w.inverse().letters == ((2, -1), (1, -1))
        assert parse_word("(s1 s2)^2", 3) == BraidWord(3, w.letters * 2)
        assert parse_word("(s1 s2)^-1", 3) == w.inverse()
        assert free_reduce(w * w.inverse()).letters == ()

    def test_writhe(self):
        assert writhe(parse_word("s1 s2^-1 s1", 3)) == 1
        assert writhe(parse_word("T3", 3)) == 6

    def test_concatenation_needs_same_strands(self):
        with pytest.raises(ValueError):
            parse_word("s1", 3) * parse_word("s1", 4)


class TestTrustedConstructors:
    """``*``, ``inverse``, ``free_reduce``, ``parse_word``, ``random_word``
    and ``sample_normal_closure`` store their letters unchecked; every
    letter must be what the checked constructor stores for it."""

    @staticmethod
    def assert_as_checked(w):
        assert type(w.letters) is tuple
        assert all(
            type(letter) is tuple and type(letter[0]) is int and type(letter[1]) is int
            for letter in w.letters
        )
        assert w.letters == BraidWord(w.strands_n, w.letters).letters

    def test_random_words(self):
        # On 2 strands an index drawn from 1..n would be invalid half the time.
        rng = random.Random(5)
        for strands_n in (2, 3, 5, 9, 70):
            for _ in range(10):
                self.assert_as_checked(random_word(strands_n, 40, rng))

    def test_normal_closure_samples(self):
        for strands_n, texts in ((2, ("s1^3",)), (4, ("T4", "s3^-2")), (6, ("T3^2", "s5 s4^-1"))):
            gens = [parse_word(text, strands_n) for text in texts]
            for seed in range(10):
                self.assert_as_checked(sample_normal_closure(strands_n, gens, 3, 8, seed))

    def test_parsed_and_combined_words(self):
        for text, strands_n in (
            ("s1 s2^-1 s3", 4),
            ("T4^-2 (s1 s3^2)^-3", 4),
            ("((s2 s1^-1)^2 T3)^3", 5),
            ("s69^5 T70^-1", 70),
            ("", 2),
        ):
            w = parse_word(text, strands_n)
            for word in (w, w * w, w.inverse(), free_reduce(w * w.inverse() * w)):
                self.assert_as_checked(word)

    @pytest.mark.parametrize("strands_n", [2, 4, 64, 65, 100])
    def test_the_public_constructor_still_checks(self, strands_n):
        for letter, error in (
            ((0, 1), IndexOutOfRange),
            ((strands_n, 1), IndexOutOfRange),
            ((1, 2), ValueError),
            ((1, 0), ValueError),
        ):
            with pytest.raises(error):
                BraidWord(strands_n, ((1, 1), letter))


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce(parse_word("s1 s1^-1", 4)).letters == ()

    def test_inner_cancellation(self):
        assert free_reduce(parse_word("s1 s2 s2^-1 s1", 4)).letters == ((1, 1), (1, 1))

    def test_empty(self):
        assert free_reduce(BraidWord(4)).letters == ()

    @given(braid_words())
    def test_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    @given(braid_words())
    def test_no_adjacent_inverse_pairs_remain(self, w):
        reduced = free_reduce(w).letters
        for a, b in zip(reduced, reduced[1:]):
            assert not (a[0] == b[0] and a[1] == -b[1])


class TestNamedTwists:
    """tau_p is the grammar's full-twist macro T<p>, the ring s1 ... s_{p-1}
    repeated p times; sigma is s1."""

    def test_tau_examples(self):
        for n in range(2, 11):
            for p in range(2, n + 1):
                ring = tuple((i, 1) for i in range(1, p))
                assert parse_word(f"T{p}", n).letters == ring * p, (n, p)

    def test_invalid_support(self):
        for text in ("T0", "T1", "T5"):
            with pytest.raises(
                IndexOutOfRange, match=rf"^twist {text} needs support in 2\.\.4 \(at position 0\)$"
            ):
                parse_word(text, 4)

    def test_named_twist_word(self):
        assert parse_word("T2", 4).letters == ((1, 1), (1, 1))


class TestSampler:
    def test_single_conjugate_shape(self):
        g = parse_word("s1^4", 4)
        w = sample_normal_closure(4, [g], 1, 6, seed=0)
        # w = c g^{+-1} c^{-1}: strip the conjugator from both ends.
        k = (len(w) - 4) // 2
        core = w.letters[k : k + 4]
        assert core in (g.letters, g.inverse().letters)
        assert w.letters[:k] == tuple((i, -e) for i, e in reversed(w.letters[k + 4 :]))

    def test_deterministic(self):
        gens = [parse_word("T4", 4)]
        a = sample_normal_closure(4, gens, 2, 5, seed=7)
        b = sample_normal_closure(4, gens, 2, 5, seed=7)
        assert a == b
        c = sample_normal_closure(4, gens, 2, 5, seed=8)
        assert a != c  # overwhelmingly likely under any sane sampling

    def test_output_pinned_for_a_fixed_seed(self):
        # c s1 s2^-1 c^-1 twice, then the inverse s2 s1^-1 with an empty
        # conjugator: both inversions of the sampler, letter for letter.
        w = sample_normal_closure(3, [parse_word("s1 s2^-1", 3)], 3, 2, seed=11)
        assert w.letters == (
            (2, 1), (1, 1), (2, -1), (2, -1),
            (1, 1), (1, 1), (2, -1), (1, -1),
            (2, 1), (1, -1),
        )

    def test_length_bound(self):
        gens = [parse_word("s1^3", 4), parse_word("T3^2", 4)]
        for seed in range(10):
            w = sample_normal_closure(4, gens, 3, 4, seed=seed)
            assert len(w) <= 3 * (2 * 4 + 12)

    def test_matches_concatenation_definition(self, monkeypatch):
        def concatenated(strands_n, gens, num_factors, max_conj_len, seed):
            rng = random.Random(seed)
            word = BraidWord(strands_n)
            for _ in range(num_factors):
                g = gens[rng.randrange(len(gens))]
                if rng.random() < 0.5:
                    g = g.inverse()
                conj = random_word(strands_n, rng.randint(0, max_conj_len), rng)
                word = word * conj * g * conj.inverse()
            return word

        def outcome(sampler, *args):
            try:
                return sampler(*args)
            except WordTooLong:
                return WordTooLong

        gen_sets = {
            3: [parse_word("s1^3", 3)],
            4: [parse_word("T4", 4), parse_word("s2^-5", 4), BraidWord(4)],
            6: [parse_word("T3^2", 6), parse_word("s5 s4^-1 s1", 6)],
        }
        for strands_n, gens in gen_sets.items():
            for seed in range(40):
                for num_factors in (1, 2, 7):
                    args = (strands_n, gens, num_factors, seed % 9, seed)
                    assert sample_normal_closure(*args) == concatenated(*args), args
        # Under a small cap both reject exactly the same samples.
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 40)
        for seed in range(60):
            args = (4, gen_sets[4], 3, 8, seed)
            assert outcome(sample_normal_closure, *args) == outcome(concatenated, *args)

    def test_empty_generators(self):
        with pytest.raises(EmptyGeneratorSet):
            sample_normal_closure(4, [], 1, 5, seed=0)

    def test_bad_factor_count(self):
        with pytest.raises(ValueError):
            sample_normal_closure(4, [parse_word("s1", 4)], 0, 5, seed=0)

    def test_strand_count_mismatch(self):
        with pytest.raises(ValueError):
            sample_normal_closure(4, [parse_word("s1", 3)], 1, 5, seed=0)

    def test_random_word_length_and_range(self):
        rng = random.Random(3)
        w = random_word(5, 20, rng)
        assert len(w) == 20
        assert all(1 <= i <= 4 for i, _ in w.letters)

    def test_random_word_rejects_a_negative_length(self):
        for length in (-1, -3):
            with pytest.raises(ValueError, match="nonnegative"):
                random_word(4, length, random.Random(0))
        assert len(random_word(4, 0, random.Random(0))) == 0


class TestExpansionCap:
    # Rejection happens before anything of the rejected size is built.
    def test_huge_exponent_rejected(self):
        with pytest.raises(WordTooLong):
            parse_word("s1^99999999999999999999999", 4)
        with pytest.raises(WordTooLong):
            parse_word(f"s1^-{MAX_WORD_LETTERS + 1}", 4)

    def test_power_of_group_rejected(self):
        assert 1000 * 1000 <= MAX_WORD_LETTERS < 1000 * 1001
        with pytest.raises(WordTooLong):
            parse_word("(s1^1000)^1001", 4)

    def test_concatenated_terms_rejected(self):
        with pytest.raises(WordTooLong):
            parse_word(f"s1^{MAX_WORD_LETTERS} s2", 4)

    def test_expansion_up_to_the_cap(self):
        assert len(_expand_power([(1, 1)], MAX_WORD_LETTERS)) == MAX_WORD_LETTERS
        assert len(parse_word("T5^125", 5)) == 2500

    def test_twist_rejected(self):
        with pytest.raises(
            WordTooLong, match="^word would expand to 1001000 letters, more than 1000000$"
        ):
            parse_word("T1001", 1001)

    def test_word_power_rejected(self):
        # The inverse of a two-letter word, repeated one time too many.
        with pytest.raises(WordTooLong):
            parse_word(f"(s1 s2)^-{MAX_WORD_LETTERS // 2 + 1}", 4)

    def test_random_word_rejected(self):
        with pytest.raises(WordTooLong):
            random_word(4, MAX_WORD_LETTERS + 1, random.Random(0))

    def test_concatenation_up_to_the_cap(self, monkeypatch):
        # A small cap keeps the words small; the check reads the constant.
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 6)
        s2 = BraidWord(4, ((2, -1),))
        assert len(BraidWord(4, ((1, 1),) * 5) * s2) == 6
        with pytest.raises(WordTooLong):
            BraidWord(4, ((1, 1),) * 6) * s2

    def test_normal_closure_factor_count_capped(self, monkeypatch):
        empty = BraidWord(4)
        with pytest.raises(WordTooLong):
            sample_normal_closure(4, [empty], MAX_WORD_LETTERS + 1, 0, seed=0)
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 6)
        assert sample_normal_closure(4, [empty], 6, 0, seed=0) == empty
        with pytest.raises(WordTooLong):
            sample_normal_closure(4, [empty], 7, 0, seed=0)
        # The product is capped as it grows, before it is built.
        with pytest.raises(WordTooLong):
            sample_normal_closure(4, [BraidWord(4, ((1, 1),) * 4)], 2, 0, seed=0)

    def test_count_text(self):
        assert words.count_text(0) == "0"
        assert words.count_text(10**30 - 1) == "9" * 30
        assert words.count_text(1 - 10**30) == "-" + "9" * 30
        # Near a power of ten the float logarithm can be one off: it reads
        # high just below 10^k, and low at 10^512, 10^1024 and 10^2048.
        for k in range(30, 2100):
            assert words.count_text(10**k) == f"at least 10^{k}"
            assert words.count_text(10 ** (k + 1) - 1) == f"at least 10^{k}"
            assert words.count_text(-(10**k)) == f"at most -10^{k}"
            assert words.count_text(-(10 ** (k + 1)) + 1) == f"at most -10^{k}"
