import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from burau_lab.words import (
    BraidWord,
    EmptyGeneratorSet,
    IndexOutOfRange,
    InvalidStrandCount,
    InvalidSupport,
    NamedTwist,
    TwistKind,
    WordSyntaxError,
    canonical_twist_word,
    free_reduce,
    parse_word,
    random_word,
    sample_normal_closure,
)


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

    @pytest.mark.parametrize("bad", ["s", "^2", "(s1", "s1)", "q3", "s1^", "()"])
    def test_syntax_errors_report_position(self, bad):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(bad, 4)
        assert err.value.position is not None

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

    def test_fewer_than_two_strands_is_a_typed_error(self):
        for make in (
            lambda: BraidWord(1),
            lambda: parse_word("", 0),
            lambda: random_word(1, 3, random.Random(0)),
        ):
            with pytest.raises(InvalidStrandCount):
                make()

    def test_inverse_and_power(self):
        w = parse_word("s1 s2", 3)
        assert w.inverse().letters == ((2, -1), (1, -1))
        assert (w**2).letters == w.letters * 2
        assert (w**-1) == w.inverse()
        assert free_reduce(w * w.inverse()).letters == ()

    def test_writhe(self):
        assert parse_word("s1 s2^-1 s1", 3).writhe == 1
        assert parse_word("T3", 3).writhe == 6

    def test_concatenation_needs_same_strands(self):
        with pytest.raises(ValueError):
            parse_word("s1", 3) * parse_word("s1", 4)


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
    def test_tau_examples(self):
        w = canonical_twist_word(TwistKind.FULL_TWIST_TAU, 3, 4)
        assert w.letters == tuple([(1, 1), (2, 1)] * 3)
        assert len(w) == 6
        assert canonical_twist_word(TwistKind.HALF_TWIST_SIGMA, 2, 4).letters == ((1, 1),)
        full = canonical_twist_word(TwistKind.FULL_TWIST_TAU, 4, 4)
        assert full.letters == tuple([(1, 1), (2, 1), (3, 1)] * 4)

    def test_invalid_support(self):
        with pytest.raises(InvalidSupport):
            canonical_twist_word(TwistKind.FULL_TWIST_TAU, 5, 4)
        with pytest.raises(InvalidSupport):
            canonical_twist_word(TwistKind.FULL_TWIST_TAU, 1, 4)
        with pytest.raises(InvalidSupport):
            NamedTwist(TwistKind.HALF_TWIST_SIGMA, 3)

    def test_named_twist_word(self):
        twist = NamedTwist(TwistKind.FULL_TWIST_TAU, 2)
        assert twist.word(4).letters == ((1, 1), (1, 1))


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

    def test_length_bound(self):
        gens = [parse_word("s1^3", 4), parse_word("T3^2", 4)]
        for seed in range(10):
            w = sample_normal_closure(4, gens, 3, 4, seed=seed)
            assert len(w) <= 3 * (2 * 4 + 12)

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
