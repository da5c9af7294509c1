"""Braid words: the data model, a text parser, canonical named twists,
free reduction, and a seeded sampler for normal-closure elements.

Words are plain sequences of signed Artin generators. No normal-form
machinery is implemented here; representation images are the equality
oracle for everything downstream.

Word grammar (used by the CLI and by ``str``):

    word  := term+
    term  := gen ('^' signed_int)?
    gen   := 's' INT | 'T' INT | '(' word ')'

``s<i>`` is the Artin generator sigma_i (1-indexed), ``T<p>`` expands to
the canonical full twist on the first p strands, (s1 ... s_{p-1})^p, and
exponents expand by repetition or inversion. Whitespace separates terms.

Expansion is bounded: a word that would have more than MAX_WORD_LETTERS
letters raises WordTooLong before any list of that size is built.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

MAX_WORD_LETTERS = 10**6
"""The most letters any word may expand to, and the most factors of a sample."""

MAX_LITERAL_DIGITS = 4300
"""The most digits an integer literal may have; a longer one is a syntax
error before ``int`` sees it. This is CPython's default int-string limit,
fixed here so that a word's verdict does not depend on the interpreter's
setting (PYTHONINTMAXSTRDIGITS=0 lifts that limit)."""

MAX_FULL_DIGITS = 30
"""The most digits of a number that a message prints in full."""

MAX_QUOTED_CHARS = 40
"""The most characters of a user's text that a message quotes."""

MAX_GROUP_DEPTH = 100
"""The deepest nesting of parenthesized groups that ``parse_word`` accepts;
the parser recurses once per level, so the cap keeps it off Python's
recursion limit."""


class WordSyntaxError(ValueError):
    """Malformed braid-word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRange(ValueError):
    """A generator or twist index does not fit the strand count."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InvalidStrandCount(ValueError):
    """A braid group needs at least 2 strands."""

    def __init__(self, strands_n: int):
        super().__init__(f"a braid group needs at least 2 strands, got {count_text(strands_n)}")


class WordTooLong(ValueError):
    """Expanding a word would exceed MAX_WORD_LETTERS letters."""


def count_text(count: int) -> str:
    """An integer for a message: in full up to MAX_FULL_DIGITS digits, else
    as the power of ten its size reaches, found without converting it to
    text (CPython refuses to convert an int of more than 4300 digits)."""
    size = abs(count)
    if size < 10**MAX_FULL_DIGITS:
        return str(count)
    exp = int(math.log10(size))  # the float may be one off near 10^exp
    while 10**exp > size:
        exp -= 1
    while 10 ** (exp + 1) <= size:
        exp += 1
    return f"at least 10^{exp}" if count > 0 else f"at most -10^{exp}"


def quoted_text(text: str) -> str:
    """A user's text for a message: its repr, cut to the first
    MAX_QUOTED_CHARS characters and marked by '...' when cut."""
    if len(text) <= MAX_QUOTED_CHARS:
        return repr(text)
    return repr(text[:MAX_QUOTED_CHARS]) + "..."


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise WordTooLong(
            f"word would expand to {count_text(letters)} letters, more than {MAX_WORD_LETTERS}"
        )


class InvalidSupport(ValueError):
    """A named twist's support does not satisfy its constraints."""


class EmptyGeneratorSet(ValueError):
    """The normal-closure sampler needs at least one generator."""


_TABLE_STRANDS = 64
"""The letter tables stop at this strand count, so none holds more than
2 * (_TABLE_STRANDS - 1) letters; a word with a larger index is checked
letter by letter."""


@lru_cache(maxsize=None)
def _canonical_letters(strands_n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Each valid letter (i, +-1) of B_strands_n mapped to one shared pair of
    ints. A letter that hashes and compares equal to it, such as (True, 1),
    (1.0, -1) or a pair of numpy ints, maps to it as well."""
    return {(i, e): (i, e) for i in range(1, strands_n) for e in (1, -1)}


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands_n`` strands.

    ``letters`` is a sequence of (generator index in 1..n-1, sign in {+1,-1}).
    It is stored as a tuple of int pairs, each looked up in a table of the
    valid letters. When a letter is not in the table or cannot be hashed,
    every letter is converted with ``int`` and range-checked instead, which
    raises the error for the first invalid one.
    """

    strands_n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands_n < 2:
            raise InvalidStrandCount(self.strands_n)
        given = tuple(self.letters)
        try:
            table = _canonical_letters(min(self.strands_n, _TABLE_STRANDS))
            letters = tuple(map(table.__getitem__, given))
        except (KeyError, TypeError):
            letters = None
        if letters is None:
            letters = tuple((int(i), int(e)) for i, e in given)
            for i, e in letters:
                if not 1 <= i <= self.strands_n - 1:
                    raise IndexOutOfRange(
                        f"generator index {i} outside 1..{self.strands_n - 1}"
                    )
                if e not in (1, -1):
                    raise ValueError(f"letter sign must be +1 or -1, got {e}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands_n != other.strands_n:
            raise ValueError("cannot concatenate words on different strand counts")
        _check_length(len(self.letters) + len(other.letters))
        return BraidWord(self.strands_n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(
            self.strands_n, tuple((i, -e) for i, e in reversed(self.letters))
        )

    def __pow__(self, n: int) -> BraidWord:
        _check_length(len(self.letters) * abs(n))
        base = self if n >= 0 else self.inverse()
        return BraidWord(self.strands_n, base.letters * abs(n))

    def __str__(self) -> str:
        if not self.letters:
            return ""
        parts: list[str] = []
        run_letter: tuple[int, int] | None = None
        run = 0

        def flush():
            if run_letter is None:
                return
            i, e = run_letter
            total = run * e
            parts.append(f"s{i}" if total == 1 else f"s{i}^{total}")

        for letter in self.letters:
            if letter == run_letter:
                run += 1
            else:
                flush()
                run_letter, run = letter, 1
        flush()
        return " ".join(parts)


class TwistKind(enum.Enum):
    HALF_TWIST_SIGMA = "half_twist_sigma"
    FULL_TWIST_TAU = "full_twist_tau"


def canonical_twist_word(kind: TwistKind, support_p: int, strands_n: int) -> BraidWord:
    """The canonical word for a named twist on the first ``support_p`` strands:
    sigma -> s1, tau_p -> (s1 ... s_{p-1})^p.

    All twists of the same kind and support are conjugate, so this single
    representative suffices for kernel-membership work; conjugate variants
    are reachable through the sampler.
    """
    if kind is TwistKind.HALF_TWIST_SIGMA and support_p != 2:
        raise InvalidSupport("a half twist supports exactly 2 strands")
    if kind is TwistKind.FULL_TWIST_TAU and support_p < 2:
        raise InvalidSupport("a full twist needs support at least 2")
    if support_p > strands_n:
        raise InvalidSupport(
            f"support {support_p} exceeds strand count {strands_n}"
        )
    if kind is TwistKind.HALF_TWIST_SIGMA:
        return BraidWord(strands_n, ((1, 1),))
    _check_length((support_p - 1) * support_p)
    ring = tuple((i, 1) for i in range(1, support_p))
    return BraidWord(strands_n, ring * support_p)


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs s_i s_i^-1 until none remain."""
    stack: list[tuple[int, int]] = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(word.strands_n, tuple(stack))


def parse_word(text: str, strands_n: int) -> BraidWord:
    """Parse the word grammar documented in the module docstring.

    Raises WordSyntaxError with a position for malformed text, for groups
    nested more than MAX_GROUP_DEPTH deep and for an integer literal of
    more than MAX_LITERAL_DIGITS digits or that ``int`` cannot read, and
    IndexOutOfRange when a generator or twist index does not fit the
    strand count.
    """
    if strands_n < 2:
        raise InvalidStrandCount(strands_n)
    letters, pos = _parse_sequence(text, 0, strands_n, depth=0)
    return BraidWord(strands_n, tuple(letters))


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_int(text: str, pos: int, signed: bool = False) -> tuple[int, int]:
    start = pos
    if signed and pos < len(text) and text[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == digits:
        raise WordSyntaxError("expected an integer", start)
    if pos - digits <= MAX_LITERAL_DIGITS:
        try:
            return int(text[start:pos]), pos
        except ValueError:  # a non-ASCII digit, or over a lower sys.get_int_max_str_digits()
            pass
    raise WordSyntaxError(f"unreadable integer literal (length {pos - digits})", start)


def _parse_sequence(
    text: str, pos: int, strands_n: int, depth: int
) -> tuple[list[tuple[int, int]], int]:
    """The terms from pos up to an unmatched ')' or the end of the text,
    inside ``depth`` open groups (0: the whole word)."""
    top_level = depth == 0
    letters: list[tuple[int, int]] = []
    saw_term = False
    pos = _skip_ws(text, pos)
    while pos < len(text):
        ch = text[pos]
        if ch == ")":
            if top_level:
                raise WordSyntaxError("unmatched ')'", pos)
            break
        term, pos = _parse_term(text, pos, strands_n, depth)
        _check_length(len(letters) + len(term))
        letters.extend(term)
        saw_term = True
        pos = _skip_ws(text, pos)
    if not top_level and (pos >= len(text) or text[pos] != ")"):
        raise WordSyntaxError("expected ')'", pos)
    if not saw_term and not top_level:
        raise WordSyntaxError("empty group", pos)
    return letters, pos


def _parse_term(
    text: str, pos: int, strands_n: int, depth: int
) -> tuple[list[tuple[int, int]], int]:
    start = pos
    ch = text[pos]
    if ch == "s":
        idx, pos = _parse_int(text, pos + 1)
        if not 1 <= idx <= strands_n - 1:
            raise IndexOutOfRange(
                f"generator s{idx} outside 1..{strands_n - 1}", start
            )
        base = [(idx, 1)]
    elif ch == "T":
        support, pos = _parse_int(text, pos + 1)
        if not 2 <= support <= strands_n:
            raise IndexOutOfRange(
                f"twist T{support} needs support in 2..{strands_n}", start
            )
        base = list(
            canonical_twist_word(TwistKind.FULL_TWIST_TAU, support, strands_n).letters
        )
    elif ch == "(":
        if depth == MAX_GROUP_DEPTH:
            raise WordSyntaxError(f"groups nested more than {MAX_GROUP_DEPTH} deep", pos)
        inner, pos = _parse_sequence(text, pos + 1, strands_n, depth + 1)
        pos += 1  # consume ')'
        base = inner
    else:
        raise WordSyntaxError(f"unexpected character {ch!r}", pos)
    if pos < len(text) and text[pos] == "^":
        exponent, pos = _parse_int(text, pos + 1, signed=True)
        base = _expand_power(base, exponent)
    return base, pos


def _expand_power(letters: list[tuple[int, int]], exponent: int) -> list[tuple[int, int]]:
    _check_length(len(letters) * abs(exponent))
    if exponent >= 0:
        return letters * exponent
    inverted = [(i, -e) for i, e in reversed(letters)]
    return inverted * (-exponent)


def random_word(strands_n: int, length: int, rng: random.Random) -> BraidWord:
    """A uniformly random word of the given length (letters independent)."""
    if strands_n < 2:
        raise InvalidStrandCount(strands_n)
    _check_length(length)
    letters = tuple(
        (rng.randint(1, strands_n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands_n, letters)


def sample_normal_closure(
    strands_n: int,
    gens: Sequence[BraidWord],
    num_factors: int,
    max_conj_len: int,
    seed: int,
) -> BraidWord:
    """A deterministic product of ``num_factors`` conjugates w g^{+-1} w^{-1}
    with conjugator length at most ``max_conj_len`` and g drawn from ``gens``.

    Every output lies in the normal closure of the generators, which makes
    this the test feed for kernel-membership claims.
    """
    if not gens:
        raise EmptyGeneratorSet("need at least one normal generator")
    if num_factors < 1:
        raise ValueError("num_factors must be at least 1")
    if num_factors > MAX_WORD_LETTERS:
        raise WordTooLong(f"{num_factors} factors, more than {MAX_WORD_LETTERS}")
    for g in gens:
        if g.strands_n != strands_n:
            raise ValueError("generator strand count differs from strands_n")
    rng = random.Random(seed)
    letters: list[tuple[int, int]] = []
    for _ in range(num_factors):
        g = gens[rng.randrange(len(gens))].letters
        if rng.random() < 0.5:
            g = [(i, -e) for i, e in reversed(g)]
        conj = random_word(strands_n, rng.randint(0, max_conj_len), rng).letters
        _check_length(len(letters) + 2 * len(conj) + len(g))
        letters += conj
        letters += g
        letters += [(i, -e) for i, e in reversed(conj)]
    return BraidWord(strands_n, tuple(letters))
