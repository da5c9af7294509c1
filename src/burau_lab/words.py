"""Braid words: the data model, a text parser, free reduction, and a
seeded sampler for normal-closure elements.

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

Which constructors check their letters: ``BraidWord(n, letters)`` converts
every letter to a pair of ints and checks its index and sign, one letter at
a time; that is the one letter check. The words the package builds itself
hold letters that are valid by construction, so they skip it
(``_valid_word``): ``parse_word`` after its own index checks, ``*``,
``inverse``, ``free_reduce``, ``random_word`` and ``sample_normal_closure``
here, ``monodromy.rho_product``, which reads a word on n strands as the
same letters on m - 1 >= n strands, and ``monodromy.rho_generators``'
one-letter words sigma_i on m - 1 strands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
    """A braid group needs an integer count of at least 2 strands."""

    def __init__(self, strands_n: int):
        if isinstance(strands_n, int):
            message = f"a braid group needs at least 2 strands, got {count_text(strands_n)}"
        else:
            message = f"the strand count is not an integer, got {type(strands_n).__name__}"
        super().__init__(message)


def _check_strand_count(strands_n: int) -> None:
    """Raise InvalidStrandCount unless strands_n is an int of at least 2."""
    if not isinstance(strands_n, int) or strands_n < 2:
        raise InvalidStrandCount(strands_n)


def _check_integers(error: type[ValueError], *named: tuple[str, object]) -> None:
    """Raise error("<name> is not an integer, got <type>") for the first
    (name, value) pair whose value is not an int."""
    for name, value in named:
        if not isinstance(value, int):
            raise error(f"{name} is not an integer, got {type(value).__name__}")


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


class EmptyGeneratorSet(ValueError):
    """The normal-closure sampler needs at least one generator."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands_n`` strands.

    ``letters`` is a sequence of (generator index in 1..n-1, sign in {+1,-1}).
    It is stored as a tuple of int pairs: every letter is converted with
    ``int`` and then checked, which raises the error for the first invalid
    one. The package's own constructors of valid words skip this (see the
    module docstring).
    """

    strands_n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_strand_count(self.strands_n)
        letters = tuple((int(i), int(e)) for i, e in self.letters)
        for i, e in letters:
            if not 1 <= i <= self.strands_n - 1:
                raise IndexOutOfRange(f"generator index {i} outside 1..{self.strands_n - 1}")
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
        return _valid_word(self.strands_n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return _valid_word(self.strands_n, tuple(_inverse_letters(self.letters)))

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


def _valid_word(strands_n: int, letters: tuple[tuple[int, int], ...]) -> BraidWord:
    """The word on ``strands_n`` strands holding ``letters`` as given,
    without ``BraidWord``'s checks: only for a tuple of int pairs (i, +-1),
    1 <= i < strands_n, which the callers' letters are by construction."""
    word = object.__new__(BraidWord)
    object.__setattr__(word, "strands_n", strands_n)
    object.__setattr__(word, "letters", letters)
    return word


def _inverse_letters(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The letters of the inverse word: reversed, each with its sign negated."""
    return [(i, -e) for i, e in reversed(letters)]


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs s_i s_i^-1 until none remain."""
    stack: list[tuple[int, int]] = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return _valid_word(word.strands_n, tuple(stack))


def parse_word(text: str, strands_n: int) -> BraidWord:
    """Parse the word grammar documented in the module docstring.

    Raises WordSyntaxError with a position for malformed text, for groups
    nested more than MAX_GROUP_DEPTH deep and for an integer literal of
    more than MAX_LITERAL_DIGITS digits or that ``int`` cannot read, and
    IndexOutOfRange when a generator or twist index does not fit the
    strand count.
    """
    _check_strand_count(strands_n)
    letters, pos = _parse_sequence(text, 0, strands_n, depth=0)
    return _valid_word(strands_n, tuple(letters))


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
        _check_length(support * (support - 1))
        base = [(i, 1) for i in range(1, support)] * support
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
    return _inverse_letters(letters) * (-exponent)


def random_word(strands_n: int, length: int, rng: random.Random) -> BraidWord:
    """A uniformly random word of the given length (letters independent)."""
    _check_strand_count(strands_n)
    if length < 0:
        raise ValueError(f"word length must be nonnegative, got {length}")
    _check_length(length)
    letters = tuple(
        (rng.randint(1, strands_n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return _valid_word(strands_n, letters)


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
            g = _inverse_letters(g)
        conj = random_word(strands_n, rng.randint(0, max_conj_len), rng).letters
        _check_length(len(letters) + 2 * len(conj) + len(g))
        letters += conj
        letters += g
        letters += _inverse_letters(conj)
    return _valid_word(strands_n, tuple(letters))
