"""Braid words: the data model, a text parser, free reduction, and a
seeded sampler for normal-closure elements.

Words are sequences of signed Artin generators. No normal-form
machinery is implemented here; representation images are the equality
oracle for everything downstream.

The data model. A ``BraidWord`` holds its letters as segments, in order,
each a pair (block, k) of a non-empty tuple of letters and a nonzero int:
block to the power k, inverted when k < 0 (``_spelled``). A run is one
copy of a block that is not a whole twist, k = +-1; a word built from
letters holds them as the one run (letters, 1). The parser makes a count
of every power it reads: ``s<i>^e`` is (s_i, e), ``T<p>^k`` is (T<p>'s
p(p - 1) letters, k) for every p (``_twist_block``), and a group that
joins to one segment (block, j), raised to e, is (block, j * e).
``_joined`` forms the segments and merges two adjacent ones in two cases
only: the same block with k of the same sign, whose counts add up, and
two runs, which become one run (k = 1). So ``s1 s2^-1`` is one run and
``(s1 s2^-1)^9`` the count 9 of it, a bare ``T<p>``, (T<p>, 1), stays a
count, ``T4^-1 T4`` keeps its 24 letters and ``T4^-2 T4^2`` its 48.
``letters`` is the whole letter sequence, built from the segments on
first read and then kept, and ``len``, ``==``, ``hash``, ``str``,
``repr``, ``*`` and ``inverse`` mean what they mean on it. At a root of
unity ``burau`` adds up the counts of T_n, which is central, and reduces
a count of sigma_i or of T_{n-1} by its order there before it spells it
out.

    >>> len(parse_word("T4^210", 4)) == 2520
    True
    >>> parse_word("T4^210", 4)._segments == ((_twist_block(4), 210),)
    True
    >>> parse_word("s1^5 s2 s3^-1", 4)._segments
    ((((1, 1),), 5), (((2, 1), (3, -1)), 1))
    >>> parse_word("(s1 s2)^3 s1 s1", 4)._segments
    ((((1, 1), (2, 1)), 3), (((1, 1),), 2))
    >>> [k for _, k in parse_word("s1 s2 T3 s1", 3)._segments]
    [1, 1, 1]
    >>> w = parse_word("T4^-1 T4", 4)
    >>> [k for _, k in w._segments], len(w), len(w.letters)
    ([-1, 1], 24, 24)
    >>> w = parse_word("T4^-2 T4^2", 4)
    >>> [k for _, k in w._segments], len(w), len(w.letters)
    ([-2, 2], 48, 48)

Word grammar (used by the CLI and by ``str``):

    word  := term+
    term  := gen ('^' signed_int)?
    gen   := 's' INT | 'T' INT | '(' word ')'

``s<i>`` is the Artin generator sigma_i (1-indexed), ``T<p>`` is the
canonical full twist on the first p strands, (s1 ... s_{p-1})^p, and
exponents repeat or invert what they raise; a power of a word of one
segment multiplies its count. Whitespace separates terms.

Expansion is bounded: a word that would have more than MAX_WORD_LETTERS
letters raises WordTooLong, the count being read from the segments' sizes
before any segment of that size is built.

Which constructors check their letters: ``BraidWord(n, letters)`` converts
every letter to a pair of ints and checks its index and sign, one letter at
a time; that is the one letter check. The words the package builds itself
hold letters that are valid by construction, so they skip it
(``_valid_word`` for letters, ``_from_segments`` for segments):
``parse_word`` after its own index checks, ``*``, ``inverse``,
``free_reduce``, ``random_word`` and ``sample_normal_closure`` here,
``monodromy.rho_product``, which reads a word on n strands as the same
letters on m - 1 >= n strands, ``monodromy.rho_generators``' one-letter
words sigma_i on m - 1 strands, and the one-letter words sigma_1 ..
sigma_4 on 5 strands of ``monodromy._laurent_certificate``.

The seeded draws. ``random_word`` and ``sample_normal_closure`` draw every
integer through ``rng.getrandbits`` by CPython's own rejection rule:
below(b) repeats getrandbits(b.bit_length()) until the value is less than
b. A letter's index is 1 + below(n - 1) and its sign (1, -1)[below(2)],
which is what ``rng.randint(1, n - 1)`` and ``rng.choice((1, -1))`` draw;
a conjugator's length is below(max_conj_len + 1), ``rng.randint(0,
max_conj_len)``, and a generator's position below(len(gens)),
``rng.randrange(len(gens))``. So the letters, and the generator's state
after the draw, are those of the standard library's calls, checked on
CPython 3.10, 3.11, 3.12 and 3.13, for less work per letter.
"""

from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError
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


class BraidWord:
    """A word in the braid group on ``strands_n`` strands.

    ``letters`` is a sequence of (generator index in 1..n-1, sign in {+1,-1}).
    It is stored as a tuple of int pairs: every letter is converted with
    ``int`` and then checked, which raises the error for the first invalid
    one. The package's own constructors of valid words skip this (see the
    module docstring), and may hold powers as counts (``_segments``);
    ``letters`` then spells them out on first read. Assigning or deleting
    an attribute raises FrozenInstanceError.
    """

    __slots__ = ("strands_n", "_segments", "_letters")

    def __init__(self, strands_n: int, letters: Sequence[tuple[int, int]] = ()):
        _check_strand_count(strands_n)
        letters = tuple((int(i), int(e)) for i, e in letters)
        for i, e in letters:
            if not 1 <= i <= strands_n - 1:
                raise IndexOutOfRange(f"generator index {i} outside 1..{strands_n - 1}")
            if e not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {e}")
        _set(self, "strands_n", strands_n)
        _set(self, "_segments", ((letters, 1),) if letters else ())
        _set(self, "_letters", letters)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the word from its segments, as they cannot
        # assign its slots.
        return _from_segments, (self.strands_n, self._segments)

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The whole letter sequence: a word holding counts spells them out
        on the first read and keeps the result."""
        letters = self._letters
        if letters is None:
            spelled = []
            for block, k in self._segments:
                spelled += _spelled(block, k)
            letters = tuple(spelled)
            _set(self, "_letters", letters)
        return letters

    def __len__(self) -> int:
        letters = self._letters
        if letters is not None:
            return len(letters)
        return sum(len(block) * abs(k) for block, k in self._segments)

    def __eq__(self, other: object) -> bool:
        if type(other) is not BraidWord:
            return NotImplemented
        return (self.strands_n, self.letters) == (other.strands_n, other.letters)

    def __hash__(self) -> int:
        return hash((self.strands_n, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord(strands_n={self.strands_n!r}, letters={self.letters!r})"

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands_n != other.strands_n:
            raise ValueError("cannot concatenate words on different strand counts")
        _check_length(len(self) + len(other))
        return _from_segments(self.strands_n, _joined(self._segments + other._segments))

    def inverse(self) -> BraidWord:
        return _from_segments(self.strands_n, _joined(_inverse_segments(self._segments)))

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


# The slots' own setter: BraidWord refuses attribute assignment.
_set = object.__setattr__


def _valid_word(strands_n: int, letters: tuple[tuple[int, int], ...]) -> BraidWord:
    """The word on ``strands_n`` strands holding ``letters`` as given,
    without ``BraidWord``'s checks: only for a tuple of int pairs (i, +-1),
    1 <= i < strands_n, which the callers' letters are by construction."""
    word = object.__new__(BraidWord)
    _set(word, "strands_n", strands_n)
    _set(word, "_segments", ((letters, 1),) if letters else ())
    _set(word, "_letters", letters)
    return word


def _from_segments(strands_n: int, segments: tuple) -> BraidWord:
    """The word on ``strands_n`` strands holding ``segments`` as given,
    without checks: only for segments as ``_joined`` returns them, each
    block a tuple of valid letters. A word of one run knows its letters."""
    word = object.__new__(BraidWord)
    _set(word, "strands_n", strands_n)
    _set(word, "_segments", segments)
    if not segments:
        _set(word, "_letters", ())
    elif len(segments) == 1 and segments[0][1] == 1:
        _set(word, "_letters", segments[0][0])
    else:
        _set(word, "_letters", None)
    return word


def _joined(pieces) -> tuple:
    """The segments of the word made of ``pieces`` one after another, each
    a pair (block, k) of a tuple of letters and an int, the block to the
    power k. A piece joins the segment before it in two cases only: the
    same block with k of the same sign, whose counts add up, and two runs,
    which become one run (k = 1), grown as a list in place so that every
    letter is copied once or twice. A run is one copy of a block that is
    not a whole twist (``_is_twist``), k = 1 or k = -1 spelled inverted,
    so ``s1 s2^-1`` is one run and a bare ``T<p>`` stays a count. Empty
    blocks and zero counts drop out."""
    segments = []
    for piece in pieces:
        block, k = piece
        if not (block and k):
            continue
        if segments:
            last, j = segments[-1]
            if (j > 0) == (k > 0) and len(last) == len(block) and tuple(last) == block:
                segments[-1] = block, j + k
                continue
            if j * j == k * k == 1 and not (_is_twist(last) or _is_twist(block)):
                if type(last) is tuple:
                    last = list(_spelled(last, j))
                    segments[-1] = last, 1
                last += _spelled(block, k)
                continue
        segments.append(piece)
    return tuple(s if type(s[0]) is tuple else (tuple(s[0]), 1) for s in segments)


def _is_twist(block) -> bool:
    """Whether ``block`` is the letters of a whole twist T<p>
    (``_twist_block``); a list, a run still growing, is not."""
    p = block[-1][0] + 1
    return len(block) == p * (p - 1) and block == _twist_block(p)


def _inverse_segments(segments: Sequence) -> list:
    """The segments of the inverse word: reversed, each count negated."""
    return [(block, -k) for block, k in reversed(segments)]


def _spelled(block: tuple, k: int):
    """The letters of ``block`` to the power k: k copies of it, or -k of
    its inverse when k < 0."""
    return block * k if k > 0 else _inverse_letters(block) * -k


@lru_cache(maxsize=None)
def _twist_block(p: int) -> tuple[tuple[int, int], ...]:
    """The letters of T<p>, the full twist on the first p strands:
    (s1 ... s_{p-1})^p, p(p - 1) letters. The one spelling of T<p>, which
    ``burau`` also compares blocks with and multiplies out in its proofs."""
    return tuple((i, 1) for i in range(1, p)) * p


def _inverse_letters(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The letters of the inverse word: reversed, each with its sign negated."""
    return tuple([(i, -e) for i, e in reversed(letters)])


def _free_reduced(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The letters with adjacent inverse pairs s_i^e s_i^-e cancelled until
    none remain: the freely reduced word, the same braid. One pass with a
    stack, which starts with the sentinel (0, 0) that cancels no letter;
    the top letter's index and sign are kept in locals."""
    stack = [(0, 0)]
    top_i = top_s = 0
    for letter in letters:
        i, s = letter
        if i == top_i and s == -top_s:
            del stack[-1]
            top_i, top_s = stack[-1]
        else:
            stack.append(letter)
            top_i, top_s = i, s
    return tuple(stack[1:])


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs s_i s_i^-1 until none remain."""
    return _valid_word(word.strands_n, _free_reduced(word.letters))


def parse_word(text: str, strands_n: int) -> BraidWord:
    """Parse the word grammar documented in the module docstring.

    Raises WordSyntaxError with a position for malformed text, for groups
    nested more than MAX_GROUP_DEPTH deep and for an integer literal of
    more than MAX_LITERAL_DIGITS digits or that ``int`` cannot read, and
    IndexOutOfRange when a generator or twist index does not fit the
    strand count.
    """
    _check_strand_count(strands_n)
    pieces, _, _ = _parse_sequence(text, 0, strands_n, depth=0)
    return _from_segments(strands_n, _joined(pieces))


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


def _parse_sequence(text: str, pos: int, strands_n: int, depth: int) -> tuple[list, int, int]:
    """(pieces, size, pos): the terms from pos up to an unmatched ')' or
    the end of the text, inside ``depth`` open groups (0: the whole word),
    as pieces for ``_joined`` that spell ``size`` letters."""
    top_level = depth == 0
    pieces: list = []
    size = 0
    saw_term = False
    pos = _skip_ws(text, pos)
    while pos < len(text):
        ch = text[pos]
        if ch == ")":
            if top_level:
                raise WordSyntaxError("unmatched ')'", pos)
            break
        term, term_size, pos = _parse_term(text, pos, strands_n, depth)
        size += term_size
        _check_length(size)
        pieces += term
        saw_term = True
        pos = _skip_ws(text, pos)
    if not top_level and (pos >= len(text) or text[pos] != ")"):
        raise WordSyntaxError("expected ')'", pos)
    if not saw_term and not top_level:
        raise WordSyntaxError("empty group", pos)
    return pieces, size, pos


def _parse_term(text: str, pos: int, strands_n: int, depth: int) -> tuple[list, int, int]:
    """(pieces, size, pos) of the term at pos, as ``_parse_sequence``'s:
    a generator or twist is one segment (its block, 1)."""
    start = pos
    ch = text[pos]
    if ch == "s":
        idx, pos = _parse_int(text, pos + 1)
        if not 1 <= idx <= strands_n - 1:
            raise IndexOutOfRange(
                f"generator s{idx} outside 1..{strands_n - 1}", start
            )
        base, size = [(((idx, 1),), 1)], 1
    elif ch == "T":
        support, pos = _parse_int(text, pos + 1)
        if not 2 <= support <= strands_n:
            raise IndexOutOfRange(
                f"twist T{support} needs support in 2..{strands_n}", start
            )
        size = support * (support - 1)
        _check_length(size)
        base = [(_twist_block(support), 1)]
    elif ch == "(":
        if depth == MAX_GROUP_DEPTH:
            raise WordSyntaxError(f"groups nested more than {MAX_GROUP_DEPTH} deep", pos)
        base, size, pos = _parse_sequence(text, pos + 1, strands_n, depth + 1)
        pos += 1  # consume ')'
    else:
        raise WordSyntaxError(f"unexpected character {ch!r}", pos)
    if pos < len(text) and text[pos] == "^":
        exponent, pos = _parse_int(text, pos + 1, signed=True)
        base, size = _expand_power(base, size, exponent)
    return base, size, pos


def _expand_power(pieces: list, size: int, exponent: int) -> tuple[list, int]:
    """(pieces, size) of the word that ``pieces``, ``size`` letters, spell,
    to the power ``exponent``, checked against the cap before anything is
    built. The word is joined once (``_joined``): one segment (block, k)
    becomes the count (block, k * exponent), and any other word is
    repeated as references to its segments, inverted first when the
    exponent is negative."""
    _check_length(size * abs(exponent))
    segments = _joined(pieces)
    if len(segments) == 1:
        block, k = segments[0]
        return [(block, k * exponent)], size * abs(exponent)
    if exponent < 0:
        segments, exponent = _inverse_segments(segments), -exponent
    return list(segments) * exponent, size * exponent


def _below(getrandbits, bound: int) -> int:
    """A uniform draw from 0..bound-1, bound >= 1, as CPython's
    ``random.Random`` makes it: getrandbits(bound.bit_length()), repeated
    until the value is less than bound."""
    bits = bound.bit_length()
    value = getrandbits(bits)
    while value >= bound:
        value = getrandbits(bits)
    return value


def _drawn_letters(getrandbits, strands_n: int, length: int) -> list[tuple[int, int]]:
    """``length`` letters, each an index 1 + below(n - 1) then a sign
    (1, -1)[below(2)] (see the module docstring), with ``_below``'s
    rejection inlined: below(2) draws 2 bits until the value is 0 or 1."""
    span = strands_n - 1
    bits = span.bit_length()
    letters = []
    for _ in range(length):
        i = getrandbits(bits)
        while i >= span:
            i = getrandbits(bits)
        s = getrandbits(2)
        while s >= 2:
            s = getrandbits(2)
        letters.append((i + 1, -1 if s else 1))
    return letters


def random_word(strands_n: int, length: int, rng: random.Random) -> BraidWord:
    """A uniformly random word of the given length (letters independent),
    drawn as the module docstring states."""
    _check_strand_count(strands_n)
    _check_integers(ValueError, ("length", length))
    if length < 0:
        raise ValueError(f"word length must be nonnegative, got {length}")
    _check_length(length)
    return _valid_word(strands_n, tuple(_drawn_letters(rng.getrandbits, strands_n, length)))


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
    this the test feed for kernel-membership claims. Each factor draws g's
    position, then ``rng.random() < 0.5`` for g's inverse, then the
    conjugator's length and letters, as the module docstring states; a
    product that would pass MAX_WORD_LETTERS raises WordTooLong before its
    conjugator's letters are drawn. g's segments are taken as they are, so
    its counts stay counts.
    """
    if not gens:
        raise EmptyGeneratorSet("need at least one normal generator")
    _check_integers(ValueError, ("num_factors", num_factors), ("max_conj_len", max_conj_len))
    if num_factors < 1:
        raise ValueError("num_factors must be at least 1")
    if num_factors > MAX_WORD_LETTERS:
        raise WordTooLong(f"{num_factors} factors, more than {MAX_WORD_LETTERS}")
    if max_conj_len < 0:
        raise ValueError(f"max_conj_len must be nonnegative, got {max_conj_len}")
    for g in gens:
        if g.strands_n != strands_n:
            raise ValueError("generator strand count differs from strands_n")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    pieces: list = []
    size = 0
    for _ in range(num_factors):
        g = gens[_below(getrandbits, len(gens))]
        segments = g._segments
        if rng.random() < 0.5:
            segments = _inverse_segments(segments)
        length = _below(getrandbits, max_conj_len + 1)
        size += 2 * length + len(g)
        _check_length(size)
        conj = tuple(_drawn_letters(getrandbits, strands_n, length))
        pieces += ((conj, 1), *segments, (_inverse_letters(conj), 1))
    return _from_segments(strands_n, _joined(pieces))
