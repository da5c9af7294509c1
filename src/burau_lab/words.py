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
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Sequence


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
        super().__init__(f"a braid group needs at least 2 strands, got {strands_n}")


class InvalidSupport(ValueError):
    """A named twist's support does not satisfy its constraints."""


class EmptyGeneratorSet(ValueError):
    """The normal-closure sampler needs at least one generator."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands_n`` strands.

    ``letters`` is a sequence of (generator index in 1..n-1, sign in {+1,-1}).
    """

    strands_n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands_n < 2:
            raise InvalidStrandCount(self.strands_n)
        object.__setattr__(self, "letters", tuple((int(i), int(e)) for i, e in self.letters))
        for i, e in self.letters:
            if not 1 <= i <= self.strands_n - 1:
                raise IndexOutOfRange(
                    f"generator index {i} outside 1..{self.strands_n - 1}"
                )
            if e not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {e}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands_n != other.strands_n:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands_n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(
            self.strands_n, tuple((i, -e) for i, e in reversed(self.letters))
        )

    def __pow__(self, n: int) -> BraidWord:
        base = self if n >= 0 else self.inverse()
        return BraidWord(self.strands_n, base.letters * abs(n))

    @property
    def writhe(self) -> int:
        """Exponent sum of the word."""
        return sum(e for _, e in self.letters)

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


@dataclass(frozen=True)
class NamedTwist:
    """A named twist macro: the half twist sigma on 2 strands, or the full
    twist tau_p about the first p strands."""

    kind: TwistKind
    support_p: int

    def __post_init__(self):
        if self.kind is TwistKind.HALF_TWIST_SIGMA and self.support_p != 2:
            raise InvalidSupport("a half twist supports exactly 2 strands")
        if self.kind is TwistKind.FULL_TWIST_TAU and self.support_p < 2:
            raise InvalidSupport("a full twist needs support at least 2")

    def word(self, strands_n: int) -> BraidWord:
        return canonical_twist_word(self.kind, self.support_p, strands_n)


def canonical_twist_word(kind: TwistKind, support_p: int, strands_n: int) -> BraidWord:
    """The canonical word for a named twist on the first ``support_p`` strands:
    sigma -> s1, tau_p -> (s1 ... s_{p-1})^p.

    All twists of the same kind and support are conjugate, so this single
    representative suffices for kernel-membership work; conjugate variants
    are reachable through the sampler.
    """
    NamedTwist(kind, support_p)  # validates the pair
    if support_p > strands_n:
        raise InvalidSupport(
            f"support {support_p} exceeds strand count {strands_n}"
        )
    if kind is TwistKind.HALF_TWIST_SIGMA:
        return BraidWord(strands_n, ((1, 1),))
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

    Raises WordSyntaxError with a position for malformed text and
    IndexOutOfRange when a generator or twist index does not fit the
    strand count.
    """
    if strands_n < 2:
        raise InvalidStrandCount(strands_n)
    letters, pos = _parse_sequence(text, 0, strands_n, top_level=True)
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
    return int(text[start:pos]), pos


def _parse_sequence(
    text: str, pos: int, strands_n: int, top_level: bool
) -> tuple[list[tuple[int, int]], int]:
    letters: list[tuple[int, int]] = []
    saw_term = False
    pos = _skip_ws(text, pos)
    while pos < len(text):
        ch = text[pos]
        if ch == ")":
            if top_level:
                raise WordSyntaxError("unmatched ')'", pos)
            break
        term, pos = _parse_term(text, pos, strands_n)
        letters.extend(term)
        saw_term = True
        pos = _skip_ws(text, pos)
    if not top_level and (pos >= len(text) or text[pos] != ")"):
        raise WordSyntaxError("expected ')'", pos)
    if not saw_term and not top_level:
        raise WordSyntaxError("empty group", pos)
    return letters, pos


def _parse_term(text: str, pos: int, strands_n: int) -> tuple[list[tuple[int, int]], int]:
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
        inner, pos = _parse_sequence(text, pos + 1, strands_n, top_level=False)
        pos += 1  # consume ')'
        base = inner
    else:
        raise WordSyntaxError(f"unexpected character {ch!r}", pos)
    if pos < len(text) and text[pos] == "^":
        exponent, pos = _parse_int(text, pos + 1, signed=True)
        base = _expand_power(base, exponent)
    return base, pos


def _expand_power(letters: list[tuple[int, int]], exponent: int) -> list[tuple[int, int]]:
    if exponent >= 0:
        return letters * exponent
    inverted = [(i, -e) for i, e in reversed(letters)]
    return inverted * (-exponent)


def random_word(strands_n: int, length: int, rng: random.Random) -> BraidWord:
    """A uniformly random word of the given length (letters independent)."""
    if strands_n < 2:
        raise InvalidStrandCount(strands_n)
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
    for g in gens:
        if g.strands_n != strands_n:
            raise ValueError("generator strand count differs from strands_n")
    rng = random.Random(seed)
    word = BraidWord(strands_n)
    for _ in range(num_factors):
        g = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            g = g.inverse()
        conj = random_word(strands_n, rng.randint(0, max_conj_len), rng)
        word = word * conj * g * conj.inverse()
    return word
