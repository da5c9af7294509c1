"""Reference computations shared by the tests, independent of the code
under test."""

import itertools
import random
from fractions import Fraction


def leibniz_det(m):
    """The determinant as the sum over permutations, in the entries' ring."""
    total = m.entry(0, 0) * 0
    for perm in itertools.permutations(range(m.dim)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(m.dim), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = m.entry(i, j) * term
        total = total + term
    return total


def q_point(d, a=1):
    """The point q = -(-q) = exp(2*pi*i*a/d) for -q = minus_q_from_d(d, a).

    It is -(-q) in the field of -q when that field has even order N (d odd,
    or d = 0 mod 4). For d = 2 mod 4, -q = zeta_N^k has odd order N = d/2,
    and q = -zeta_N^k is no power of zeta_N; it is zeta_2N^(2k + N), built
    here as zeta_d^a.
    """
    from burau_lab.cyclotomic import CyclotomicNumber, minus_q_from_d

    mq = minus_q_from_d(d, a)
    return -mq if mq.order % 2 == 0 else CyclotomicNumber.root_of_unity(d, a)


def embed(x, order):
    """x re-expressed in Q(zeta_order), for x.order dividing order: the
    field map zeta_{x.order} -> zeta_order^(order / x.order)."""
    from burau_lab.cyclotomic import CyclotomicNumber, _substitute

    if order % x.order:
        raise ValueError(f"cannot embed Q(zeta_{x.order}) into Q(zeta_{order})")
    step = order // x.order
    return CyclotomicNumber(order, _substitute(x.numerators, step, order), x.denominator)


def scaled(m, c):
    """The matrix c * m, entrywise, of m's type."""
    return type(m)([e * c for e in row] for row in m.rows)


def shift(p, exp):
    """The Laurent polynomial t^exp * p, built from p's coefficients."""
    from burau_lab.laurent import LaurentPoly

    if not isinstance(exp, int):
        raise TypeError(f"exponent {exp!r} must be an int")
    return LaurentPoly({e + exp: c for e, c in p.coeffs.items()})


def writhe(word):
    """The exponent sum of a braid word."""
    return sum(e for _, e in word.letters)


def naive_free_reduce(letters):
    """The letters with the first adjacent pair s_i^e s_i^-e deleted, again
    and again, until no such pair is left."""
    letters = list(letters)
    while True:
        pairs = zip(letters, letters[1:])
        k = next((k for k, (a, b) in enumerate(pairs) if a[0] == b[0] and a[1] == -b[1]), None)
        if k is None:
            return tuple(letters)
        del letters[k:k + 2]


# -- the flat word parser -------------------------------------------------------
# The package keeps each power of T_n as a count; this is its parser as first
# written, which spells every term out letter by letter. It raises the
# package's errors with the same messages, against the package's cap as it
# stands at the call.


def reference_parse(text, strands_n):
    """The letters of the word that ``text`` spells on ``strands_n``
    strands, every term expanded as it is read."""
    from burau_lab import words

    words._check_strand_count(strands_n)
    letters, _ = _flat_sequence(text, 0, strands_n, 0)
    return tuple(letters)


def _flat_check_length(letters):
    from burau_lab import words

    if letters > words.MAX_WORD_LETTERS:
        raise words.WordTooLong(
            f"word would expand to {words.count_text(letters)} letters, more than {words.MAX_WORD_LETTERS}"
        )


def _flat_int(text, pos, signed=False):
    from burau_lab import words

    start = pos
    if signed and pos < len(text) and text[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == digits:
        raise words.WordSyntaxError("expected an integer", start)
    if pos - digits <= words.MAX_LITERAL_DIGITS:
        try:
            return int(text[start:pos]), pos
        except ValueError:
            pass
    raise words.WordSyntaxError(f"unreadable integer literal (length {pos - digits})", start)


def _flat_skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _flat_sequence(text, pos, strands_n, depth):
    from burau_lab import words

    top_level = depth == 0
    letters = []
    saw_term = False
    pos = _flat_skip_ws(text, pos)
    while pos < len(text):
        if text[pos] == ")":
            if top_level:
                raise words.WordSyntaxError("unmatched ')'", pos)
            break
        term, pos = _flat_term(text, pos, strands_n, depth)
        _flat_check_length(len(letters) + len(term))
        letters.extend(term)
        saw_term = True
        pos = _flat_skip_ws(text, pos)
    if not top_level and (pos >= len(text) or text[pos] != ")"):
        raise words.WordSyntaxError("expected ')'", pos)
    if not saw_term and not top_level:
        raise words.WordSyntaxError("empty group", pos)
    return letters, pos


def _flat_term(text, pos, strands_n, depth):
    from burau_lab import words

    start = pos
    ch = text[pos]
    if ch == "s":
        idx, pos = _flat_int(text, pos + 1)
        if not 1 <= idx <= strands_n - 1:
            raise words.IndexOutOfRange(f"generator s{idx} outside 1..{strands_n - 1}", start)
        base = [(idx, 1)]
    elif ch == "T":
        support, pos = _flat_int(text, pos + 1)
        if not 2 <= support <= strands_n:
            raise words.IndexOutOfRange(f"twist T{support} needs support in 2..{strands_n}", start)
        _flat_check_length(support * (support - 1))
        base = [(i, 1) for i in range(1, support)] * support
    elif ch == "(":
        if depth == words.MAX_GROUP_DEPTH:
            raise words.WordSyntaxError(f"groups nested more than {words.MAX_GROUP_DEPTH} deep", pos)
        base, pos = _flat_sequence(text, pos + 1, strands_n, depth + 1)
        pos += 1
    else:
        raise words.WordSyntaxError(f"unexpected character {ch!r}", pos)
    if pos < len(text) and text[pos] == "^":
        exponent, pos = _flat_int(text, pos + 1, signed=True)
        _flat_check_length(len(base) * abs(exponent))
        base = base * exponent if exponent >= 0 else list(inverse_letters(base)) * -exponent
    return base, pos


def word_programs(n, max_leaves=5, max_exponent=3):
    """Word texts on n strands mixing s_i^+-e, T<n>^+-k, T<p> with p < n,
    groups and negative powers, every term with or without an exponent: a
    generator's or twist's up to max_exponent in size, a group's up to 3."""
    from hypothesis import strategies as st

    def exponents(top):
        return st.one_of(st.just(""), st.integers(-top, top).map(lambda e: f"^{e}"))

    names = [st.integers(1, n - 1).map(lambda i: f"s{i}"), st.just(f"T{n}")]
    if n > 2:
        names.append(st.integers(2, n - 1).map(lambda p: f"T{p}"))
    leaf = st.tuples(st.one_of(*names), exponents(max_exponent)).map("".join)
    term = st.recursive(
        leaf,
        lambda inner: st.tuples(
            st.lists(inner, min_size=1, max_size=3).map(" ".join), exponents(3)
        ).map(lambda group: f"({group[0]}){group[1]}"),
        max_leaves=max_leaves,
    )
    return st.lists(term, max_size=5).map(" ".join)


# -- the seeded draws through the standard library's calls ---------------------
# The package draws through rng.getrandbits; these are its draws as first
# written, one standard-library call per integer.


def reference_letters(strands_n, length, rng):
    """``length`` random letters, each rng.randint(1, n - 1) for the index
    and rng.choice((1, -1)) for the sign."""
    return tuple((rng.randint(1, strands_n - 1), rng.choice((1, -1))) for _ in range(length))


def reference_normal_closure(strands_n, gens, num_factors, max_conj_len, seed, rng=None):
    """The letters of num_factors conjugates c g^+-1 c^-1: per factor,
    g = gens[rng.randrange(len(gens))], inverted when rng.random() < 0.5,
    then c of length rng.randint(0, max_conj_len) (``reference_letters``).
    The draws are made from ``rng`` when given, else from
    random.Random(seed)."""
    rng = random.Random(seed) if rng is None else rng
    letters = []
    for _ in range(num_factors):
        g = gens[rng.randrange(len(gens))].letters
        if rng.random() < 0.5:
            g = inverse_letters(g)
        conj = reference_letters(strands_n, rng.randint(0, max_conj_len), rng)
        letters += conj + g + inverse_letters(conj)
    return tuple(letters)


def inverse_letters(letters):
    """The letters of the inverse word: reversed, each sign negated."""
    return tuple((i, -e) for i, e in reversed(letters))


def rounding_root_step(order, k, dim, width):
    """The packed-row step a + t^s * (b - c) at t = zeta_order^k with the
    rounded split: the slots of d = b - c above bit cut form hi, rounded so
    that the rest, d - hi * 2^cut, is the signed value of the slots below
    it; x^p moves that rest up by shift bits and wraps hi around to the
    bottom with its sign changed, as x^H = -1. For balanced rows it gives
    balanced rows, with no top slot."""
    half = order // 2 if order % 2 == 0 else order
    rotations = {}
    for s in (1, -1):
        p = s * (2 * half // order) * k % (2 * half)
        shift = p % half * dim * width
        rotations[s] = p >= half, shift, dim * half * width - shift

    def step(a, b, c, s):
        negate, shift, cut = rotations[s]
        d = b - c
        hi = ((d >> (cut - 1)) + 1) >> 1
        r = ((d - (hi << cut)) << shift) - hi
        return a - r if negate else a + r

    return step


def pack_slots(slots, width):
    """The int sum_e slots[e] * 2^(width * e)."""
    return sum(v << width * e for e, v in enumerate(slots))


def signed_slots(row, count, width):
    """The ``count`` signed ``width``-bit slots of an int that is their sum,
    lowest first, peeled off one at a time."""
    slots = []
    for _ in range(count):
        v = row & ((1 << width) - 1)
        if v >> (width - 1):
            v -= 1 << width
        slots.append(v)
        row = (row - v) >> width
    assert row == 0, "the int has more slots than count"
    return slots


def ring_row(row, size, width):
    """The ``size`` coefficients over Z[x]/(x^H + 1) of a packed row of
    size + 1 slots: the top slot stands for x^H = -1 in entry 0, so it is
    subtracted from slot 0."""
    slots = signed_slots(row, size + 1, width)
    slots[0] -= slots.pop()
    return slots


# -- the cone-angle rule in Fraction arithmetic --------------------------------
# The moduli layer works on integer numerators over a common denominator;
# these are its formulas as first written, one Fraction at a time.


def fraction_curvatures(n, d):
    """The curvatures of (n, d) as Fractions of 2*pi: n points of
    (d-2)/(2d) and a last point that makes the sum 2; None when the last
    one falls outside (0, 1)."""
    common = Fraction(d - 2, 2 * d)
    last = 2 - n * common
    return (common,) * n + (last,) if 0 < last < 1 else None


def fraction_cone_angle(k_i, k_j, same_label):
    """1/2 - k_i for interchangeable points, 1 - (k_i + k_j) otherwise, or
    None when k_i + k_j >= 1."""
    if k_i + k_j >= 1:
        return None
    return Fraction(1, 2) - k_i if same_label else 1 - (k_i + k_j)


def fraction_order(angle):
    """j when the angle is 1/j, else None."""
    return angle.denominator if angle.numerator == 1 else None


def fraction_strata(fractions, labels):
    """(pair, angle, order) of each stratum, label pairs in sorted order,
    each with its first two points (same label) or first points."""
    by_label = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    names = sorted(by_label)
    strata = []
    for a, label_a in enumerate(names):
        for label_b in names[a:]:
            same = label_a == label_b
            if same and len(by_label[label_a]) < 2:
                continue
            i, j = by_label[label_a][:2] if same else (by_label[label_a][0], by_label[label_b][0])
            angle = fraction_cone_angle(fractions[i], fractions[j], same)
            if angle is not None:
                strata.append(((i, j), angle, fraction_order(angle)))
    return strata


def fraction_central_power(n, d):
    """l, the order of (-q)^n = exp(2*pi*i * n(d+2)/(2d)) at q = exp(2*pi*i/d)."""
    return Fraction(n * (d + 2), 2 * d).denominator
