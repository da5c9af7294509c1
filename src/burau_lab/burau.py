"""The reduced Burau representation and its root-of-unity specializations.

Convention: braid words act by right multiplication on row vectors, so a
word maps to the product of its generator images in word order, and the
generator matrices take the standard displayed form

    beta_n(sigma_i) = I_{i-2} (+) [[1, 0, 0], [t, -t, 1], [0, 0, 1]] (+) I_{n-i-2}

with the left or right neighbor column absent for i = 1 or i = n-1 (for
n = 2 the image is the 1x1 matrix (-t)). Every generator image, and every
inverse, differs from the identity in a single row. Numbering rows and
columns 1..n-1 like the letters, sigma_i^s (s = +-1) has row i, with t^s
in column i-s, -t^s on the diagonal and 1 in column i+s: sigma_i^-1 has
the row (1, -t^-1, t^-1). So a word's product G_1 ... G_L is built from
the identity by left multiplication, last letter first, and each letter
rewrites a single row:

    row_i <- row_{i+s} + t^s * (row_{i-s} - row_i)

with the rows padded by one zero row at 0 and at n, standing for the
columns that sigma_1 and sigma_{n-1} lack.

One loop, ``_word_product``, reads the word's own letters (i, s) and
applies that step to a list of rows in place, over either of two rings,
each supplying the step as a function of (row_{i+s}, row_{i-s}, row_i, s):

- Z[t, t^-1], for the exact Laurent image (``burau_of_word``). A row is
  one coefficient map keyed e * dim + j, the coefficient of t^e in entry
  j, so t^s moves the whole row by s * dim keys, and a letter is two
  merges (``laurent._accumulate``): a's map copied, b's added and c's
  subtracted at key + s * dim, every cancelled coefficient dropped. Each
  row is split into its dim polynomials once, at the end;
- Z[x]/(x^H + 1) with x -> zeta_2H, for a specialization at a root of
  unity t = -q = zeta_N^k (``specialized_burau``). H is N/2 for even N
  and N for odd N, where Q(zeta_2N) = Q(zeta_N), so zeta_N is a power
  of x and -1 is x^H: t^s is one power x^p, with no sign. A row of dim
  entries is stored packed, as one Python int of dim * H signed slots of
  W bits, row = sum c * 2^(W * (k * dim + j)) with c the coefficient of
  x^k in entry j, read modulo F = 2^(dim * H * W) + 1. There 2^(dim*H*W)
  is -1, as x^H is, so multiplying a whole row by x^p is multiplying it
  by a power of two mod F: a floor split of the int at one bit, the low
  part shifted up and the high part, which wraps around, subtracted at
  the bottom. A letter is six big-int operations with no rounding,
  reduction, gcd or fraction. The floor split can leave the row off its
  balanced form by F: a small count in one extra top slot, index
  dim * H (x^H in entry 0), and the same count in slot 0; unpacking
  folds the top slot back into slot 0. The slots start at W = 64 bits;
  before each chunk of 14 letters a range check on every slot, the top
  one included, doubles W in place when the coefficients could outgrow
  it, and the step for the new width takes over. Entry j is the strided
  slice row[j::dim] of the unpacked row; each is reduced into Q(zeta_N)
  (mod Phi_N) once, at the end, by ``cyclotomic._field_value``, the
  module that owns the field's roots of unity.

At a root of unity, a word takes one pass over its segments, and the
paper's normal generators cost no letters. A word holds each power it was
written with as a count, a segment (block, k) (see ``words``). The full
twist T_n = (s1 ... s_{n-1})^n is central, with image t^n * I, so the
counts of T_n are added up to net. A count of sigma_i is reduced by
o = ord(-t), and a count of T_{n-1} by o = ord(t^(n-1)), both read off the
root's table index (``_cut_orders``), as those powers are I: k becomes the
r with |r| < o and k's sign that k is congruent to mod o. Every other
segment, and what the reductions leave, is spelled out, freely reduced
(``words._free_reduced``) and applied once, to the packed rows of
(t^n)^net * I in place of I's: each row starts as one slot of +-1. t^n is
proved once per root and n, and each order once per root, n and block, at
the first reduction that relies on it, by multiplying out the letters, as
``words`` spells them, and reading them out into the field as any word
is. So T_n^k costs no letters, and nor do s1^d and T_{n-1}^j at their
rows' roots, the closure words w T_n^l w^-1, w s1^d w^-1 and
w T_{n-1}^j w^-1, which are w w^-1 and cancel, or ``s1^999995`` at n = 3,
d = 5. Any other word costs the letters it spells, less its cancelled
pairs: a twist typed as letters, such as ``(s1 s2 s3)^4`` on 4 strands,
costs its letters. The Laurent image adds the counts of T_n up in the
same way, from t^n * I proved once per n over Z[t, t^-1], and spells out
every other count, as no power of sigma_i or T_{n-1} is I there.

Every specialization point is a power zeta_N^k (``root_exponent``); any
other point raises NotARoot.

Also here: the crossed homomorphism v (each entry one merge of
coefficients and one exact division), the affine extension it defines
(beta_n(w) bordered by v(w), which is beta_{n+1}(w): the image of the same
word one strand up), and the evaluation map into a projective class used
to compare against the cone-metric monodromy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    _field_value,
    _half_order,
    _roots_of_unity,
    _unit_rows,
    root_exponent,
    specialize_matrix,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    _accumulate,
    _identity_rows,
    _raw,
    _scalar_rows,
)
from .words import (
    BraidWord,
    _check_integers,
    _check_strand_count,
    _free_reduced,
    _spelled,
    _twist_block,
)


@dataclass(frozen=True)
class BurauImage:
    """A matrix in the image of the reduced Burau representation of B_n:
    dimension n-1 over Laurent polynomials, determinant a unit +-t^k."""

    strands_n: int
    matrix: LaurentMatrix

    def __post_init__(self):
        _check_strand_count(self.strands_n)
        if self.matrix.dim != self.strands_n - 1:
            raise ValueError(
                f"expected a {self.strands_n - 1}x{self.strands_n - 1} matrix"
            )

    def __mul__(self, other: BurauImage) -> BurauImage:
        if not isinstance(other, BurauImage):
            return NotImplemented
        if self.strands_n != other.strands_n:
            raise ValueError("strand counts differ")
        return BurauImage(self.strands_n, self.matrix * other.matrix)


@lru_cache(maxsize=None)
def burau_generator(strands_n: int, index: int, inverse: bool = False) -> BurauImage:
    """The image of sigma_index (or its inverse) in B_strands_n."""
    return burau_of_word(BraidWord(strands_n, ((index, -1 if inverse else 1),)))


def _word_product(letters, rows: list, step) -> None:
    """Replace the padded ``rows`` of a matrix R, in place, by those of
    G_1 ... G_L R, for the letters (i, s) = sigma_i^s, s = +-1, of
    ``letters`` = G_1 ... G_L in word order.

    Padded row i is matrix row i-1, and rows 0 and dim+1 are zero. The
    letters are applied last first, each by left multiplication, which
    rewrites padded row i alone: ``step(a, b, c, s)`` returns
    a + t^s * (b - c) for a = rows[i+s], b = rows[i-s] and c = rows[i].
    """
    for i, s in reversed(letters):
        rows[i] = step(rows[i + s], rows[i - s], rows[i], s)


@lru_cache(maxsize=None)
def _laurent_step_at(dim: int):
    """The ``_word_product`` step over Z[t, t^-1] for rows of dim entries,
    each row one coefficient map keyed e * dim + j for the coefficient of
    t^e in entry j: step(a, b, c, s) = a + t^s * (b - c). Multiplying a
    row by t^s adds s * dim to every key, so the step is a copy of a's map
    with b's merged in and c's merged out at that shift. The inputs are
    not changed."""
    def step(a: dict, b: dict, c: dict, s: int) -> dict:
        shift = s * dim
        return _accumulate(_accumulate(dict(a), b, shift), c, shift, -1)

    return step


def _laurent_row(row: dict, dim: int) -> list[LaurentPoly]:
    """The dim entries of a row held as one coefficient map (see
    ``_laurent_step_at``): key e * dim + j goes to t^e of entry j, and an
    entry with no coefficient is the shared zero."""
    entries = [{} for _ in range(dim)]
    for key, c in row.items():
        e, j = divmod(key, dim)
        entries[j][e] = c
    zero = LaurentPoly.zero()
    return [_raw(m) if m else zero for m in entries]


@lru_cache(maxsize=None)
def _laurent_twist(n: int) -> int:
    """n * (n - 1): the key shift of t^n on rows of n - 1 entries (see
    ``_laurent_step_at``), the image of T_n over Z[t, t^-1] being t^n * I.

    It is proved once per n, before any word relies on it, as ``_twist_at``
    proves t^n at a root: the letter loop multiplies out T_n's n(n-1)
    letters from I, and the rows must come out exactly those of t^n * I.
    Anything else raises TwistProofFailed.
    """
    dim = n - 1
    shift = n * dim
    rows = [{}, *({i: 1} for i in range(dim)), {}]
    _word_product(_twist_block(n), rows, _laurent_step_at(dim))
    if rows[1:-1] != [{shift + i: 1} for i in range(dim)]:
        raise TwistProofFailed(f"T{n} is not t^{n} * I over Z[t, t^-1]")
    return shift


def burau_of_word(word: BraidWord) -> BurauImage:
    """The Burau image of a word: the exact product of generator images in
    word order.

    The word's counts of T_n are added up to net (``_rest_and_net``), as
    T_n is central with image t^n * I (``_laurent_twist``), so the rows
    start as those of t^(n * net) * I, row i the one key (n * net) * dim + i.
    Every other segment is spelled out and the letters are applied, freely
    reduced first (``words._free_reduced``): a pair s_i^e s_i^-e is the
    identity, so it costs no merges. Each row is one coefficient map while
    the letters are applied (``_laurent_step_at``) and is split into its
    dim polynomials at the end. When net is 0, a row that no letter touched is emitted as the
    shared unit row of ``laurent._identity_rows``, which holds
    ``LaurentPoly.one()`` and ``zero()``.
    """
    n = word.strands_n
    dim = n - 1
    rest, net = _rest_and_net(word)
    shift = _laurent_twist(n) * net if net else 0
    start = [{shift + i: 1} for i in range(dim)]
    rows = [{}, *start, {}]
    _word_product(_free_reduced(rest), rows, _laurent_step_at(dim))
    units = _identity_rows(dim)
    return BurauImage(n, LaurentMatrix(
        units[i] if row is start[i] and not net else _laurent_row(row, dim)
        for i, row in enumerate(rows[1:-1])
    ))


# Packed rows start at W = 64 bits per slot and are range-checked before
# each chunk of at most K = 14 letters against T = W - 24, which keeps
# 3^K * (2^T + L) + (3^K - 1)/2 < 2^(W-1) for L < 2^(T-1) letters (see
# specialized_burau).
_START_WIDTH = 64
_CHUNK = 14
_HEADROOM = 24


@lru_cache(maxsize=None)
def _root_step_at(order: int, k: int, dim: int, width: int):
    """The ``_word_product`` step at t = zeta_order^k for packed rows of
    dim * H slots of ``width`` bits over Z[x]/(x^H + 1), x -> zeta_2H (see
    the module docstring): step(a, b, c, s) = a + t^s * (b - c).

    A packed row is read modulo F = 2^total + 1, total = dim * H * width:
    there 2^total is -1, as x^H is, so multiplying a row by x^q, 0 <= q < H,
    is multiplying it by 2^(q * dim * width) mod F. t is x^(m*k),
    m = 2H/order, so t^s is x^p with p = s*m*k mod 2H, which is the
    rotation given in bits by (negate, shift, cut, mask) = (p >= H,
    (p mod H) * dim * width, total - shift, 2^cut - 1), since
    x^p = -x^(p - H) when p >= H. The floor split d = hi * 2^cut + lo,
    lo = d & mask and hi = d >> cut, gives d * 2^shift = hi * 2^total +
    lo * 2^shift, which is lo * 2^shift - hi mod F: one AND, two shifts and
    one subtraction, with no rounding.

    So t^s * (b - c) comes out as its balanced row plus delta * F, delta
    in {0, 1} (1 when the slots below cut are negative as a whole): delta
    in the top slot, index dim * H, which stands for x^H in entry 0, and
    delta in slot 0. The step thus moves a's top slot by at most one, and
    ``_unpack`` folds the top slot back into slot 0.
    """
    half = _half_order(order)
    total = dim * half * width
    # Indexed by s: rotations[1] is t's, rotations[-1] is t^-1's.
    rotations = [None] * 3
    for s in (1, -1):
        p = s * (2 * half // order) * k % (2 * half)
        shift = p % half * dim * width
        rotations[s] = p >= half, shift, total - shift, (1 << total - shift) - 1

    def step(a: int, b: int, c: int, s: int) -> int:
        negate, shift, cut, mask = rotations[s]
        d = b - c
        r = ((d & mask) << shift) - (d >> cut)
        return a - r if negate else a + r

    return step


@lru_cache(maxsize=None)
def _slot_masks(size: int, width: int) -> tuple[int, int, int]:
    """(safe, top, sign) for rows of ``size`` slots of ``width`` bits, with
    T = width - 24: safe has 2^T in every slot, top bits T+1 .. width-1 of
    every slot and sign bit width-1 of every slot. Every slot of a row
    lies in [-2^T, 2^T) exactly when (row + safe) & top == 0."""
    ones = ((1 << size * width) - 1) // ((1 << width) - 1)
    low = width - _HEADROOM
    return ones << low, ones * ((1 << width) - (2 << low)), ones << width - 1


def _unpack(row: int, size: int, width: int) -> list:
    """The ``size`` coefficients of a packed row, lowest first.

    The row is read as size + 1 signed slots: the top slot, index size, is
    what the step's floor split leaves there, x^H in entry 0, so it is
    folded into slot 0 with sign -1, as x^H = -1. Adding the sign mask
    makes every slot nonnegative with no carry, and the XOR then leaves
    each slot in two's complement.
    """
    sign = _slot_masks(size + 1, width)[2]
    data = ((row + sign) ^ sign).to_bytes((size + 1) * width // 8, "little")
    if width == 64 and sys.byteorder == "little":
        slots = memoryview(data).cast("q").tolist()
    else:
        step = width // 8
        slots = [
            int.from_bytes(data[i:i + step], "little", signed=True)
            for i in range(0, len(data), step)
        ]
    slots[0] -= slots.pop()
    return slots


def _pack(slots: list, width: int) -> int:
    """The packed row sum_e slots[e] * 2^(width * e), its top slot zero:
    ``_unpack``'s inverse."""
    sign = _slot_masks(len(slots), width)[2]
    data = b"".join(v.to_bytes(width // 8, "little", signed=True) for v in slots)
    return (int.from_bytes(data, "little") ^ sign) - sign


def _field_row(flat: list, dim: int, order: int, zero: CyclotomicNumber) -> list:
    """The dim entries in Q(zeta_order) of an unpacked row, entry j the
    strided slice flat[j::dim]; an all-zero entry is the shared zero."""
    return [
        _field_value(order, v) if any(v) else zero
        for v in (flat[j::dim] for j in range(dim))
    ]


def _read_out(rows: list, order: int, dim: int, width: int) -> CycloMatrix:
    """The matrix in Q(zeta_order) of the padded packed rows ``rows``, with
    slots of ``width`` bits: a row equal to the packed unit row e_i is the
    cached unit row of ``cyclotomic._unit_rows``, and any other row is
    unpacked and reduced entry by entry (``_field_row``). Entries of the
    ring can be nonzero vectors that vanish in the field (1 - x + x^2,
    H = 3, at order 3 or 6: x -> zeta_6 is a root of it), so no entry is
    judged by its vector, only by its value in the field."""
    size = dim * _half_order(order)
    units = _unit_rows(order, dim)
    zero = CyclotomicNumber.zero(order)
    return CycloMatrix(
        units[i] if row == 1 << width * i
        else _field_row(_unpack(row, size, width), dim, order, zero)
        for i, row in enumerate(rows[1:-1])
    )


def _packed_product(letters: tuple, order: int, k: int, dim: int, twist: int) -> tuple[list, int]:
    """(rows, width): the padded packed rows of x^twist times the product
    of ``letters`` at t = zeta_order^k, 0 <= twist < 2H, with slots of
    ``width`` bits (see ``specialized_burau``). The rows start as those of
    x^twist * I, a scalar, which the letters multiply from the left: row
    i holds x^twist in entry i, stored as -x^(twist - H) when twist >= H."""
    half = _half_order(order)
    size = dim * half
    width = _START_WIDTH
    step = _root_step_at(order, k, dim, width)
    sign = -1 if twist >= half else 1
    rows = [0, *(sign << width * (twist % half * dim + i) for i in range(dim)), 0]
    # Chunks of at most K letters, last first: the order left multiplication
    # takes. Every chunk but the first is preceded by the range check.
    for i in reversed(range(0, len(letters), _CHUNK)):
        if i + _CHUNK < len(letters):
            safe, top, _ = _slot_masks(size + 1, width)
            if any((row + safe) & top for row in rows):
                # At most K letters since the last check: still exact.
                rows = [_pack(_unpack(row, size, width), 2 * width) for row in rows]
                width *= 2
                step = _root_step_at(order, k, dim, width)
        _word_product(letters[i:i + _CHUNK], rows, step)
    return rows, width


class TwistProofFailed(RuntimeError):
    """The letter loop did not multiply a power out to the scalar it must
    be: the full twist T_n to t^n * I, over Z[t, t^-1] or at a root, or at
    a root the o-th power of a block whose counts are reduced by o to I.
    An internal fault, never a fault of the input."""


def _rest_and_net(word: BraidWord, root: tuple[int, int] | None = None) -> tuple[list | tuple, int]:
    """(rest, net): the word's letters with its counts of T_n taken out,
    and their sum. As T_n is central in B_n, the word is rest * T_n^net as
    a braid. Every other segment (block, count) is spelled out
    (``words._spelled``). At a root t = zeta_order^k, root = (order, k), a
    count of a block whose o-th power is I there (``_cut_orders``) is first
    reduced to the r congruent to it mod o with |r| < o and the count's
    sign, which keeps the image. The first reduction that relies on o at
    the root proves it (``_prove_cut``), so a word with nothing to reduce
    proves nothing. A count of +-1 is never reduced, as every o is at
    least 2, so a word of one segment (block, 1) other than T_n is handed
    back as its block, uncopied."""
    n = word.strands_n
    twist = _twist_block(n)
    segments = word._segments
    if len(segments) == 1:
        block, count = segments[0]
        if count == 1 and block != twist:
            return block, 0
    cuts = _cut_orders(*root, n) if root else {}
    rest, net = [], 0
    for block, count in segments:
        if block == twist:
            net += count
            continue
        if count * count > 1 and block in cuts:
            p, o = cuts[block]
            r = count % o if count > 0 else -(-count % o)
            if r != count:
                _prove_cut(*root, n, p, o)
                count = r
        rest += _spelled(block, count)
    return rest, net


def _prove_scalar(letters: tuple, order: int, k: int, dim: int, q: int, claim: str) -> None:
    """Raise TwistProofFailed(claim) unless the letter loop multiplies
    ``letters`` out, from I at t = zeta_order^k, to exactly entry q of
    ``cyclotomic._roots_of_unity(order)`` times I, read out into the field
    (``_read_out``) as every word is."""
    rows, width = _packed_product(letters, order, k, dim, 0)
    scalar = CycloMatrix(_scalar_rows(dim, _roots_of_unity(order)[q], CyclotomicNumber.zero(order)))
    if _read_out(rows, order, dim, width) != scalar:
        raise TwistProofFailed(f"{claim} at t = zeta_{order}^{k}")


@lru_cache(maxsize=None)
def _twist_at(order: int, k: int, n: int) -> int:
    """The entry q of ``cyclotomic._roots_of_unity(order)`` that is t^n at
    t = zeta_order^k, the image of T_n there being t^n * I. Entry q is
    zeta_2H^q, the image of x^q, so the product of a word's other letters
    can start from the packed rows of (x^q)^net * I (``_packed_product``).

    It is proved once per (order, k, n), before any word relies on it: the
    letter loop multiplies out T_n's n(n-1) letters, and their read-out
    must be exactly entry q times I (``_prove_scalar``).
    """
    roots = len(_roots_of_unity(order))
    q = n * k * (roots // order) % roots
    _prove_scalar(_twist_block(n), order, k, n - 1, q, f"T{n} is not t^{n} * I")
    return q


@lru_cache(maxsize=None)
def _cut_orders(order: int, k: int, n: int) -> dict:
    """The blocks whose counts ``specialized_burau`` reduces at
    t = zeta_order^k on n strands, each mapped to (p, o): T_{n-1}'s
    letters to (n - 1, o_T), o_T the order of c = t^(n-1), and each
    sigma_i to (1, o_sigma), o_sigma the order of c = -t. The orders are
    read off the exponents in the table of the 2H roots of unity, where t
    is entry k * 2H / order and -1 entry H. A block whose c is 1 is left
    out, as the powers below are then not shown to be I, and so is
    T_{n-1} for n = 2, which has no letters.

    sigma_i's image is I + e_i r^T with eigenvalue c = -t, so its e-th
    power is I + (1 + c + ... + c^(e-1)) e_i r^T, which is I at e = o when
    c != 1. T_{n-1}'s image on n strands is the affine extension of c * I,
    [[c * I, v], [0, 1]], whose o-th power is [[c^o * I, (1 + ... +
    c^(o-1)) v], [0, 1]]: I when c != 1.
    """
    roots = 2 * _half_order(order)
    e = k * (roots // order)
    kinds = [(1, [((i, 1),) for i in range(1, n)], e + roots // 2)]
    if n > 2:
        kinds.append((n - 1, [_twist_block(n - 1)], e * (n - 1)))
    return {b: (p, roots // gcd(c, roots)) for p, blocks, c in kinds if c % roots for b in blocks}


@lru_cache(maxsize=None)
def _prove_cut(order: int, k: int, n: int, p: int, o: int) -> None:
    """Prove, once per (order, k, n) and block, what a reduction of a count
    by o relies on: the o-th power of sigma_1 (p = 1) or of T<p> is I on n
    strands at t = zeta_order^k. The letter loop multiplies it out, and
    anything but exactly I raises TwistProofFailed (``_prove_scalar``).
    sigma_i^o is conjugate to sigma_1^o, so one proof serves every i."""
    name, block = ("s1", ((1, 1),)) if p == 1 else (f"T{p}", _twist_block(p))
    _prove_scalar(block * o, order, k, n - 1, 0, f"{name}^{o} is not I")


def specialized_burau(word: BraidWord, minus_q: CyclotomicNumber) -> CycloMatrix:
    """The word's Burau image specialized at t = minus_q, exactly.

    minus_q must be a power zeta_N^k (``root_exponent``): any other point
    raises NotARoot, and zero ZeroInput. Every letter entry is then a
    power x^p of x -> zeta_2H, H = N/2 for even N and N for odd N, so the
    product is taken in Z[x]/(x^H + 1). Each row is one Python int of
    dim * H signed slots of W bits, the coefficient of x^e in entry j in
    slot e * dim + j, read as a residue modulo F = 2^(dim * H * W) + 1, and
    a letter rewrites one row (``_word_product``): multiplying a row by t^s
    is multiplying it by a power of two mod F, a floor split, two shifts
    and a subtraction (the step of ``_root_step_at``). The split can leave
    a small count in a top slot, index dim * H, and the same count in slot
    0, which ``_unpack`` folds back; it moves by at most one per letter.

    W starts at 64. The letters are cut once into chunks of at most
    K = 14, and before each chunk but the first every row is checked, with
    one add and one AND, to have all its dim * H + 1 slots in [-2^T, 2^T),
    T = W - 24. Let M bound every slot and every coefficient of x^0 in
    entry 0 (slot 0 minus the top slot). A letter a + x^p * (b - c) then
    bounds every slot by 3M + 1 and that coefficient by 3M, so K letters
    bound them by 3^K * M + (3^K - 1)/2. At a check M <= 2^T + L, where L
    is the number of letters applied since the rows were last packed (the
    top slot starts at 0, moves by at most one per letter and is folded
    away by a repack), and 3^14 * (2^T + L) + (3^14 - 1)/2 < 2^(W-1) for
    every L < 2^(T-1), far more letters than any word in memory has: no
    slot overflows within a chunk. When the check fails, the rows are still
    exact (they were in range one chunk earlier), so they are repacked at
    width 2W, where they pass, the step for width 2W replaces the old one,
    and the word goes on from there: nothing is applied twice. A word of at
    most 14 letters is never checked.

    Before any letter is applied, the word's segments are read once
    (``_rest_and_net``): its counts of the full twist
    T_n = (s1 ... s_{n-1})^n are added up to net, a count k of sigma_i is
    reduced by o_sigma = ord(-t) and one of T_{n-1} = (s1 ... s_{n-2})^(n-1)
    by o_T = ord(t^(n-1)), where those orders are not 1 (``_cut_orders``),
    to the r with |r| < o and k's sign: sigma_i^o_sigma and T_{n-1}^o_T are
    I. The first reduction at (N, k, n) that relies on an order proves that
    power I (``_prove_cut``), so a word with nothing to reduce proves
    nothing. Every other segment, and what is left of a reduced count, is
    spelled out, and the letters are freely reduced
    (``words._free_reduced``). T_n is central, so the word is the rest
    times T_n^net, and its image is the rest's image times c^net, c = t^n,
    the image of T_n; c is proved once per (N, k, n) (``_twist_at``). c^net
    is a root of unity x^p, a scalar, so the rest is applied once, to the
    rows of x^p * I in place of I's (``_packed_product``): each starts as
    one slot of +-1, and the bound above holds as it does from I. When
    nothing is left, no letter is applied and the image is c^net * I, the
    cached unit rows when c^net is 1. So T_n^k costs no letters, and nor
    do the closure words w T_n^l w^-1, w s1^d w^-1 and w T_{n-1}^j w^-1 at
    their rows' roots, whose rest w w^-1 cancels, nor s1^999995 at n = 3,
    d = 5; a conjugate w g w^-1 of any other g costs the letters that
    survive the reductions and the cancellation, at most 2|w| + |g|. A
    power typed as letters, such as (s1 s2 s3)^4 on 4 strands, is spelled
    out and costs its letters.

    Rows are unpacked only at the end, where entry (i, j), the strided
    slice row[j::dim] of row i, is reduced into Q(zeta_N)
    (``_read_out``, ``cyclotomic._field_value``). Only the entries that
    can differ from the identity's are read: a row equal to the packed
    unit row e_i, such as one no letter touched, is emitted as the cached
    unit row e_i of ``cyclotomic._unit_rows``, which holds the field's
    shared one and zero, a zero entry skips the reduction, and a single
    +-x^e is the field's shared root of unity.

    Kernel membership for the specialization means exact equality of this
    matrix with the identity (not projective equality).
    """
    order = minus_q.order
    n = word.strands_n
    dim = n - 1
    k = root_exponent(minus_q)
    rest, net = _rest_and_net(word, (order, k))
    rest = _free_reduced(rest)
    # c^net, c = t^n, as x^twist: its entry in the table of the 2H roots
    # of unity.
    roots = _roots_of_unity(order)
    twist = _twist_at(order, k, n) * net % len(roots) if net else 0
    if not rest:
        if not twist:
            return CycloMatrix(_unit_rows(order, dim))
        return CycloMatrix(_scalar_rows(dim, roots[twist], CyclotomicNumber.zero(order)))
    rows, width = _packed_product(rest, order, k, dim, twist)
    return _read_out(rows, order, dim, width)


def crossed_v(image: BurauImage) -> tuple[LaurentPoly, ...]:
    """The crossed homomorphism v(A) = (I - A) (1-t, ..., 1-t^{n-1})^T / (1-t^n).

    The division is exact for every matrix in the Burau image; a
    NotDivisible error means the input matrix is not in the image (or an
    upstream bug). Satisfies v(AB) = v(A) + A v(B).

    Row i of (I - A) u, u_j = 1 - t^(j+1), is merged into one coefficient
    map: 1 - t^(i+1) from I, then -a_ij and +a_ij * t^(j+1) for each
    nonzero a_ij; one exact division follows.

    >>> crossed_v(burau_generator(4, 3)) == (0, 0, 1)
    True
    """
    n = image.strands_n
    denom = LaurentPoly({0: 1, n: -1})
    out = []
    for i, row in enumerate(image.matrix.rows):
        acc = {0: 1, i + 1: -1}
        for j, a in enumerate(row):
            if a:
                _accumulate(acc, a._coeffs, 0, -1)
                _accumulate(acc, a._coeffs, j + 1)
        out.append(_raw(acc).exact_div(denom))
    return tuple(out)


def affine_extension(image: BurauImage) -> BurauImage:
    """The image A = beta_n(w) one strand up: A bordered by the column
    v(A) and the last row (0, ..., 0, 1), which is beta_{n+1}(w).

    A group homomorphism that agrees with beta_{n+1} on generator images,
    so it agrees on every word.
    """
    v = crossed_v(image)
    dim = image.strands_n - 1
    zero = LaurentPoly.zero()
    rows = [list(image.matrix.rows[i]) + [v[i]] for i in range(dim)]
    rows.append([zero] * dim + [LaurentPoly.one()])
    return BurauImage(image.strands_n + 1, LaurentMatrix(rows))


@dataclass(frozen=True, eq=False)
class ProjectiveMatrix:
    """A matrix considered up to a nonzero scalar (a PGL representative),
    held as its chosen representative ``matrix``. Compare two classes with
    ``projectively_equal`` on their representatives.
    """

    matrix: CycloMatrix


def projectively_equal(a: CycloMatrix, b: CycloMatrix) -> bool:
    """True when a = c*b for some nonzero scalar c, by exact arithmetic.

    c is x/y for the first pair (x, y) of entries that are not both zero.
    When x == y, c is 1 and the test is a.rows == b.rows, which every
    true diagram audit meets: ``ev_map`` and ``rho_product`` give the
    same matrix there. Any other c is tested entry by entry.
    """
    if a.dim != b.dim:
        return False
    pairs = ((x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    first = next(((x, y) for x, y in pairs if not (x.is_zero and y.is_zero)), None)
    if first is None:
        return True  # both zero matrices
    x, y = first
    if x.is_zero or y.is_zero:
        return False
    if x == y:
        # The scalar is 1: no inverse and no products.
        return a.rows == b.rows
    # A zero-pattern mismatch fails the entrywise comparison too. The pairs
    # before the first are both zero, and the first is x = scalar * y.
    scalar = x * y.inverse()
    return all(x.is_zero if y.is_zero else x == scalar * y for x, y in pairs)


def ev_map(image: BurauImage, minus_q: CyclotomicNumber, m: int) -> ProjectiveMatrix:
    """Evaluation into PGL_{m-2}: substitute t = minus_q in the image
    itself when m = n+1, and otherwise in its affine extension padded
    with an identity block up to dimension m-2. An m that is not an
    integer of at least n+1 raises ValueError.
    """
    n = image.strands_n
    _check_integers(ValueError, ("m", m))
    if m < n + 1:
        raise ValueError(f"target puncture count m={m} must be at least n+1={n + 1}")
    if m == n + 1:
        matrix = image.matrix
    else:
        matrix = affine_extension(image).matrix.pad_identity(m - 2 - n)
    return ProjectiveMatrix(specialize_matrix(matrix, minus_q))
