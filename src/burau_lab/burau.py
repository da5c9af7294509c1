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

At a root of unity, a word is written u^k, u its shortest root. The full
twist T_n = (s1 ... s_{n-1})^n is central, with image t^n * I, so every
block of u that is T_n or T_n^-1 is taken out and counted, and the image
is multiplied by (t^n)^(net * k) at the end: by one rotation of each
packed row, as a letter multiplies by t^s. t^n is proved once per root
and n, by multiplying out T_n's letters. What is left of u is applied one
copy at a time, each continuing on the rows the last left. After j
copies, j a proper divisor of k, the product is tested for an exact
scalar c * I in Q(zeta_N); if it is one, the image is c^(k/j) * I times
the twists' power, and the rest of the word is not applied. So T_n^k,
whose root s1 ... s_{n-1} holds no block, costs one T_n by the scalar
test, and a closure word w T_n^l w^-1 costs the letters of w and w^-1.
A root shorter than T_n is not scanned. Any other word costs its
letters, less those of its blocks, plus the scan and the scalar tests.

Every specialization point is a power zeta_N^k (``root_exponent``); any
other point raises NotARoot.

Also here: the crossed homomorphism v (each entry one merge of
coefficients and one exact division), the affine extension it defines
(beta_n(w) bordered by v(w), which is beta_{n+1}(w): the image of the same
word one strand up), and the evaluation map into a projective class used
to compare against the cone-metric monodromy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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
from .words import BraidWord, _check_integers, _check_strand_count


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


def burau_of_word(word: BraidWord) -> BurauImage:
    """The Burau image of a word: the exact product of generator images in
    word order.

    Each row is one coefficient map while the letters are applied
    (``_laurent_step_at``) and is split into its dim polynomials at the
    end. A row that no letter touched is emitted as the shared unit row of
    ``laurent._identity_rows``, which holds ``LaurentPoly.one()`` and
    ``zero()``.
    """
    n = word.strands_n
    dim = n - 1
    start = [{i: 1} for i in range(dim)]
    rows = [{}, *start, {}]
    _word_product(word.letters, rows, _laurent_step_at(dim))
    units = _identity_rows(dim)
    return BurauImage(n, LaurentMatrix(
        units[i] if row is start[i] else _laurent_row(row, dim)
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
    # Indexed by s: rotations[1] is t's, rotations[-1] is t^-1's.
    rotations = [None] * 3
    for s in (1, -1):
        rotations[s] = _rotation(half, dim, width, s * (2 * half // order) * k % (2 * half))

    def step(a: int, b: int, c: int, s: int) -> int:
        negate, shift, cut, mask = rotations[s]
        d = b - c
        r = ((d & mask) << shift) - (d >> cut)
        return a - r if negate else a + r

    return step


def _rotation(half: int, dim: int, width: int, p: int) -> tuple[bool, int, int, int]:
    """(negate, shift, cut, mask) for multiplying a packed row of dim * H
    slots of ``width`` bits, H = half, by x^p, 0 <= p < 2H: see
    ``_root_step_at``, whose step applies it to b - c."""
    shift = p % half * dim * width
    cut = dim * half * width - shift
    return p >= half, shift, cut, (1 << cut) - 1


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


def _root_length(letters: tuple) -> int:
    """The length p of the shortest u with letters = u^(len/p).

    Only divisors p of the length are tried, in increasing order, each by
    the period test letters[p:] == letters[:-p]. By Fine and Wilf, every
    period dividing the length is a multiple of the shortest such one, so
    the first hit is the primitive root. A divisor whose second block of p
    letters differs from the first is rejected in O(p) before that test.
    The empty word gives 0.
    """
    length = len(letters)
    small = [p for p in range(1, math.isqrt(length) + 1) if length % p == 0]
    for p in small + [length // p for p in reversed(small)]:
        if letters[p:2 * p] == letters[:p] and letters[p:] == letters[:-p]:
            return p
    return length


def _scalar_value(rows: list, order: int, size: int, width: int) -> CyclotomicNumber | None:
    """c when the matrix over Z[x]/(x^H + 1) with these packed rows of
    ``size`` slots of ``width`` bits reduces to c * I in Q(zeta_order),
    else None; entry (i, j) is the strided slice flat[j::dim] of row i
    unpacked.

    Entries of the ring can be nonzero vectors that vanish in the field
    (1 - x + x^2, H = 3, at order 3 or 6: x -> zeta_6 is a root of it), so
    each test is made in the field. Rows are unpacked one at a time, as
    the test reaches them, and it stops at the first failure: an
    off-diagonal entry is reduced only when its vector is nonzero, and it
    must vanish; the diagonal entry must reduce to row 0's, which is c.
    """
    dim = len(rows)
    c = None
    for i, packed in enumerate(rows):
        flat = _unpack(packed, size, width)
        for j in range(dim):
            v = flat[j::dim]
            if i != j and any(v) and not _field_value(order, v).is_zero:
                return None
        diagonal = _field_value(order, flat[i::dim])
        if c is None:
            c = diagonal
        elif diagonal != c:
            return None
    return c


def _field_row(flat: list, dim: int, order: int, zero: CyclotomicNumber) -> list:
    """The dim entries in Q(zeta_order) of an unpacked row, entry j the
    strided slice flat[j::dim]; an all-zero entry is the shared zero."""
    return [
        _field_value(order, v) if any(v) else zero
        for v in (flat[j::dim] for j in range(dim))
    ]


def _copies_applied(root: tuple, copies: int, order: int, k: int, dim: int):
    """Apply ``copies`` copies of the letters ``root`` at t = zeta_order^k,
    and yield (j, rows, width) after each copy j that divides ``copies``,
    the last one included: the padded packed rows of root^j, with slots of
    ``width`` bits (see ``specialized_burau``), as one list that later
    copies rewrite in place or a widening replaces. The caller may stop at
    any of them."""
    # At most K letters each, last first: the order left multiplication takes.
    chunks = [root[i:i + _CHUNK] for i in reversed(range(0, len(root), _CHUNK))]
    size = dim * _half_order(order)
    width = _START_WIDTH
    step = _root_step_at(order, k, dim, width)
    rows = [0, *(1 << width * i for i in range(dim)), 0]
    # Letters applied since every slot was last known to lie in [-2^T, 2^T).
    fresh = 0
    for j in range(1, copies + 1):
        for chunk in chunks:
            if fresh + len(chunk) > _CHUNK:
                safe, top, _ = _slot_masks(size + 1, width)
                if any((row + safe) & top for row in rows):
                    # At most K letters since the last check: still exact.
                    rows = [_pack(_unpack(row, size, width), 2 * width) for row in rows]
                    width *= 2
                    step = _root_step_at(order, k, dim, width)
                fresh = 0
            _word_product(chunk, rows, step)
            fresh += len(chunk)
        if copies % j == 0:
            yield j, rows, width


class TwistProofFailed(RuntimeError):
    """The letter loop did not multiply the full twist T_n out to t^n * I
    at a root: an internal fault, never a fault of the input."""


@lru_cache(maxsize=None)
def _twist_periods(n: int) -> tuple[None, tuple, tuple]:
    """Indexed by s = +-1: the period (s1 ... s_{n-1}) of T_n, s = 1, and
    the period (s_{n-1}^-1 ... s1^-1) of T_n^-1, s = -1. Each block is its
    period n times over, n(n-1) letters."""
    return None, tuple((i, 1) for i in range(1, n)), tuple((i, -1) for i in reversed(range(1, n)))


def _strip_twists(letters: tuple, n: int) -> tuple[tuple, int]:
    """(rest, net): the letters with blocks T_n and T_n^-1 taken out as a
    left to right scan finds them, and the number of T_n blocks taken less
    the number of T_n^-1 blocks. As T_n is central in B_n, the letters are
    rest * T_n^net as a braid.

    A block lies in a run of whole periods of one sign, with each letter
    (i, s) at a fixed place in its period, so runs of either sign are
    disjoint. Every block holds exactly one of the probes p = n(n-1) - 1,
    2n(n-1) - 1, ..., so only the probes' letters are read one by one. A
    probe whose period is a block's is grown into its run, left and right,
    by comparing slices with themselves shifted by one period, and the run
    gives up its blocks from its left end, as many as fit. The scan goes on
    at the first probe past the run.
    """
    period, size = n - 1, n * (n - 1)
    periods = _twist_periods(n)
    rest, net, done = [], 0, 0
    p = size - 1
    while p < len(letters):
        i, s = letters[p]
        # The start of the period of sign s that holds p.
        a = p - (i - 1 if s > 0 else period - i)
        if letters[a:a + period] != periods[s]:
            p += size
            continue
        start, end = a, a + period
        while start >= period and letters[start - period:start] == letters[start:start + period]:
            start -= period
        while letters[end:end + size] == letters[end - period:end - period + size]:
            end += size
        while letters[end:end + period] == letters[end - period:end]:
            end += period
        blocks = (end - start) // size
        if blocks:
            rest += letters[done:start]
            done = start + blocks * size
            net += s * blocks
        p = end + size - 1
    if not done:
        return letters, 0
    rest += letters[done:]
    return tuple(rest), net


@lru_cache(maxsize=None)
def _twist_at(order: int, k: int, n: int) -> int:
    """The entry q of ``cyclotomic._roots_of_unity(order)`` that is t^n at
    t = zeta_order^k, the image of T_n there being t^n * I. Entry q is
    zeta_2H^q, the image of x^q, so a packed row is multiplied by it with
    one rotation (``_rotation``).

    It is proved once per (order, k, n), before any word relies on it: the
    letter loop multiplies out T_n's n(n-1) letters, and ``_scalar_value``
    must give exactly entry q. Anything else raises TwistProofFailed.
    """
    roots = _roots_of_unity(order)
    q = n * k * (len(roots) // order) % len(roots)
    [(_, rows, width)] = _copies_applied(_twist_periods(n)[1] * n, 1, order, k, n - 1)
    if _scalar_value(rows[1:-1], order, (n - 1) * _half_order(order), width) != roots[q]:
        raise TwistProofFailed(f"T{n} is not t^{n} * I at t = zeta_{order}^{k}")
    return q


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

    W starts at 64. The root's letters are cut once into chunks of at most
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

    Rows are unpacked only for the scalar test below, one at a time as it
    reaches them, and at the end, where entry (i, j), the strided slice
    row[j::dim] of row i, is reduced into Q(zeta_N)
    (``cyclotomic._field_value``). Only the entries that can differ from
    the identity's are read: a row equal to the packed unit row e_i, such
    as one no letter touched, is emitted as the cached unit row e_i of
    ``cyclotomic._unit_rows``, which holds
    the field's shared one and zero, a zero entry skips the reduction, and
    a single +-x^e is the field's shared root of unity.

    The word is written as u^k with u its shortest root. When u has at
    least n(n-1) letters, every disjoint block of u that is the full twist
    T_n = (s1 ... s_{n-1})^n or its inverse (s_{n-1}^-1 ... s1^-1)^n is
    taken out, left to right, and counted as +1 or -1 (``_strip_twists``).
    T_n is central, so u is the rest times T_n^net, and the word's image is
    the rest's image to the k-th power times c^(net * k), c = t^n, the
    image of T_n; c is proved once per (N, k, n) (``_twist_at``). What is
    left of u is applied one copy at a time. When the product after j
    copies, j a proper divisor of k, reduces exactly to a scalar c' * I,
    the image is c'^(k/j) * c^(net * k) on the diagonal and a shared zero
    elsewhere, and the remaining copies are not applied. Otherwise the
    rows of the last copy are multiplied by c^(net * k), a root of unity
    x^p, by one rotation each, as a letter's t^s is, unless it is 1. A
    rotation moves the slots and adds at most one to one of them, and
    3^14 * (2^T + L) + (3^14 + 1)/2 < 2^(W-1) still holds, so no slot
    overflows. When nothing is left of u, no letter is applied
    and the image is c^(net * k) * I. So T_n^k, whose root s1 ... s_{n-1}
    is shorter than n(n-1), costs n(n-1) letters and one field power, and
    a closure word w T_n^l w^-1 costs the 2|w| letters of w and w^-1.

    Kernel membership for the specialization means exact equality of this
    matrix with the identity (not projective equality).
    """
    order = minus_q.order
    n = word.strands_n
    dim = n - 1
    k = root_exponent(minus_q)
    p = _root_length(word.letters)
    copies = len(word.letters) // p if p else 1
    half = _half_order(order)
    root, twist = word.letters[:p], 0
    if p >= n * dim:
        root, net = _strip_twists(root, n)
        if net:
            # c^(net * copies), c = t^n, as x^twist: its entry in the table
            # of the 2H roots of unity.
            twist = _twist_at(order, k, n) * net * copies % (2 * half)
    zero = CyclotomicNumber.zero(order)
    if not root:
        return CycloMatrix(_scalar_rows(dim, _roots_of_unity(order)[twist], zero))
    size = dim * half
    for j, rows, width in _copies_applied(root, copies, order, k, dim):
        if j < copies:
            c = _scalar_value(rows[1:-1], order, size, width)
            if c is not None:
                c = c ** (copies // j)
                if twist:
                    c = c * _roots_of_unity(order)[twist]
                return CycloMatrix(_scalar_rows(dim, c, zero))
    if twist:
        # The step's rotation, by x^twist, of every row.
        negate, shift, cut, mask = _rotation(half, dim, width, twist)
        for i in range(1, dim + 1):
            r = ((rows[i] & mask) << shift) - (rows[i] >> cut)
            rows[i] = -r if negate else r
    units = _unit_rows(order, dim)
    return CycloMatrix(
        units[i] if row == 1 << width * i
        else _field_row(_unpack(row, size, width), dim, order, zero)
        for i, row in enumerate(rows[1:-1])
    )


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
