"""The reduced Burau representation and its root-of-unity specializations.

Convention: braid words act by right multiplication on row vectors, so a
word maps to the product of its generator images in word order, and the
generator matrices take the standard displayed form

    beta_n(sigma_i) = I_{i-2} (+) [[1, 0, 0], [t, -t, 1], [0, 0, 1]] (+) I_{n-i-2}

with the left or right neighbor column absent for i = 1 or i = n-1 (for
n = 2 the image is the 1x1 matrix (-t)). Every generator image, and every
inverse, differs from the identity in a single row whose entries are signed
monomials +-t^e, so applying a letter is three column updates instead of a
full matrix product.

One loop, ``_word_product``, applies those updates over either of two
rings, each supplying "multiply a column by +-t^e" and "add +-t^e times a
column to another":

- Z[t, t^-1], for the exact Laurent image (``burau_of_word``);
- Z[x]/(x^H + 1) with x -> zeta_2H, for a specialization at a root of
  unity t = -q = zeta_N^k (``specialized_burau``). H is N/2 for even N
  and N for odd N, where Q(zeta_2N) = Q(zeta_N), so zeta_N is a power
  of x and -1 is x^H: each +-t^e is one power x^p, with no sign. A column
  of dim entries is stored flat, as one list of dim * H integers with the
  coefficient of x^k in entry i at index k * dim + i, so multiplying a
  whole column by x^p is one negacyclic rotation of that list by
  (p mod H) * dim: the part that wraps around changes sign (as x^H = -1),
  with no reduction, gcd or fraction. Entry i is the strided slice
  col[i::dim]; each is reduced into Q(zeta_N) (mod Phi_N) once, at the
  end.

At a root of unity, a word that is a proper power u^k (u its shortest
root) is applied one copy of u at a time, continuing from the columns the
loop returns. After j copies, j a proper divisor of k, the product is
tested for an exact scalar c * I in Q(zeta_N); if it is one, the image is
c^(k/j) * I and the rest of the word is not applied. The full twist T_n,
whose image is t^n * I, is (s1 ... s_{n-1})^n, so T_n^k costs one T_n. A
word that is not a power, or none of whose prefix powers is scalar, costs
what it did without the test.

Every specialization point is a power zeta_N^k (``root_exponent``); any
other point raises NotARoot.

Also here: the crossed homomorphism v, the affine extension it defines
(beta_n(w) bordered by v(w), which is beta_{n+1}(w): the image of the same
word one strand up), and the evaluation map into a projective class used
to compare against the cone-metric monodromy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycloMatrix, CyclotomicNumber, root_exponent, specialize_matrix
from .laurent import LaurentMatrix, LaurentPoly, _scalar_rows
from .words import BraidWord


@dataclass(frozen=True)
class BurauImage:
    """A matrix in the image of the reduced Burau representation of B_n:
    dimension n-1 over Laurent polynomials, determinant a unit +-t^k."""

    strands_n: int
    matrix: LaurentMatrix

    def __post_init__(self):
        if self.matrix.dim != max(self.strands_n - 1, 1):
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


@lru_cache(maxsize=None)
def _letter_action(strands_n: int, index: int, inverse: bool):
    """The single non-identity row of the image of sigma_index (or its
    inverse), as (row, entry at row-1 or None, diagonal entry, entry at
    row+1 or None), each entry a signed monomial given as (sign, e) for
    sign * t^e.

    The row of sigma_i is (t, -t, 1). Inverting a matrix that differs from
    the identity only in row r negates that row's off-diagonal entries and
    divides the row by its diagonal, here the unit -t: sigma_i^-1 has row
    (1, -t^-1, t^-1).
    """
    if inverse:
        left, center, right = (1, 0), (-1, -1), (1, -1)
    else:
        left, center, right = (1, 1), (-1, 1), (1, 0)
    r = index - 1
    return r, left if r > 0 else None, center, right if r < strands_n - 2 else None


def _word_product(actions, columns: list, times, add_times) -> list:
    """The columns of the matrix whose columns are ``columns``, right-
    multiplied in order by the row-sparse generator images given by
    ``actions`` (tuples shaped like ``_letter_action``'s).

    The product is kept column-wise, so right-multiplying by a letter is
    three column updates: col_{r-1} += left*col_r, col_{r+1} += right*col_r,
    col_r *= center. The ring supplies them for a letter entry, given as
    the ring's own pair (for Z[t, t^-1], (sign, e) for sign * t^e):
    ``times(col, *entry)`` returns entry * col and
    ``add_times(dest, col, *entry)`` returns dest + entry * col.
    Columns are replaced, never changed in place, so entries may be shared
    and the given list is left as it was: a product can continue from any
    returned checkpoint.
    """
    columns = list(columns)
    for r, left, center, right in actions:
        col_r = columns[r]
        if left is not None:
            columns[r - 1] = add_times(columns[r - 1], col_r, *left)
        if right is not None:
            columns[r + 1] = add_times(columns[r + 1], col_r, *right)
        columns[r] = times(col_r, *center)
    return columns


def _laurent_times(col: list, sign: int, e: int) -> list:
    """sign * t^e * col, entrywise; zero entries are kept."""
    return [(v if sign > 0 else -v).shift(e) if v else v for v in col]


def _laurent_add_times(dest: list, col: list, sign: int, e: int) -> list:
    """dest + sign * t^e * col, entrywise; a zero col entry keeps dest's."""
    op = operator.add if sign > 0 else operator.sub
    return [op(d, v.shift(e)) if v else d for d, v in zip(dest, col)]


def burau_of_word(word: BraidWord) -> BurauImage:
    """The Burau image of a word: the exact product of generator images in
    word order."""
    n = word.strands_n
    columns = _word_product(
        (_letter_action(n, index, sign < 0) for index, sign in word.letters),
        _scalar_rows(n - 1, LaurentPoly.one(), LaurentPoly.zero()),
        _laurent_times,
        _laurent_add_times,
    )
    return BurauImage(n, LaurentMatrix(zip(*columns)))


def _half_order(order: int) -> int:
    """H, the degree of the ring Z[x]/(x^H + 1) that a word at a root of
    order N is multiplied out in: N/2 for even N, N for odd N."""
    return order // 2 if order % 2 == 0 else order


@lru_cache(maxsize=None)
def _rotation_letters(strands_n: int, order: int, k: int) -> dict:
    """Every letter (index, +-1) of B_strands_n mapped to its
    ``_letter_action`` row at t = zeta_order^k, over Z[x]/(x^H + 1) with
    x -> zeta_2H (see the module docstring). t is x^(m*k), m = 2H/order,
    and -1 is x^H, so each entry s * t^e is one power x^p, 0 <= p < 2H,
    given as the negacyclic rotation of a flat column that multiplies it
    by x^p: (p >= H, (p mod H) * dim), dim = strands_n - 1, since
    x^p = -x^(p - H) when p >= H."""
    dim = strands_n - 1
    half = _half_order(order)
    step = 2 * half // order * k

    def at_point(entry):
        if entry is None:
            return None
        s, e = entry
        p = (step * e + (half if s < 0 else 0)) % (2 * half)
        return p >= half, p % half * dim

    table = {}
    for index in range(1, strands_n):
        for letter_sign in (1, -1):
            r, left, center, right = _letter_action(strands_n, index, letter_sign < 0)
            table[index, letter_sign] = r, at_point(left), at_point(center), at_point(right)
    return table


def _rotated(col: list, negate: bool, shift: int) -> list:
    """x^p * col for a flat column (see the module docstring), given as
    negate = p >= H and shift = (p mod H) * dim: the last shift ints wrap
    to the front, and the wrapped part changes sign, or with negate the
    rest does. The result is always a new list; columns are never changed
    in place."""
    cut = len(col) - shift
    if negate:
        return col[cut:] + list(map(operator.neg, col[:cut]))
    return list(map(operator.neg, col[cut:])) + col[:cut]


def _add_rotated(dest: list, col: list, negate: bool, shift: int) -> list:
    """dest + x^p * col for flat columns, with (negate, shift) as in
    ``_rotated``: one map over the wrapped part and one over the rest."""
    cut = len(col) - shift
    wrap, stay = (operator.add, operator.sub) if negate else (operator.sub, operator.add)
    return [*map(wrap, dest, col[cut:]), *map(stay, dest[shift:], col)]


def _root_length(letters: tuple) -> int:
    """The length p of the shortest u with letters = u^(len/p).

    Only divisors p of the length are tried, in increasing order, each by
    the period test letters[p:] == letters[:-p]. By Fine and Wilf, every
    period dividing the length is a multiple of the shortest such one, so
    the first hit is the primitive root. The empty word gives 0.
    """
    length = len(letters)
    small = [p for p in range(1, math.isqrt(length) + 1) if length % p == 0]
    for p in small + [length // p for p in reversed(small)]:
        if letters[p:] == letters[:-p]:
            return p
    return length


def _field_value(order: int, v: list) -> CyclotomicNumber:
    """The image in Q(zeta_order) of the element sum_e v[e] * x^e of
    Z[x]/(x^H + 1) under x -> zeta_2H. For even order, zeta_2H is
    zeta_order. For odd order it is -zeta_order^((order+1)/2), so the
    coefficient of x^e goes to zeta_order^(e*(order+1)/2) with sign (-1)^e:
    a signed permutation of the powers, as (order+1)/2 is a unit mod order.
    """
    if order % 2:
        half = (order + 1) // 2
        powers = [0] * order
        for e, a in enumerate(v):
            powers[e * half % order] = -a if e % 2 else a
        v = powers
    return CyclotomicNumber.from_powers(order, v)


def _scalar_value(columns: list, order: int) -> CyclotomicNumber | None:
    """c when the matrix over Z[x]/(x^H + 1) with these flat columns
    reduces to c * I in Q(zeta_order), else None; entry (i, j) is
    columns[j][i::dim].

    Entries of the ring can be nonzero vectors that vanish in the field
    (1 - x + x^2, H = 3, at order 3 or 6: x -> zeta_6 is a root of it), so
    each test is made in the field: an off-diagonal
    entry is reduced only when its vector is nonzero, stopping at the first
    that stays nonzero, and every diagonal entry must reduce to one c.
    """
    dim = len(columns)
    for j, col in enumerate(columns):
        for i in range(dim):
            v = col[i::dim]
            if i != j and any(v) and not _field_value(order, v).is_zero:
                return None
    c = _field_value(order, columns[0][::dim])
    for j in range(1, dim):
        if _field_value(order, columns[j][j::dim]) != c:
            return None
    return c


def specialized_burau(word: BraidWord, minus_q: CyclotomicNumber) -> CycloMatrix:
    """The word's Burau image specialized at t = minus_q, exactly.

    minus_q must be a power zeta_N^k (``root_exponent``): any other point
    raises NotARoot, and zero ZeroInput. Every letter entry is then a
    power x^p of x -> zeta_2H, H = N/2 for even N and N for odd N, so the
    product is taken in Z[x]/(x^H + 1). Each column is one flat list of
    dim * H integers, so multiplying it by a letter entry is one
    negacyclic rotation by (p mod H) * dim, and entry (i, j) is the
    strided slice columns[j][i::dim], reduced into Q(zeta_N)
    (``_field_value``) once, at the end. Only the entries that can
    differ from the identity's are read: a column that no letter replaced
    (the loop builds a new list for every column a letter touches) is
    emitted as e_j, built from one shared one and zero, and a zero entry
    skips the reduction.

    The word is written as u^k with u its shortest root and applied one
    copy of u at a time. When the product after j copies, j a proper
    divisor of k, reduces exactly to a scalar c * I, the image
    is c^(k/j) on the diagonal and a shared zero elsewhere, and the
    remaining copies are not applied: T_n^k, whose root is s1 ... s_{n-1},
    costs n(n-1) letters and one field power.

    Kernel membership for the specialization means exact equality of this
    matrix with the identity (not projective equality).
    """
    order = minus_q.order
    dim = word.strands_n - 1
    table = _rotation_letters(word.strands_n, order, root_exponent(minus_q))
    p = _root_length(word.letters)
    copies = len(word.letters) // p if p else 1
    letters = word.letters[:p]
    actions = [table[letter] for letter in letters]
    start = columns = [[0] * (dim * _half_order(order)) for _ in range(dim)]
    for j, col in enumerate(start):
        col[j] = 1
    zero = CyclotomicNumber.zero(order)
    for j in range(1, copies + 1):
        columns = _word_product(actions, columns, _rotated, _add_rotated)
        if j < copies and copies % j == 0:
            c = _scalar_value(columns, order)
            if c is not None:
                c = c ** (copies // j)
                return CycloMatrix(_scalar_rows(dim, c, zero))
    one = CyclotomicNumber.one(order)
    return CycloMatrix(zip(*(
        [zero] * j + [one] + [zero] * (dim - 1 - j) if col is start[j]
        else [_field_value(order, v) if any(v) else zero
              for v in (col[i::dim] for i in range(dim))]
        for j, col in enumerate(columns)
    )))


def crossed_v(image: BurauImage) -> tuple[LaurentPoly, ...]:
    """The crossed homomorphism v(A) = (I - A) (1-t, ..., 1-t^{n-1})^T / (1-t^n).

    The division is exact for every matrix in the Burau image; a
    NotDivisible error means the input matrix is not in the image (or an
    upstream bug). Satisfies v(AB) = v(A) + A v(B).
    """
    n = image.strands_n
    dim = n - 1
    one = LaurentPoly.one()
    u = [one - LaurentPoly.t(k) for k in range(1, n)]
    denom = one - LaurentPoly.t(n)
    a = image.matrix
    out = []
    for i in range(dim):
        total = LaurentPoly.zero()
        for j in range(dim):
            c = (one if i == j else LaurentPoly.zero()) - a.entry(i, j)
            if not c.is_zero:
                total = total + c * u[j]
        out.append(total.exact_div(denom))
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
    """True when a = c*b for some nonzero scalar c, by exact arithmetic."""
    if a.dim != b.dim:
        return False
    pairs = [(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)]
    first = next(((x, y) for x, y in pairs if not (x.is_zero and y.is_zero)), None)
    if first is None:
        return True  # both zero matrices
    x, y = first
    if x.is_zero or y.is_zero:
        return False
    # A zero-pattern mismatch fails the entrywise comparison too.
    scalar = x * y.inverse()
    return all(x == scalar * y for x, y in pairs)


def ev_map(image: BurauImage, minus_q: CyclotomicNumber, m: int) -> ProjectiveMatrix:
    """Evaluation into PGL_{m-2}: substitute t = minus_q in the image
    itself when m = n+1, and otherwise in its affine extension padded
    with an identity block up to dimension m-2.
    """
    n = image.strands_n
    if m < n + 1:
        raise ValueError(f"target puncture count m={m} must be at least n+1={n + 1}")
    if m == n + 1:
        matrix = image.matrix
    else:
        matrix = affine_extension(image).matrix.pad_identity(m - 2 - n)
    return ProjectiveMatrix(specialize_matrix(matrix, minus_q))
