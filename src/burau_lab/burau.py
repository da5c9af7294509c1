"""The reduced Burau representation and its root-of-unity specializations.

Convention: braid words act by right multiplication on row vectors, so a
word maps to the product of its generator images in word order, and the
generator matrices take the standard displayed form

    beta_n(sigma_i) = I_{i-2} (+) [[1, 0, 0], [t, -t, 1], [0, 0, 1]] (+) I_{n-i-2}

with the left or right neighbor column absent for i = 1 or i = n-1 (for
n = 2 the image is the 1x1 matrix (-t)). Every generator image, and every
inverse, differs from the identity in a single row with a closed form, so
applying a letter is three column updates instead of a full matrix
product.

The exact Laurent image is built that way over Z[t, t^-1]. A
specialization at t = -q, with -q = +-zeta_N^k a root of unity, runs the
same column updates in the group ring Z[x]/(x^N - 1): every letter entry
is then a signed power of x, so multiplying by it is a signed rotation of
a length-N integer vector, with no reduction, gcd or fraction. Each entry
is reduced into Q(zeta_N) (mod Phi_N) once, at the end. A point that is
not a root of unity falls back to specializing the Laurent image.

Also here: the crossed homomorphism v and the affine extension it defines
(dimension n-1 -> n, a group homomorphism coinciding with the inclusion
beta_n -> beta_{n+1} on generator images), and the evaluation map into a
projective class used to compare against the cone-metric monodromy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    ZeroInput,
    signed_root,
    specialize_matrix,
    specialize_poly,
)
from .laurent import LaurentMatrix, LaurentPoly
from .words import BraidWord, IndexOutOfRange, InvalidStrandCount


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


@dataclass(frozen=True)
class AffineExtended:
    """The affine extension of a Burau image: one dimension larger, last
    row (0, ..., 0, 1)."""

    strands_n: int
    matrix: LaurentMatrix

    def __post_init__(self):
        if self.matrix.dim != self.strands_n:
            raise ValueError(f"expected a {self.strands_n}x{self.strands_n} matrix")

    def __mul__(self, other: AffineExtended) -> AffineExtended:
        if not isinstance(other, AffineExtended):
            return NotImplemented
        if self.strands_n != other.strands_n:
            raise ValueError("strand counts differ")
        return AffineExtended(self.strands_n, self.matrix * other.matrix)


@lru_cache(maxsize=None)
def burau_generator(strands_n: int, index: int, inverse: bool = False) -> BurauImage:
    """The image of sigma_index (or its inverse) in B_strands_n: the identity
    with row index-1 replaced by the closed-form row of ``_letter_action``."""
    r, left, center, right = _letter_action(strands_n, index, inverse)
    rows = [list(row) for row in LaurentMatrix.identity(strands_n - 1).rows]
    if left is not None:
        rows[r][r - 1] = left
    rows[r][r] = center
    if right is not None:
        rows[r][r + 1] = right
    return BurauImage(strands_n, LaurentMatrix(rows))


@lru_cache(maxsize=None)
def _letter_action(strands_n: int, index: int, inverse: bool):
    """The single non-identity row of the image of sigma_index (or its
    inverse), as (row, entry at row-1 or None, diagonal entry, entry at
    row+1 or None).

    The row of sigma_i is (t, -t, 1). Inverting a matrix that differs from
    the identity only in row r negates that row's off-diagonal entries and
    divides the row by its diagonal, here the unit -t: sigma_i^-1 has row
    (1, -t^-1, t^-1).
    """
    if strands_n < 2:
        raise InvalidStrandCount(strands_n)
    if not 1 <= index <= strands_n - 1:
        raise IndexOutOfRange(
            f"generator index {index} outside 1..{strands_n - 1}"
        )
    t = LaurentPoly.t
    if inverse:
        left, center, right = LaurentPoly.one(), -t(-1), t(-1)
    else:
        left, center, right = t(), -t(), LaurentPoly.one()
    r = index - 1
    return r, left if r > 0 else None, center, right if r < strands_n - 2 else None


def _word_product(letters, dim: int, one, zero) -> list[tuple]:
    """The rows of the product, in order, of the row-sparse generator images
    given by ``letters`` (tuples shaped like ``_letter_action``'s), over any
    ring with + and *.

    The product is kept column-wise, so right-multiplying by a letter is
    three column updates: col_{r-1} += left*col_r, col_{r+1} += right*col_r,
    col_r *= center.
    """
    columns = [[one if i == j else zero for i in range(dim)] for j in range(dim)]
    for r, left, center, right in letters:
        col_r = columns[r]
        if left is not None:
            dest = columns[r - 1]
            for k, v in enumerate(col_r):
                dest[k] = dest[k] + left * v
        if right is not None:
            dest = columns[r + 1]
            for k, v in enumerate(col_r):
                dest[k] = dest[k] + right * v
        columns[r] = [center * v for v in col_r]
    return list(zip(*columns))


def burau_of_word(word: BraidWord) -> BurauImage:
    """The Burau image of a word: the exact product of generator images in
    word order."""
    n = word.strands_n
    rows = _word_product(
        (_letter_action(n, index, sign < 0) for index, sign in word.letters),
        n - 1,
        LaurentPoly.one(),
        LaurentPoly.zero(),
    )
    return BurauImage(n, LaurentMatrix(rows))


@lru_cache(maxsize=None)
def _rotation_letters(strands_n: int, order: int, sign: int, k: int) -> dict:
    """Every letter (index, +-1) of B_strands_n mapped to its
    ``_letter_action`` row at t = sign * zeta_order^k, each entry given as
    the (sign, shift) with entry = sign * zeta_order^shift."""
    point = CyclotomicNumber.root_of_unity(order, k) * sign

    def at_point(p):
        return None if p is None else signed_root(specialize_poly(p, point))

    table = {}
    for index in range(1, strands_n):
        for letter_sign in (1, -1):
            r, left, center, right = _letter_action(strands_n, index, letter_sign < 0)
            table[index, letter_sign] = r, at_point(left), at_point(center), at_point(right)
    return table


def _add_rotated(dest: list, col: list, sign: int, shift: int) -> list:
    """dest + sign * x^shift * col, entrywise in Z[x]/(x^N - 1); where the
    col entry is zero the dest entry is kept, not copied."""
    op = operator.add if sign > 0 else operator.sub
    return [
        list(map(op, d, v[-shift:] + v[:-shift])) if any(v) else d
        for d, v in zip(dest, col)
    ]


def _rotation_product(actions, dim: int, order: int) -> list[list[list[int]]]:
    """``_word_product`` over Z[x]/(x^order - 1), for letters whose entries
    are signed powers of x (the ``_rotation_letters`` rows): each entry is a
    length-order integer vector, and multiplying by sign * x^shift is a
    rotation by shift, negated when sign is -1. Returns the columns.

    Entries are replaced, never changed in place, so they may be shared.
    """
    unit = [1] + [0] * (order - 1)
    zero = [0] * order
    columns = [[unit if i == j else zero for i in range(dim)] for j in range(dim)]
    for r, left, (sign, shift), right in actions:
        col_r = columns[r]
        if left is not None:
            columns[r - 1] = _add_rotated(columns[r - 1], col_r, *left)
        if right is not None:
            columns[r + 1] = _add_rotated(columns[r + 1], col_r, *right)
        if sign > 0:
            columns[r] = [v[-shift:] + v[:-shift] for v in col_r]
        else:
            columns[r] = [[-a for a in v[-shift:] + v[:-shift]] for v in col_r]
    return columns


def specialized_burau(word: BraidWord, minus_q: CyclotomicNumber) -> CycloMatrix:
    """The word's Burau image specialized at t = minus_q, exactly.

    At a root of unity minus_q = sign * zeta_N^k, every letter entry is a
    signed power of zeta_N, so the product is taken in the group ring
    Z[x]/(x^N - 1), where multiplying by an entry is a signed rotation of
    an integer vector, and each entry is reduced into Q(zeta_N) once, at
    the end. At any other point this is the reference path: the Laurent
    image specialized entrywise.

    Kernel membership for the specialization means exact equality of this
    matrix with the identity (not projective equality).
    """
    if minus_q.is_zero:
        raise ZeroInput("cannot specialize at zero")
    root = signed_root(minus_q)
    if root is None:
        return specialize_matrix(burau_of_word(word).matrix, minus_q)
    order = minus_q.order
    table = _rotation_letters(word.strands_n, order, *root)
    columns = _rotation_product(
        map(table.__getitem__, word.letters), word.strands_n - 1, order
    )
    return CycloMatrix(
        [CyclotomicNumber.from_powers(order, v) for v in row] for row in zip(*columns)
    )


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


def affine_extension(image: BurauImage) -> AffineExtended:
    """Border a Burau image with v(A) and a (0, ..., 0, 1) last row.

    A group homomorphism; on generator images it reproduces the same
    generator's image one strand count higher.
    """
    v = crossed_v(image)
    dim = image.strands_n - 1
    zero = LaurentPoly.zero()
    rows = [list(image.matrix.rows[i]) + [v[i]] for i in range(dim)]
    rows.append([zero] * dim + [LaurentPoly.one()])
    return AffineExtended(image.strands_n, LaurentMatrix(rows))


@dataclass(frozen=True)
class ProjectiveMatrix:
    """A matrix considered up to a nonzero scalar (a PGL representative).

    Equality is projective; use ``.matrix`` for the chosen representative.
    """

    matrix: CycloMatrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectiveMatrix):
            return NotImplemented
        return projectively_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self.matrix.dim)

    @property
    def is_identity(self) -> bool:
        """Projective triviality: the representative is a nonzero scalar
        multiple of the identity."""
        return projectively_equal(
            self.matrix, CycloMatrix.identity(self.matrix.dim)
        )


def projectively_equal(a: CycloMatrix, b: CycloMatrix) -> bool:
    """True when a = c*b for some nonzero scalar c, by exact arithmetic."""
    if a.dim != b.dim:
        return False
    scalar: CyclotomicNumber | None = None
    for i in range(a.dim):
        for j in range(a.dim):
            x, y = a.entry(i, j), b.entry(i, j)
            if x.is_zero != y.is_zero:
                return False
            if not x.is_zero and scalar is None:
                scalar = x * y.inverse()
    if scalar is None:
        return True  # both zero matrices
    for i in range(a.dim):
        for j in range(a.dim):
            if a.entry(i, j) != scalar * b.entry(i, j):
                return False
    return True


def ev_map(image: BurauImage, minus_q: CyclotomicNumber, m: int) -> ProjectiveMatrix:
    """Evaluation into PGL_{m-2}: extend affinely, pad with an identity
    block up to dimension m-2 (or, when m = n+1, delete the last row and
    column, undoing the extension), then substitute t = minus_q.
    """
    n = image.strands_n
    if m < n + 1:
        raise ValueError(f"target puncture count m={m} must be at least n+1={n + 1}")
    if minus_q.is_zero:
        raise ZeroInput("cannot evaluate at zero")
    extended = affine_extension(image).matrix
    if m == n + 1:
        padded = extended.drop_last_row_col()
    else:
        padded = extended.pad_identity(m - 2 - n)
    return ProjectiveMatrix(specialize_matrix(padded, minus_q))
