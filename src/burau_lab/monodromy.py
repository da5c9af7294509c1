"""Monodromy generators of the cone-metric moduli space, the commutative
diagram audit against the Burau evaluation path, and the invariant
Hermitian (area) form with its exact signature certificate.

The generator matrices act on the difference coordinates of a developing
image (the interior generators take the displayed form
I (+) [[1,0,0],[-q,q,1],[0,0,1]] (+) I). The affine extension followed by
identity padding sends sigma_i in B_n to sigma_i in B_{m-1}, so a product
of monodromy generators along a word is the specialized Burau image of the
same word on m-1 strands, computed by the one word-product loop of
``burau``; the evaluation of the Burau generator images is the definition
this identity is tested against. The generators of a point are built once
and cached under (n, m, N, k), -q = zeta_N^k (``rho_generators``): every
later call at that point shares the one immutable result. The invariant
form is Squier's (Proc. AMS 90, 1984); its inertia is read off in closed
form and added up over a Schur complement (Haynsworth, Linear Algebra
Appl. 1, 1968).

Its invariance is proved without field products. G(t^-1)^T S G(t) = S is
an identity over Z[t, t^-1], checked once, exactly, for the three shapes
a letter's row takes (first, interior, last). G* H G - H depends only on
the letter's row of G and on that row and column of H, so at a root of
unity t = -q, where conj(t) = t^-1, it vanishes as soon as every
generator sigma_i is I outside row r = i-1 (numbering from 0) and, inside
it, the row that the word loop's rule gives the letter (i, +1): t, -t
and 1 in columns r-1, r and r+1. Each basis form H must also agree in that
row and column with +-1 or 0 times the specialized S. All of these are
comparisons of field elements, and none builds a dense matrix: a
generator's rows outside r are compared with the cached unit rows of
``cyclotomic._unit_rows``, the very tuples ``specialized_burau`` emits for
untouched rows, and row and column r of a form with the three nonzero
entries of +-S's band at r. The field's zero and one, its roots of unity
t, t^-1 and -t, Squier's entries and their negatives are one shared
instance each, and a generator's row holds the very same t, -t and 1, so
most equal entries are the same object and compare by identity.

The certificate's work is split by how often it can change. Per root
t = zeta_N^k, once the Laurent identity holds: Squier's entries, their
negatives, t^-1 and the letter's entries; the leading minors det S_s, one
sequence that every n and m extend as far as they need; and, per root and
leading size L, the Schur complement's one division. Per cached generator
set: the check of its rows, made before ``_generators_at`` caches it. Per
call: t is compared with the field's shared -1, k is read off t once and
conj(t) compared with t^-1 once, det S_L = 0 is compared with the
closed-form inertia, and row and column r of each basis form are compared
with the one band of +-S or 0 that h_rr selects. A generator set that is
not the cached object of its point has its rows checked on every call. No
call makes a field product once its root's values exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .burau import burau_generator, burau_of_word, ev_map, projectively_equal, specialized_burau
from .cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    _roots_of_unity,
    _unit_rows,
    root_exponent,
    specialize_poly,
)
from .laurent import LaurentMatrix, LaurentPoly
from .words import BraidWord, _valid_word, count_text


class InvalidDims(ValueError):
    """n or m is not an integer, or the pair does not satisfy 3 <= n <= m-1."""


class NoInvariantForm(RuntimeError):
    """No closed-form invariant form exists at the point t = -1, or an exact
    check failed, which signals a bug."""


@dataclass(frozen=True)
class MonodromyGenerators:
    """Monodromy images of the braid generators on m-2 coordinates."""

    strands_n: int
    m: int
    minus_q: CyclotomicNumber
    mats: tuple[CycloMatrix, ...]


@dataclass(frozen=True)
class HermitianForm:
    """An exact Hermitian matrix with its inertia certificate: the inertias
    (positive, negative, zero) of a leading pivot block of ``pivot_size``
    rows and of its Schur complement, which add up to the matrix's."""

    matrix: CycloMatrix
    pivot_size: int
    pivot_inertia: tuple[int, int, int]
    schur_inertia: tuple[int, int, int]

    def __post_init__(self):
        """Test h_ij = conj(h_ji) for every pair i <= j. A pair of two shared
        zeros passes as it stands, and each distinct entry object is
        conjugated once: a band form repeats a few objects along its rows."""
        rows, dim = self.matrix.rows, self.dim
        zero = CyclotomicNumber.zero(rows[0][0].order)
        conjugates = {}
        for i in range(dim):
            for j in range(i, dim):
                a, b = rows[i][j], rows[j][i]
                if a is zero and b is zero:
                    continue
                conj_b = conjugates.get(id(b))
                if conj_b is None:
                    conj_b = conjugates[id(b)] = b.conjugate()
                if a != conj_b:
                    raise ValueError("matrix is not Hermitian")

    @property
    def dim(self) -> int:
        return self.matrix.dim


def _check_dims(n: int, m: int) -> None:
    for name, count in (("n", n), ("m", m)):
        if not isinstance(count, int):
            raise InvalidDims(f"{name} is not an integer, got {type(count).__name__}")
    if not 3 <= n <= m - 1:
        raise InvalidDims(f"need 3 <= n <= m-1, got n={count_text(n)}, m={count_text(m)}")


def rho_generators(n: int, m: int, minus_q: CyclotomicNumber) -> MonodromyGenerators:
    """The n-1 monodromy generator matrices at the given evaluation point:
    the products along the one-letter words sigma_1 .. sigma_{n-1}
    (``rho_product``), each a word on m-1 strands.

    They are built once per point and cached under (n, m, N, k), for
    minus_q = zeta_N^k (``root_exponent``), after their rows are checked
    against the Burau letter's: every later call at that point returns the
    same object, whose matrices and values cannot be changed.
    The dims and the point are checked on every call, before the lookup,
    so a bad (n, m) raises InvalidDims, zero ZeroInput and any other point
    that is no zeta_N^k NotARoot. The key is (N, k), not minus_q: rationals
    of different fields compare and hash equal, and -1 in Q, which is no
    power of zeta_1, must not find the generators of -1 = zeta_2.
    """
    _check_dims(n, m)
    return _generators_at(n, m, minus_q.order, root_exponent(minus_q))


@lru_cache(maxsize=None)
def _generators_at(n: int, m: int, order: int, k: int) -> MonodromyGenerators:
    """``rho_generators`` at t = zeta_order^k, the field's shared instance.
    Every generator's rows are checked against the Burau letter's
    (``_check_letter_rows``) before the result is cached, so the invariance
    check need not compare this object's rows again."""
    minus_q = CyclotomicNumber.root_of_unity(order, k)
    mats = tuple(specialized_burau(_valid_word(m - 1, ((i, 1),)), minus_q) for i in range(1, n))
    _check_letter_rows(mats, order, m - 2, _values_at(order, k)[1])
    return MonodromyGenerators(n, m, minus_q, mats)


def rho_product(word: BraidWord, m: int, minus_q: CyclotomicNumber) -> CycloMatrix:
    """The product of monodromy generator matrices along a word: the Burau
    image of the same letters on m-1 strands, specialized at minus_q."""
    _check_dims(word.strands_n, m)
    return specialized_burau(_valid_word(m - 1, word.letters), minus_q)


def diagram_check(word: BraidWord, n: int, m: int, minus_q: CyclotomicNumber) -> bool:
    """True iff the evaluated Burau image of the word and the product of
    monodromy generators along it agree up to a nonzero scalar, in exact
    cyclotomic arithmetic."""
    _check_dims(n, m)
    if word.strands_n != n:
        raise ValueError("word strand count differs from n")
    via_burau = ev_map(burau_of_word(word), minus_q, m).matrix
    return projectively_equal(via_burau, rho_product(word, m, minus_q))


@dataclass(frozen=True)
class InvariantFormResult:
    """Exactly checked solutions of G* H G = H: a basis of the forms exhibited,
    the certified form H, and the unitarity residual, exactly 0."""

    basis: tuple[CycloMatrix, ...]
    chosen: HermitianForm
    unitarity_residual: int


def _squier_inertia(size: int, a: int, order: int) -> tuple[int, int, int]:
    """Inertia of S_size at t = zeta_order^k, a = min(k, order - k). S_size
    is tridiagonal Toeplitz, with eigenvalues 4|cos(pi k/order)|
    (cos(pi a/order) + cos(pi j/(size+1))), j = 1..size, so eigenvalue j
    has the sign of 1 - a/order - j/(size+1), or of (order - a)(size+1) - j*order."""
    sides = [(order - a) * (size + 1) - j * order for j in range(1, size + 1)]
    return sum(s > 0 for s in sides), sum(s < 0 for s in sides), sides.count(0)


# Squier's form, scaled by |1+t|^2 to be integral, as the tridiagonal
# (diagonal, above, below) entries over Z[t, t^-1] with conj(t) = t^-1.
_SQUIER = (
    2 + LaurentPoly.t(1) + LaurentPoly.t(-1),
    -(1 + LaurentPoly.t(-1)),
    -(1 + LaurentPoly.t(1)),
)


def _band(dim: int, r: int, entries: tuple, zero) -> tuple:
    """Row r of the dim x dim tridiagonal matrix with these (diagonal,
    above, below) entries: below in column r-1, the diagonal in column r
    and above in column r+1, where those exist, and zero elsewhere. Column
    r is row r of the transpose, whose entries are (diagonal, below, above)."""
    diag, above, below = entries
    row = [zero] * dim
    row[r] = diag
    if r:
        row[r - 1] = below
    if r + 1 < dim:
        row[r + 1] = above
    return tuple(row)


@lru_cache(maxsize=None)
def _laurent_certificate(entries: tuple[LaurentPoly, ...]) -> None:
    """Raise NoInvariantForm unless G(t^-1)^T S G(t) = S over Z[t, t^-1] for
    the Burau images G of sigma_1 .. sigma_4 in B_5, S the tridiagonal form
    with the given (diagonal, above, below) entries.

    sigma_1, sigma_2 and sigma_4 are the three shapes a letter's row takes
    in any dimension >= 2: first (no t in a left column), interior, and
    last (no 1 in a right column). By the formula in ``_check_invariant``,
    G* S G - S is local to the letter's row and column, so this identity
    for the shape is the identity for every letter of that shape, in any
    dimension. The entries are a parameter so that a form that is not
    invariant, such as Squier's transposed, can be shown to fail.
    """
    s = LaurentMatrix(_band(4, r, entries, LaurentPoly.zero()) for r in range(4))
    for i in range(1, 5):
        g = burau_generator(5, i).matrix
        g_star = LaurentMatrix(
            [[LaurentPoly({-e: c for e, c in g.entry(b, a)}) for b in range(4)] for a in range(4)]
        )
        if g_star * s * g != s:
            raise NoInvariantForm(f"G* S G != S over Z[t, t^-1] for generator {i} of B_5")


@lru_cache(maxsize=None)
def _values_at(order: int, k: int) -> tuple[CyclotomicNumber, tuple, tuple, tuple]:
    """At t = zeta_order^k: t^-1; the letter's (diagonal, above, below)
    entries (-t, 1, t); and Squier's (diagonal, above, below) and their
    negatives. Each is its Laurent polynomial specialized at t, so t^-1,
    -t, 1 and t are the field's shared roots of unity, the very instances
    a generator's row holds. Squier's entries are specialized only after
    ``_laurent_certificate`` has proved the form invariant over
    Z[t, t^-1], so every root's values rest on that identity."""
    _laurent_certificate(_SQUIER)
    t = CyclotomicNumber.root_of_unity(order, k)
    letter = tuple(
        specialize_poly(poly, t) for poly in (-LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.t())
    )
    entries = tuple(specialize_poly(poly, t) for poly in _SQUIER)
    return specialize_poly(LaurentPoly.t(-1), t), letter, entries, tuple(-x for x in entries)


@lru_cache(maxsize=None)
def _minors_at(order: int, k: int) -> dict[int, CyclotomicNumber]:
    """The leading minors D_s = det S_s at t = zeta_order^k found so far,
    keyed by s; it starts as D_0 = 1 and D_1 = the diagonal entry, and
    ``_leading_minors`` extends it."""
    return {0: CyclotomicNumber.one(order), 1: _values_at(order, k)[2][0]}


def _leading_minors(order: int, k: int, size: int) -> dict[int, CyclotomicNumber]:
    """D_0 .. D_size of S at t = zeta_order^k. S is tridiagonal, so
    D_s = delta D_{s-1} - |1+t|^2 D_{s-2} with delta the diagonal entry,
    and |1+t|^2 = delta: D_s = delta (D_{s-1} - D_{s-2}). There is one
    sequence per root, which every n and m read, extended in place as far
    as a call needs, so each D_s costs one product for the life of the
    process. A second fill of the same s writes the same value."""
    minors = _minors_at(order, k)
    delta = minors[1]
    for s in range(len(minors), size + 1):
        minors[s] = delta * (minors[s - 1] - minors[s - 2])
    return minors


@lru_cache(maxsize=None)
def _schur_entry(order: int, k: int, size: int) -> CyclotomicNumber:
    """alpha = delta D_{size-1} / D_size at t = zeta_order^k, D_size != 0:
    bordering c S_size, c = +-1, by S's next row and column with corner x
    leaves the Schur complement x - c alpha. It is the certificate's one
    division, made once per root and size."""
    minors = _leading_minors(order, k, size)
    return minors[1] * minors[size - 1] / minors[size]


def _squier_at(t: CyclotomicNumber) -> tuple[int, tuple, tuple, tuple]:
    """(k, letter, entries, negated) at t = zeta_N^k: k, the Burau letter's
    (diagonal, above, below), and Squier's and their negatives, one
    instance of each per root (``_values_at``), which the form and its
    invariance check share. Squier's are ``_SQUIER`` specialized at t, with
    conj(t) read as t^-1, so conj(t) is checked against t^-1 = zeta_N^-k
    first, on every call."""
    k = root_exponent(t)
    t_inverse, letter, entries, negated = _values_at(t.order, k)
    if t.conjugate() != t_inverse:
        raise NoInvariantForm(f"G* H G != H: conj(t) is not t^-1 at t = {t}")
    return k, letter, entries, negated


def _check_letter_rows(mats: tuple[CycloMatrix, ...], order: int, dim: int, letter: tuple) -> None:
    """Raise NoInvariantForm unless generator r+1 is I outside row r and,
    inside it, the row of the letter (r+1, +1) by the word loop's rule
    (``burau._word_product``): t in column r-1, -t in column r and 1 in
    column r+1, where those columns exist. The other rows are compared with
    the cached unit rows that ``specialized_burau`` emits for untouched
    rows, and row r with the letter's shared entries, so that equal entries
    compare by identity."""
    zero = CyclotomicNumber.zero(order)
    identity = _unit_rows(order, dim)
    for r, g in enumerate(mats):
        letter_row = _band(dim, r, letter, zero)
        for a, row in enumerate(g.rows):
            if row != (letter_row if a == r else identity[a]):
                raise NoInvariantForm(
                    f"G* H G != H: row {a} is not the Burau letter's for generator {r + 1}"
                )


def _check_invariant(
    basis: tuple[CycloMatrix, ...], generators: MonodromyGenerators, point: tuple | None = None
) -> None:
    """Raise NoInvariantForm unless every basis form H is proved to satisfy
    G* H G = H for every generator G, by comparisons only. ``point`` is
    ``_squier_at(t)`` when the caller has made it; else it is made here.

    Generator i is I outside row r = i-1. With u = row_r(G) - e_r,
    G* H G - H = (H e_r + h_rr conj(u)) u + conj(u) (e_r^T H), which is
    linear in row and column r of H and needs nothing else of it. So it is
    0 when those are c times row and column r of Squier's form S at t,
    c = +-1 or 0, and G is the specialization at t of a Burau letter: then
    it is c times the specialization of G(t^-1)^T S G(t) - S, which
    ``_laurent_certificate`` proves to be 0 over Z[t, t^-1], provided
    conj(t) = t^-1, so that conjugation commutes with specialization.
    Those three facts are what is checked here: conj(t) against t^-1
    (``_squier_at``); every generator's rows (``_check_letter_rows``),
    which ``_generators_at`` checked before caching its result, so they
    are compared here unless ``generators`` is that very object; and row
    and column r of every basis form against c times S's. S's diagonal
    entry |1+t|^2 is not 0 at t != -1, so h_rr fixes c, and only the band
    of c S built for that r (``_band``) is compared.
    """
    t, n, m = generators.minus_q, generators.strands_n, generators.m
    k, letter, entries, negated = point or _squier_at(t)
    order, dim = t.order, m - 2
    # The lookup builds the point's generators when none are cached.
    _check_dims(n, m)
    if generators is not _generators_at(n, m, order, k):
        _check_letter_rows(generators.mats, order, dim, letter)

    zero = CyclotomicNumber.zero(order)
    zeros = (zero, zero, zero)
    for j, h in enumerate(basis):
        rows = h.rows
        columns = tuple(zip(*rows))
        for r in range(len(generators.mats)):
            h_rr = rows[r][r]
            diag, above, below = (
                entries if h_rr == entries[0] else negated if h_rr == negated[0] else zeros
            )
            if rows[r] != _band(dim, r, (diag, above, below), zero) or (
                columns[r] != _band(dim, r, (diag, below, above), zero)
            ):
                raise NoInvariantForm(
                    f"G* H G != H: basis form {j} is not +-1 or 0 times S in row and "
                    f"column {r} for generator {r + 1}"
                )


def invariant_hermitian_form(generators: MonodromyGenerators) -> InvariantFormResult:
    """Squier's form S at t = -q, completed on the trailing block and
    certified invariant (``_check_invariant``), with its signature
    certificate.

    S is tridiagonal, with 2 + t + conj(t) on the diagonal, -(1 + conj(t))
    above it and -(1 + t) below it (|1+t|^2 times Squier's, so integral):
    the entries ``_check_invariant`` compares against (``_squier_at``).
    With L = n-1 and k = m-1-n, H is c * S, c = +-1, outside the trailing
    k x k block, which no generator changes. The pivot is c * S_L, or
    c * S_{L-1} when k > 0 and det S_L = 0, with no more positive than
    negative eigenvalues. The trailing block makes the Schur complement
    diag(+1, -1, ..., -1) when the pivot has no positive eigenvalue, else
    -I_k, using c |1+t|^2 det S_{L-1} / det S_L; past a singular S_L,
    diag(0, -1, ..., -1) leaves a 2 x 2 block of inertia (1, 1, 0) (+) -I_{k-1}.
    The basis is H and the k^2 matrix units on the trailing block.

    What is built where: per root, S's entries, t^-1 and the letter's
    entries (``_values_at``), the leading minors det S_s, extended as far
    as some call has needed (``_leading_minors``), and per root and L the
    one division (``_schur_entry``); per cached generator set, the check
    of its rows (``_generators_at``). Per call: t = -1 is tested against
    the field's shared -1, k is read off once and conj(t) compared with
    t^-1 once (``_squier_at``), det S_L = 0 is compared with the closed-form
    inertia, and the form is built from the shared entries and checked
    row by row against one band each, with no field product.
    """
    n, m, t = generators.strands_n, generators.m, generators.minus_q
    order = t.order
    # The middle entry of the root table is -1 in every field, Q included.
    roots = _roots_of_unity(order)
    minus_one = roots[len(roots) // 2]
    if t == minus_one:
        raise NoInvariantForm(f"no closed-form invariant form at t = {t}")
    point = _squier_at(t)
    e, _, (diag, above, below), negated = point
    a = min(e, order - e)
    dim, lead, k = m - 2, n - 1, m - 1 - n
    zero, one = CyclotomicNumber.zero(order), CyclotomicNumber.one(order)
    singular = _leading_minors(order, e, lead)[lead].is_zero
    inertia = _squier_inertia(lead, a, order)
    if singular != (inertia[2] > 0):
        raise NoInvariantForm("the closed-form inertia of S_L disagrees with det S_L")

    pivot = lead - 1 if singular and k else lead
    pos, neg, zeros = inertia if pivot == lead else _squier_inertia(pivot, a, order)
    flip = pos > neg
    if flip:
        pos, neg = neg, pos
        diag, above, below = negated
    if not k:
        first, schur = None, (0, 0, 0)
    elif singular:
        first, schur = zero, (1, k, 0)
    else:
        alpha = _schur_entry(order, e, lead)
        if flip:
            alpha = -alpha
        first, schur = (one + alpha, (1, k - 1, 0)) if pos == 0 else (alpha + minus_one, (0, k, 0))
    grid = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        grid[i][i] = diag if i < lead else first if i == lead else minus_one
        if i < min(lead, dim - 1):
            grid[i][i + 1], grid[i + 1][i] = above, below
    form = HermitianForm(CycloMatrix(grid), pivot, (pos, neg, zeros), schur)

    # The matrix unit at (i, j): row i is the unit row e_j, every other row zero.
    units, zero_row = _unit_rows(order, dim), (zero,) * dim
    basis = (form.matrix,) + tuple(
        CycloMatrix(units[j] if a == i else zero_row for a in range(dim))
        for i in range(lead, dim)
        for j in range(lead, dim)
    )
    _check_invariant(basis, generators, point)
    return InvariantFormResult(basis, form, 0)


def signature(form: HermitianForm) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the form: the sum of
    its pivot's inertia and its Schur complement's (Haynsworth)."""
    return tuple(a + b for a, b in zip(form.pivot_inertia, form.schur_inertia))
