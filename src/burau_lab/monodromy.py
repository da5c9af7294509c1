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

The certificate's work is split by how often it can change. Per process:
the Laurent identity for ``_SQUIER``'s entries. Per root t = zeta_N^k,
once that identity holds: Squier's entries, their
negatives, t^-1 and the letter's entries, with the proof that the form's
band is Hermitian (conj(t) = t^-1, conj(delta) = delta and conj(above) =
below, for S and -S); the leading minors det S_s, memoized per size; and,
per root and leading size L, the Schur complement's one division, the
proof that its alpha is real, and the four corners +-1 +- alpha that the
trailing block can take. Per generator set: the check of its dims, its
point, its count and its rows, made once, when ``MonodromyGenerators``
builds it, whether ``rho_generators`` caches the set or a caller builds it
by hand; so the invariance check reads no generator rows. Per point
(n, m, N, k), -q = zeta_N^k, the key the generators are cached under, once
(``_form_at``): the root's proved values are looked up, handed both to the
form and to its invariance check (``_values_at``), det S_L = 0 is
compared with the closed-form inertia, the inertias are checked to add
up, and row and column r of each basis form are compared with the one
band of +-S or 0 that h_rr selects.
The form's entries are the proved shared ones, so it is built without
``HermitianForm``'s conjugation pass (``_band_form``); a form built through
the public constructor still gets that pass, every entry on and above
the diagonal compared with the conjugate of its mirror. The set's rows are
fixed by its (n, m, t), so every set at a point, cached or built by hand,
gets the one result, and a point that fails a check raises on every call.
Per call: t is compared with the field's shared -1 and k is read off t,
which finds the point's result; a call at a point already certified makes
no field arithmetic and builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .burau import burau_of_word, ev_map, projectively_equal, specialized_burau
from .cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    _roots_of_unity,
    _unit_rows,
    root_exponent,
    specialize_poly,
)
from .laurent import LaurentMatrix, LaurentPoly
from .words import BraidWord, _check_integers, _valid_word, count_text


class InvalidDims(ValueError):
    """n or m is not an integer, or the pair does not satisfy 3 <= n <= m-1."""


class NoInvariantForm(RuntimeError):
    """No closed-form invariant form exists at the point t = -1, or an exact
    check failed, which signals a bug."""


@dataclass(frozen=True)
class MonodromyGenerators:
    """Monodromy images of the braid generators on m-2 coordinates, checked
    when built: 3 <= n <= m-1 (InvalidDims), minus_q = zeta_N^k
    (``root_exponent``), exactly n-1 matrices of size m-2 (InvalidDims), and
    each matrix's rows (NoInvariantForm). Generator r+1 must be I outside
    row r and, inside it, the row of the letter (r+1, +1) by the word loop's
    rule (``burau._word_product``): t in column r-1, -t in column r and 1 in
    column r+1, where those columns exist. The other rows are compared with
    the cached unit rows that ``specialized_burau`` emits for untouched
    rows, and row r with the letter's shared entries, so that equal entries
    compare by identity. This is the one check of a generator set: the
    invariance check relies on it and reads no generator rows."""

    strands_n: int
    m: int
    minus_q: CyclotomicNumber
    mats: tuple[CycloMatrix, ...]

    def __post_init__(self):
        n, m, t, mats = self.strands_n, self.m, self.minus_q, self.mats
        _check_dims(n, m)
        dim, letter = m - 2, _values_at(t.order, root_exponent(t))[0]
        if len(mats) != n - 1 or any(g.dim != dim for g in mats):
            raise InvalidDims(f"need n-1 = {n - 1} matrices of size m-2 = {dim}")
        zero, identity = CyclotomicNumber.zero(t.order), _unit_rows(t.order, dim)
        for r, g in enumerate(mats):
            letter_row = _band(dim, r, letter, zero)
            for a, row in enumerate(g.rows):
                if row != (letter_row if a == r else identity[a]):
                    raise NoInvariantForm(
                        f"G* H G != H: row {a} is not the Burau letter's for generator {r + 1}"
                    )


@dataclass(frozen=True)
class HermitianForm:
    """An exact Hermitian matrix with its inertia certificate: the inertias
    (positive, negative, zero) of a leading pivot block of ``pivot_size``
    rows and of its Schur complement, which add up to the matrix's. Built
    through this constructor, the matrix is checked to be Hermitian pair by
    pair; the certificate builds its band form once per point through
    ``_band_form``, whose entries are proved Hermitian once per root."""

    matrix: CycloMatrix
    pivot_size: int
    pivot_inertia: tuple[int, int, int]
    schur_inertia: tuple[int, int, int]

    def __post_init__(self):
        """Test the inertias (``_check_inertias``), then h_ij = conj(h_ji)
        for every pair i <= j. Either failure raises ValueError."""
        self._check_inertias()
        rows, dim = self.matrix.rows, self.dim
        if any(rows[i][j] != rows[j][i].conjugate() for i in range(dim) for j in range(i, dim)):
            raise ValueError("matrix is not Hermitian")

    def _check_inertias(self) -> None:
        """Raise ValueError unless the inertias fit: 0 <= pivot_size <= dim,
        three counts >= 0 each, adding up to pivot_size and to
        dim - pivot_size."""
        dim, size = self.dim, self.pivot_size
        pivot, schur = self.pivot_inertia, self.schur_inertia
        sums = (len(pivot), len(schur), sum(pivot), sum(schur))
        if min(size, dim - size, *pivot, *schur) < 0 or sums != (3, 3, size, dim - size):
            raise ValueError(f"inertias {pivot}, {schur} do not add up to {size}, {dim - size}")

    @property
    def dim(self) -> int:
        return self.matrix.dim


def _band_form(
    matrix: CycloMatrix, pivot_size: int, pivot_inertia: tuple, schur_inertia: tuple
) -> HermitianForm:
    """The form holding these values, with ``HermitianForm``'s inertia check
    but not its conjugation pass: only for the band form that
    ``_form_at`` builds, every entry of which is proved
    Hermitian once per root (``_values_at``: conj(delta) = delta and
    conj(above) = below, for S and -S) or per root and size
    (``_schur_entry``: conj(alpha) = alpha), or is a shared zero or -1."""
    form = object.__new__(HermitianForm)
    object.__setattr__(form, "matrix", matrix)
    object.__setattr__(form, "pivot_size", pivot_size)
    object.__setattr__(form, "pivot_inertia", pivot_inertia)
    object.__setattr__(form, "schur_inertia", schur_inertia)
    form._check_inertias()
    return form


def _check_dims(n: int, m: int) -> None:
    _check_integers(InvalidDims, ("n", n), ("m", m))
    if not 3 <= n <= m - 1:
        raise InvalidDims(f"need 3 <= n <= m-1, got n={count_text(n)}, m={count_text(m)}")


def rho_generators(n: int, m: int, minus_q: CyclotomicNumber) -> MonodromyGenerators:
    """The n-1 monodromy generator matrices at the given evaluation point:
    the products along the one-letter words sigma_1 .. sigma_{n-1}
    (``rho_product``), each a word on m-1 strands.

    They are built once per point and cached under (n, m, N, k), for
    minus_q = zeta_N^k (``root_exponent``); ``MonodromyGenerators`` checks
    their rows against the Burau letter's as it builds the set. Every later
    call at that point returns the same object, whose matrices and values
    cannot be changed.
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
    """``rho_generators`` at t = zeta_order^k, the field's shared instance:
    the images of the one-letter words, which ``MonodromyGenerators`` checks
    as it is built, before the result is cached."""
    minus_q = CyclotomicNumber.root_of_unity(order, k)
    mats = tuple(specialized_burau(_valid_word(m - 1, ((i, 1),)), minus_q) for i in range(1, n))
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
def _laurent_certificate() -> None:
    """Raise NoInvariantForm unless G(t^-1)^T S G(t) = S over Z[t, t^-1] for
    the Burau images G of sigma_1 .. sigma_4 in B_5, S the tridiagonal form
    with ``_SQUIER``'s (diagonal, above, below) entries. It is proved once
    per process.

    sigma_1, sigma_2 and sigma_4 are the three shapes a letter's row takes
    in any dimension >= 2: first (no t in a left column), interior, and
    last (no 1 in a right column). By the formula in ``_check_invariant``,
    G* S G - S is local to the letter's row and column, so this identity
    for the shape is the identity for every letter of that shape, in any
    dimension.
    """
    s = LaurentMatrix(_band(4, r, _SQUIER, LaurentPoly.zero()) for r in range(4))
    for i in range(1, 5):
        g = burau_of_word(_valid_word(5, ((i, 1),))).matrix
        g_star = LaurentMatrix(
            [[LaurentPoly({-e: c for e, c in g.entry(b, a)}) for b in range(4)] for a in range(4)]
        )
        if g_star * s * g != s:
            raise NoInvariantForm(f"G* S G != S over Z[t, t^-1] for generator {i} of B_5")


@lru_cache(maxsize=None)
def _values_at(order: int, k: int) -> tuple[tuple, tuple, tuple]:
    """At t = zeta_order^k: the letter's (diagonal, above, below) entries
    (-t, 1, t), and Squier's (diagonal, above, below) and their negatives.
    Each is its Laurent polynomial specialized at t, so -t, 1 and t are the
    field's shared roots of unity, the very instances a generator's row
    holds. Squier's entries are specialized only after
    ``_laurent_certificate`` has proved the form invariant over
    Z[t, t^-1], so every root's values rest on that identity.

    This is also where the band form's entries are proved Hermitian, once
    per root: conj(t) = t^-1, and then conj(delta) = delta and conj(above)
    = below, for S and for -S. Any failure raises NoInvariantForm."""
    _laurent_certificate()
    t = CyclotomicNumber.root_of_unity(order, k)
    t_inverse = specialize_poly(LaurentPoly.t(-1), t)
    if t.conjugate() != t_inverse:
        raise NoInvariantForm(f"G* H G != H: conj(t) is not t^-1 at t = {t}")
    letter = tuple(
        specialize_poly(poly, t) for poly in (-LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.t())
    )
    entries = tuple(specialize_poly(poly, t) for poly in _SQUIER)
    negated = tuple(-x for x in entries)
    for diag, above, below in (entries, negated):
        if diag.conjugate() != diag or above.conjugate() != below:
            raise NoInvariantForm(f"Squier's form is not Hermitian at t = {t}")
    return letter, entries, negated


@lru_cache(maxsize=None)
def _minor(order: int, k: int, s: int) -> CyclotomicNumber:
    """The leading minor D_s = det S_s at t = zeta_order^k: D_0 = 1, D_1 =
    delta, the diagonal entry, and, S being tridiagonal with |1+t|^2 =
    delta, D_s = delta D_{s-1} - |1+t|^2 D_{s-2} = delta (D_{s-1} - D_{s-2}).
    Each D_s is one product for the life of the process, shared by every n
    and m. The first call at s reads D_0 .. D_{s-1} bottom up, so the
    recursion is never more than two calls deep, however large s is."""
    if s < 2:
        return CyclotomicNumber.one(order) if s == 0 else _values_at(order, k)[1][0]
    minors = [_minor(order, k, i) for i in range(s)]
    return minors[1] * (minors[s - 1] - minors[s - 2])


@lru_cache(maxsize=None)
def _schur_entry(order: int, k: int, size: int) -> tuple[CyclotomicNumber, ...]:
    """The corners 1 + alpha, alpha - 1, 1 - alpha and -alpha - 1 at
    t = zeta_order^k, for alpha = delta D_{size-1} / D_size, D_size != 0:
    bordering c S_size, c = +-1, by S's next row and column with corner x
    leaves the Schur complement x - c alpha. alpha is the certificate's one
    division, made once per root and size, and proved real there
    (NoInvariantForm otherwise), so that every corner is."""
    alpha = _minor(order, k, 1) * _minor(order, k, size - 1) / _minor(order, k, size)
    if alpha.conjugate() != alpha:
        raise NoInvariantForm(f"the Schur entry of size {size} is not real at t = zeta_{order}^{k}")
    one = CyclotomicNumber.one(order)
    return one + alpha, alpha - one, one - alpha, -alpha - one


def _check_invariant(
    basis: tuple[CycloMatrix, ...], generators: MonodromyGenerators, entries: tuple, negated: tuple
) -> None:
    """Raise NoInvariantForm unless every basis form H is proved to satisfy
    G* H G = H for every generator G, by comparisons only. ``entries`` and
    ``negated`` are Squier's (diagonal, above, below) at the generators'
    root t and their negatives, as ``_values_at`` gives them.

    Generator i is I outside row r = i-1. With u = row_r(G) - e_r,
    G* H G - H = (H e_r + h_rr conj(u)) u + conj(u) (e_r^T H), which is
    linear in row and column r of H and needs nothing else of it. So it is
    0 when those are c times row and column r of Squier's form S at t,
    c = +-1 or 0, and G is the specialization at t of a Burau letter: then
    it is c times the specialization of G(t^-1)^T S G(t) - S, which
    ``_laurent_certificate`` proves to be 0 over Z[t, t^-1], provided
    conj(t) = t^-1, so that conjugation commutes with specialization.
    Of those three facts, the generators' rows were checked when the set
    was built (``MonodromyGenerators``), so none is read here, and
    conj(t) = t^-1 was proved once per root (``_values_at``), with the
    entries passed in. What is checked here is row and column r of
    every basis form against c times S's. S's diagonal entry
    |1+t|^2 is not 0 at t != -1, so h_rr fixes c, and only the band of c S
    built for that r (``_band``) is compared.
    """
    t, dim = generators.minus_q, generators.m - 2
    zero = CyclotomicNumber.zero(t.order)
    zeros = (zero, zero, zero)
    for j, h in enumerate(basis):
        rows = h.rows
        columns = tuple(zip(*rows))
        for r in range(generators.strands_n - 1):
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
    the entries ``_check_invariant`` compares against (``_values_at``).
    With L = n-1 and k = m-1-n, H is c * S, c = +-1, outside the trailing
    k x k block, which no generator changes. The pivot is c * S_L, or
    c * S_{L-1} when k > 0 and det S_L = 0, with no more positive than
    negative eigenvalues. The trailing block makes the Schur complement
    diag(+1, -1, ..., -1) when the pivot has no positive eigenvalue, else
    -I_k, using c |1+t|^2 det S_{L-1} / det S_L; past a singular S_L,
    diag(0, -1, ..., -1) leaves a 2 x 2 block of inertia (1, 1, 0) (+) -I_{k-1}.
    The basis is H and the k^2 matrix units on the trailing block.

    What is built where: per root, S's entries, t^-1 and the letter's
    entries, proved Hermitian there (``_values_at``), the leading minors
    det S_s (``_minor``), and per root and L the one division, proved real,
    with its corners (``_schur_entry``); per generator set, the check of its
    rows, made when it is built (``MonodromyGenerators``); per point
    (n, m, N, k), -q = zeta_N^k, the form, its inertia checks, its basis
    and their invariance check, made once and cached (``_form_at``). Per
    call: t = -1 is tested against the field's shared -1, and k is read
    off t to find the point's result, the same object on every call.
    """
    t = generators.minus_q
    if t == _minus_one(t.order):
        raise NoInvariantForm(f"no closed-form invariant form at t = {t}")
    return _form_at(generators.strands_n, generators.m, t.order, root_exponent(t))


def _minus_one(order: int) -> CyclotomicNumber:
    """The field's shared -1: the middle entry of its root table, in every
    field, Q included."""
    roots = _roots_of_unity(order)
    return roots[len(roots) // 2]


@lru_cache(maxsize=None)
def _form_at(n: int, m: int, order: int, e: int) -> InvariantFormResult:
    """``invariant_hermitian_form`` at t = zeta_order^e != -1, built and
    checked once per point, under the key ``rho_generators`` uses.
    ``MonodromyGenerators`` fixes every row of a valid set for its
    (n, m, t), so every set at this point, cached or built by hand, is the
    cached one (``_generators_at``) that the invariance check is handed.
    A failed check raises and caches nothing, so the next call at the
    point raises again."""
    _, entries, negated = _values_at(order, e)
    a = min(e, order - e)
    dim, lead, k = m - 2, n - 1, m - 1 - n
    zero, minus_one = CyclotomicNumber.zero(order), _minus_one(order)
    singular = _minor(order, e, lead).is_zero
    inertia = _squier_inertia(lead, a, order)
    if singular != (inertia[2] > 0):
        raise NoInvariantForm("the closed-form inertia of S_L disagrees with det S_L")

    pivot = lead - 1 if singular and k else lead
    pos, neg, zeros = inertia if pivot == lead else _squier_inertia(pivot, a, order)
    flip = pos > neg
    if flip:
        pos, neg = neg, pos
    diag, above, below = negated if flip else entries
    if not k:
        first, schur = None, (0, 0, 0)
    elif singular:
        first, schur = zero, (1, k, 0)
    else:
        # The corners for c alpha, c = -1 under flip, else +1.
        plus, minus = _schur_entry(order, e, lead)[2 * flip:2 * flip + 2]
        first, schur = (plus, (1, k - 1, 0)) if pos == 0 else (minus, (0, k, 0))
    grid = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        grid[i][i] = diag if i < lead else first if i == lead else minus_one
        if i < min(lead, dim - 1):
            grid[i][i + 1], grid[i + 1][i] = above, below
    form = _band_form(CycloMatrix(grid), pivot, (pos, neg, zeros), schur)

    # The matrix unit at (i, j): row i is the unit row e_j, every other row zero.
    units, zero_row = _unit_rows(order, dim), (zero,) * dim
    basis = (form.matrix,) + tuple(
        CycloMatrix(units[j] if a == i else zero_row for a in range(dim))
        for i in range(lead, dim)
        for j in range(lead, dim)
    )
    _check_invariant(basis, _generators_at(n, m, order, e), entries, negated)
    return InvariantFormResult(basis, form, 0)


def signature(form: HermitianForm) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the form: the sum of
    its pivot's inertia and its Schur complement's (Haynsworth)."""
    return tuple(a + b for a, b in zip(form.pivot_inertia, form.schur_inertia))
