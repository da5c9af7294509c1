"""Monodromy generators of the cone-metric moduli space, the commutative
diagram audit against the Burau evaluation path, and the invariant
Hermitian (area) form with its signature certificate.

The generator matrices act on the difference coordinates of a developing
image and are defined here through the evaluation of the Burau generator
images (the interior generators then reproduce the displayed form
I (+) [[1,0,0],[-q,q,1],[0,0,1]] (+) I). The affine extension followed by
identity padding sends sigma_i in B_n to sigma_i in B_{m-1}, so a product
of monodromy generators along a word is the specialized Burau image of the
same word on m-1 strands, computed by the one word-product loop of
``burau``; ``rho_generators`` keeps the evaluation-map definition that
this identity is tested against. Diagram checks are exact cyclotomic
arithmetic; floating point enters only for the Hermitian least-squares
solve and the eigenvalue counts, where a signature is stable under small
perturbations away from zero eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burau import (
    burau_generator,
    burau_of_word,
    ev_map,
    projectively_equal,
    specialized_burau,
)
from .cyclotomic import CycloMatrix, CyclotomicNumber
from .words import BraidWord


class InvalidDims(ValueError):
    """The (n, m) pair does not satisfy 3 <= n <= m-1."""


class NoInvariantForm(RuntimeError):
    """The invariant-form solve found a numerically zero solution space;
    existence is guaranteed at unit-modulus parameters, so this signals a bug."""


@dataclass(frozen=True)
class MonodromyGenerators:
    """Monodromy images of the braid generators on m-2 coordinates."""

    strands_n: int
    m: int
    minus_q: CyclotomicNumber
    mats: tuple[CycloMatrix, ...]


@dataclass(frozen=True)
class HermitianForm:
    """A Hermitian matrix (float entries, symmetry enforced to 1e-12)."""

    matrix: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrix, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("expected a square matrix")
        defect = np.max(np.abs(h - h.conj().T))
        scale = max(np.max(np.abs(h)), 1.0)
        if defect > 1e-12 * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.2e})")
        object.__setattr__(self, "matrix", (h + h.conj().T) / 2)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def rho_generators(n: int, m: int, minus_q: CyclotomicNumber) -> MonodromyGenerators:
    """The n-1 monodromy generator matrices at the given evaluation point,
    each the chosen representative of the evaluated Burau generator."""
    if not 3 <= n <= m - 1:
        raise InvalidDims(f"need 3 <= n <= m-1, got n={n}, m={m}")
    mats = tuple(
        ev_map(burau_generator(n, i), minus_q, m).matrix for i in range(1, n)
    )
    return MonodromyGenerators(n, m, minus_q, mats)


def rho_product(word: BraidWord, m: int, minus_q: CyclotomicNumber) -> CycloMatrix:
    """The product of monodromy generator matrices along a word.

    The monodromy generator of sigma_i in B_n is the Burau image of sigma_i
    in B_{m-1} specialized at minus_q, so this is ``specialized_burau`` of
    the same letters read on m-1 strands.
    """
    n = word.strands_n
    if not 3 <= n <= m - 1:
        raise InvalidDims(f"need 3 <= n <= m-1, got n={n}, m={m}")
    return specialized_burau(BraidWord(m - 1, word.letters), minus_q)


def diagram_check(word: BraidWord, n: int, m: int, minus_q: CyclotomicNumber) -> bool:
    """True iff the evaluated Burau image of the word and the product of
    monodromy generators along it agree up to a nonzero scalar, in exact
    cyclotomic arithmetic."""
    if not 3 <= n <= m - 1:
        raise InvalidDims(f"need 3 <= n <= m-1, got n={n}, m={m}")
    if word.strands_n != n:
        raise ValueError("word strand count differs from n")
    via_burau = ev_map(burau_of_word(word), minus_q, m)
    via_rho = rho_product(word, m, minus_q)
    return projectively_equal(via_burau.matrix, via_rho)


@dataclass(frozen=True)
class InvariantFormResult:
    """Solution space of G* H G = H over Hermitian H, with one normalized
    representative chosen."""

    basis: tuple[np.ndarray, ...]
    chosen: HermitianForm
    unitarity_residual: float


def _hermitian_basis(dim: int) -> list[np.ndarray]:
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = 1
            basis.append(e)
            f = np.zeros((dim, dim), dtype=complex)
            f[i, j] = 1j
            f[j, i] = -1j
            basis.append(f)
    return basis


def invariant_hermitian_form(
    generators: MonodromyGenerators, rank_tol: float = 1e-9
) -> InvariantFormResult:
    """Solve G_i^* H G_i = H for Hermitian H by a real-linear null-space
    computation over the float embedding of the generators.

    Reports a basis of the full solution space and one representative,
    scale-normalized and sign-fixed so that a representative of signature
    (1, dim-1) is chosen whenever the solution space contains one.
    """
    mats = [np.array(g.to_complex_rows(), dtype=complex) for g in generators.mats]
    dim = mats[0].shape[0]
    basis = _hermitian_basis(dim)
    # Columns map Hermitian-basis coordinates to the stacked real defect
    # vectors G*BG - B over all generators.
    coeff = np.column_stack(
        [
            np.concatenate(
                [
                    np.concatenate([d.real.ravel(), d.imag.ravel()])
                    for d in ((g.conj().T @ b @ g - b) for g in mats)
                ]
            )
            for b in basis
        ]
    )
    _, svals, vt = np.linalg.svd(coeff, full_matrices=False)
    cutoff = rank_tol * (svals[0] if len(svals) and svals[0] > 0 else 1.0)
    rank = int(np.sum(svals > cutoff))
    null_dim = len(basis) - rank
    if null_dim == 0:
        raise NoInvariantForm("no invariant Hermitian form found")
    null_vecs = vt[rank:]
    forms = []
    for vec in null_vecs:
        h = sum(c * b for c, b in zip(vec, basis))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h)
        forms.append(h)

    chosen = None
    for h in forms:
        for candidate in (h, -h):
            pos, neg, zero = signature(HermitianForm(candidate))
            if pos == 1 and neg == dim - 1 and zero == 0:
                chosen = candidate
                break
        if chosen is not None:
            break
    if chosen is None:
        # Fall back to a deterministic sign fix on the first basis form.
        h = forms[0]
        pos, neg, _ = signature(HermitianForm(h))
        chosen = h if pos <= neg else -h
    residual = max(
        np.linalg.norm(g.conj().T @ chosen @ g - chosen) for g in mats
    ) / np.linalg.norm(chosen)
    return InvariantFormResult(tuple(forms), HermitianForm(chosen), float(residual))


def signature(form: HermitianForm, tol: float = 1e-9) -> tuple[int, int, int]:
    """Eigenvalue sign counts (positive, negative, zero) with |lambda| below
    tol * spectral radius counted as zero."""
    eigs = np.linalg.eigvalsh(form.matrix)
    radius = max(abs(eigs.min(initial=0.0)), abs(eigs.max(initial=0.0)))
    if radius == 0.0:
        return (0, 0, form.dim)
    cut = tol * radius
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    return (pos, neg, form.dim - pos - neg)
