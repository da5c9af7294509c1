import math
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

import burau_lab
from burau_lab import monodromy
from burau_lab.burau import (
    burau_generator,
    burau_of_word,
    ev_map,
    projectively_equal,
    specialized_burau,
)
from burau_lab.cli import KERNEL_TABLE_FIXTURE
from burau_lab.cyclotomic import (
    CycloMatrix,
    CyclotomicNumber,
    NotARoot,
    ZeroInput,
    minus_q_from_d,
    specialize_matrix,
    specialize_poly,
    _unit_rows,
)
from burau_lab.monodromy import (
    HermitianForm,
    InvalidDims,
    NoInvariantForm,
    diagram_check,
    invariant_hermitian_form,
    rho_generators,
    rho_product,
    signature,
)
from burau_lab.words import BraidWord, parse_word, random_word, sample_normal_closure
from oracles import scaled


class TestRhoGenerators:
    def test_interior_block_display(self):
        # At any evaluation point the interior generator acts by
        # [[1, 0, 0], [-q, q, 1], [0, 0, 1]] on three consecutive coordinates.
        mq = minus_q_from_d(4)  # -q = -i, so q = i
        q = -mq
        gens = rho_generators(4, 7, mq)
        g = gens.mats[1]  # generator index 2, row r = 1
        one = CyclotomicNumber.one(mq.order)
        assert g.dim == 5
        assert g.entry(1, 0) == -q
        assert g.entry(1, 1) == q
        assert g.entry(1, 2) == one
        for i in range(5):
            for j in range(5):
                if i != 1:
                    assert g.entry(i, j) == (one if i == j else 0 * one)

    def test_edge_generator_at_minimal_padding(self):
        mq = minus_q_from_d(5)
        q = -mq
        g = rho_generators(4, 5, mq).mats[0]
        assert g.entry(0, 0) == q
        assert g.entry(0, 1).is_one
        assert g.entry(1, 1).is_one and g.entry(1, 0).is_zero

    def test_minimal_padding_equals_specialized_burau(self):
        mq = minus_q_from_d(7)
        gens = rho_generators(4, 5, mq)
        for i, mat in enumerate(gens.mats, start=1):
            assert mat == specialize_matrix(burau_generator(4, i).matrix, mq)

    @pytest.mark.parametrize("m_extra", [1, 2])
    def test_braid_relations(self, m_extra):
        for n, d in [(4, 5), (5, 8), (6, 4)]:
            mq = minus_q_from_d(d)
            mats = rho_generators(n, n + m_extra, mq).mats
            for i in range(len(mats) - 1):
                a, b = mats[i], mats[i + 1]
                assert a * b * a == b * a * b
            for i in range(len(mats)):
                for j in range(i + 2, len(mats)):
                    assert mats[i] * mats[j] == mats[j] * mats[i]

    def test_dims_validated(self):
        mq = minus_q_from_d(5)
        with pytest.raises(InvalidDims):
            rho_generators(4, 4, mq)
        with pytest.raises(InvalidDims):
            rho_generators(2, 5, mq)

    def test_non_integer_dims_are_refused(self):
        # 3 <= n <= m-1 holds for m = 4.5, and the generators were then
        # built with a float strand count.
        mq = minus_q_from_d(5)
        with pytest.raises(InvalidDims, match="^m is not an integer, got float$"):
            rho_generators(3, 4.5, mq)
        with pytest.raises(InvalidDims, match="^n is not an integer, got float$"):
            rho_generators(3.0, 5, mq)
        with pytest.raises(InvalidDims, match="^m is not an integer, got float$"):
            rho_product(parse_word("s1", 3), 4.5, mq)


def _signature_points() -> list[tuple[int, int, int]]:
    """(n, d, m): the m = n+1 points with 3 <= n <= 10 and 3 <= d <= 40 whose
    equal-curvature cone sphere exists (last curvature 2 - n(d-2)/(2d) in
    (0, 1)), and the kernel table's rows at m = n+2."""
    points = [
        (n, d, n + 1)
        for n in range(3, 11)
        for d in range(3, 41)
        if 0 < 2 - n * Fraction(d - 2, 2 * d) < 1
    ]
    return points + [(n, d, n + 2) for n, d, _, _ in KERNEL_TABLE_FIXTURE]


class TestGeneratorCache:
    """rho_generators builds each point's generators once and caches them
    under (n, m, N, k), after checking the dims and the point."""

    def test_key_is_the_field_and_exponent(self):
        # -1 is zeta_2 in Q(zeta_2), and compares and hashes equal to -1 in
        # Q, which is no power of zeta_1: that point must still be refused.
        assert rho_generators(3, 4, CyclotomicNumber.from_fraction(-1, 2)).minus_q.order == 2
        with pytest.raises(NotARoot):
            rho_generators(3, 4, CyclotomicNumber.from_fraction(-1, 1))
        mq = minus_q_from_d(5)
        rho_generators(4, 5, mq)
        with pytest.raises(InvalidDims):
            rho_generators(4, 4, mq)
        with pytest.raises(ZeroInput):
            rho_generators(4, 5, CyclotomicNumber.zero(mq.order))

    def test_cached_generators_equal_a_fresh_build(self):
        points = _signature_points()
        assert len(points) == 102
        for n, d, m in points:
            mq = minus_q_from_d(d)
            gens = rho_generators(n, m, mq)
            for i in range(1, n):
                fresh = specialized_burau(BraidWord(m - 1, ((i, 1),)), mq)
                assert gens.mats[i - 1] == fresh, (n, d, m, i)
            # An equal point that is another object finds the same result.
            again = CyclotomicNumber(mq.order, mq.numerators)
            assert again is not gens.minus_q
            assert rho_generators(n, m, again) is gens
            assert (gens.strands_n, gens.m, gens.minus_q) == (n, m, mq)

    @pytest.mark.parametrize("name, value", [("_rows", ((1,),)), ("dim", 1)])
    def test_cached_matrices_refuse_assignment(self, name, value):
        gens = rho_generators(4, 6, minus_q_from_d(7))
        g = gens.mats[0]
        before = g.rows
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
        with pytest.raises(FrozenInstanceError):
            gens.mats = ()
        assert rho_generators(4, 6, minus_q_from_d(7)).mats[0] is g
        assert g.rows is before and g.dim == 4


def test_package_words_skip_the_letter_check(monkeypatch):
    # BraidWord's check is for letters from outside the package: the words
    # that the package builds for itself hold valid letters and skip it.
    checked = []
    check = BraidWord.__post_init__
    monkeypatch.setattr(BraidWord, "__post_init__", lambda w: checked.append(w) or check(w))
    # The generators uncached, as at the first call at a point.
    monkeypatch.setattr(monodromy, "_generators_at", monodromy._generators_at.__wrapped__)
    mq = minus_q_from_d(7)
    rho_generators(4, 6, mq)
    sample = sample_normal_closure(4, [parse_word("T4 s3^-2", 4)], 3, 5, seed=1)
    word = parse_word("(s1 s2^-1)^2 T3", 4) * sample
    rho_product(word, 6, mq)
    assert diagram_check(word, 4, 6, mq)
    assert checked == []


class TestDiagramCheck:
    def test_single_generators(self):
        mq = minus_q_from_d(6)
        for i in (1, 2, 3):
            assert diagram_check(parse_word(f"s{i}", 4), 4, 5, mq)
            assert diagram_check(parse_word(f"s{i}^-1", 4), 4, 6, mq)

    def test_random_words(self):
        mq = minus_q_from_d(5)
        rng = random.Random(1)
        for _ in range(100):
            w = random_word(4, 12, rng)
            assert diagram_check(w, 4, 6, mq)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_random_words_through_the_padding(self, n):
        # m >= n+3 pads the affine extension with an identity block.
        rng = random.Random(100 + n)
        for d, numerator in ((5, 2), (8, 3)):
            mq = minus_q_from_d(d, numerator)
            for m in (n + 3, n + 4):
                for _ in range(10):
                    assert diagram_check(random_word(n, 10, rng), n, m, mq), (d, m)

    def test_central_twist_scalar_class(self):
        mq = minus_q_from_d(7)
        w = parse_word("T4", 4)
        assert diagram_check(w, 4, 5, mq)
        evaluated = ev_map(burau_of_word(w), mq, 5)
        # The class of (-q)^4 times the identity.
        assert projectively_equal(evaluated.matrix, CycloMatrix(_unit_rows(mq.order, 3)))
        assert evaluated.matrix.entry(0, 0) == mq**4

    def test_product_matches_generator_matrices(self):
        mq = minus_q_from_d(8)
        gens = rho_generators(5, 7, mq)
        w = parse_word("s1 s3^-1 s2 s4", 5)
        s3_inv = rho_product(parse_word("s3^-1", 5), 7, mq)
        assert (gens.mats[2] * s3_inv).is_identity
        expected = gens.mats[0] * s3_inv * gens.mats[1] * gens.mats[3]
        assert rho_product(w, 7, mq) == expected

    @pytest.mark.parametrize("n, d", [(n, d) for n, d, _, _ in KERNEL_TABLE_FIXTURE])
    def test_one_letter_products_match_evaluation_map(self, n, d):
        # rho_product reads sigma_i in B_n as sigma_i in B_{m-1}; the
        # evaluation of the Burau generator is the definition it must match.
        mq = minus_q_from_d(d)
        for m in (n + 1, n + 2):
            for i in range(1, n):
                for sign in (1, -1):
                    word = BraidWord(n, ((i, sign),))
                    expected = ev_map(burau_generator(n, i, sign < 0), mq, m).matrix
                    assert rho_product(word, m, mq) == expected
                    if sign > 0:
                        assert rho_generators(n, m, mq).mats[i - 1] == expected

    def test_strand_count_mismatch(self):
        with pytest.raises(ValueError):
            diagram_check(parse_word("s1", 3), 4, 5, minus_q_from_d(5))


def _star(g: CycloMatrix) -> CycloMatrix:
    """The conjugate transpose, entry by entry."""
    return CycloMatrix(
        [[g.entry(j, i).conjugate() for j in range(g.dim)] for i in range(g.dim)]
    )


def _float_inertia(np, form: CycloMatrix) -> tuple[int, int, int]:
    """Eigenvalue sign counts of the complex embedding, zero below 1e-9 of
    the spectral radius."""
    eigs = np.linalg.eigvalsh(np.array(form.to_complex_rows()))
    cut = 1e-9 * max(1.0, float(np.abs(eigs).max()))
    return int((eigs > cut).sum()), int((eigs < -cut).sum()), int((abs(eigs) <= cut).sum())


def _float_nullity(np, gens) -> int:
    """Real dimension of the Hermitian H with G* H G = H for every generator,
    from the singular values of that real-linear system."""
    mats = [np.array(g.to_complex_rows()) for g in gens.mats]
    dim = mats[0].shape[0]
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            for value in ((1,) if i == j else (1, 1j)):
                b = np.zeros((dim, dim), dtype=complex)
                b[i, j], b[j, i] = value, np.conj(value)
                basis.append(b)
    coeff = np.column_stack([
        np.concatenate([
            np.concatenate([d.real.ravel(), d.imag.ravel()])
            for d in (g.conj().T @ b @ g - b for g in mats)
        ])
        for b in basis
    ])
    svals = np.linalg.svd(coeff, compute_uv=False)
    return len(basis) - int((svals > 1e-9 * svals[0]).sum())


# (n, d, numerator, m): numerators other than 1, m up to 20, and (3, 6, 1, 5),
# where the leading block S_2 is singular.
ORACLE_POINTS = [
    (3, 6, 1, 5), (3, 6, 1, 4), (4, 10, 1, 6), (5, 6, 1, 7), (7, 4, 1, 9),
    (3, 7, 3, 20), (4, 9, 2, 11), (5, 8, 3, 8), (6, 5, 2, 9), (4, 12, 5, 6),
    (8, 3, 2, 10), (10, 3, 1, 20), (3, 11, 4, 12), (4, 7, 6, 5), (5, 12, 7, 9),
]


class TestInvariantForm:
    def test_signature_examples(self):
        # The invariant area form has signature (1, m-3).
        for n, d, m in [(3, 7, 4), (4, 7, 5), (5, 8, 6)]:
            gens = rho_generators(n, m, minus_q_from_d(d))
            result = invariant_hermitian_form(gens)
            assert signature(result.chosen) == (1, m - 3, 0)

    def test_unitarity_residual(self):
        gens = rho_generators(4, 5, minus_q_from_d(7))
        result = invariant_hermitian_form(gens)
        assert result.unitarity_residual == 0

    def test_cone_sphere_points_at_minimal_padding(self):
        # Every (n, d), 3 <= n <= 10 and 3 <= d <= 40, whose last curvature
        # 2 - n(d-2)/(2d) lies in (0, 1): the 83 points of the benchmark.
        points = [
            (n, d) for n in range(3, 11) for d in range(3, 41)
            if 0 < 2 - n * Fraction(d - 2, 2 * d) < 1
        ]
        assert len(points) == 83
        for n, d in points:
            result = invariant_hermitian_form(rho_generators(n, n + 1, minus_q_from_d(d)))
            assert signature(result.chosen) == (1, n - 2, 0), (n, d)
            assert result.unitarity_residual == 0

    @pytest.mark.parametrize("n, d", [(n, d) for n, d, _, _ in KERNEL_TABLE_FIXTURE])
    def test_m_n_plus_2_signature(self, n, d):
        # Includes the rows where a float solve that tried only +- each null
        # vector reported (2, m-4): (4,7) (4,8) (4,18) (5,5) (5,8) (9,3).
        m = n + 2
        result = invariant_hermitian_form(rho_generators(n, m, minus_q_from_d(d)))
        assert signature(result.chosen) == (1, m - 3, 0)
        assert result.unitarity_residual == 0
        assert len(result.basis) == 2

    def test_negation_flips_signature(self):
        # The chooser picks the sign of the form: its negative has the
        # flipped float inertia, which is not (1, m-3).
        np = pytest.importorskip("numpy")
        gens = rho_generators(5, 6, minus_q_from_d(8))
        result = invariant_hermitian_form(gens)
        pos, neg, zero = signature(result.chosen)
        negated = scaled(result.chosen.matrix, -1)
        assert (pos, neg) == (1, 3)
        assert _float_inertia(np, result.chosen.matrix) == (pos, neg, zero)
        assert _float_inertia(np, negated) == (neg, pos, zero)

    def test_basis_reported(self):
        # Every basis form is invariant under dense exact products, and the
        # count is 1 + k^2 with k = m-1-n trailing identity rows.
        for n, d, m in [(4, 5, 5), (3, 6, 5), (4, 7, 7)]:
            gens = rho_generators(n, m, minus_q_from_d(d))
            result = invariant_hermitian_form(gens)
            assert len(result.basis) == 1 + (m - 1 - n) ** 2
            assert result.basis[0] == result.chosen.matrix
            for h in result.basis:
                for g in gens.mats:
                    assert _star(g) * h * g == h

    @pytest.mark.parametrize("n, d, a, m", ORACLE_POINTS)
    def test_inertia_matches_float_eigenvalues(self, n, d, a, m):
        np = pytest.importorskip("numpy")
        result = invariant_hermitian_form(rho_generators(n, m, minus_q_from_d(d, a)))
        assert _float_inertia(np, result.chosen.matrix) == signature(result.chosen)

    @pytest.mark.parametrize("n, d, a, m", ORACLE_POINTS[:8])
    def test_solution_dimension_matches_float_nullity(self, n, d, a, m):
        np = pytest.importorskip("numpy")
        gens = rho_generators(n, m, minus_q_from_d(d, a))
        assert len(invariant_hermitian_form(gens).basis) == _float_nullity(np, gens)

    def test_singular_leading_block_certificate(self):
        # At (n, d, m) = (3, 6, 5) the leading block S_2 has a zero
        # eigenvalue, so the pivot is S_1 and the Schur complement holds a
        # hyperbolic 2 x 2 block.
        form = invariant_hermitian_form(rho_generators(3, 5, minus_q_from_d(6))).chosen
        assert (form.pivot_size, form.pivot_inertia, form.schur_inertia) == (
            1, (0, 1, 0), (1, 1, 0)
        )

    def test_zero_eigenvalue_at_minimal_padding(self):
        # m = n+1 reports S itself, with an exact zero eigenvalue when one
        # of r' + j/(s+1) equals 1: at d = 6, r' = 1/3 and s = 2, j = 2.
        result = invariant_hermitian_form(rho_generators(3, 4, minus_q_from_d(6)))
        assert signature(result.chosen) == (0, 1, 1)

    def test_dropping_conjugation_is_caught(self, monkeypatch):
        # At m = n+1 nothing is divided; conj(t) is compared with t^-1,
        # the invariance check's first step, before the form is built.
        monkeypatch.setattr(CyclotomicNumber, "conjugate", lambda x: x)
        with pytest.raises(NoInvariantForm, match=r"G\* H G != H"):
            invariant_hermitian_form(rho_generators(4, 5, minus_q_from_d(7)))

    def test_dropping_conjugation_is_caught_before_the_pivot_inverse(self, monkeypatch):
        # At m = n+2 the Schur complement divides by det S_L. S's entries
        # read conj(t) as t^-1, so det S_L is real and its inverse comes out
        # right even without conjugation; conj(t) is checked against t^-1
        # before the form is built, and the run stops there.
        monkeypatch.setattr(CyclotomicNumber, "conjugate", lambda x: x)
        with pytest.raises(NoInvariantForm, match=r"conj\(t\) is not t\^-1"):
            invariant_hermitian_form(rho_generators(4, 6, minus_q_from_d(7)))

    @pytest.mark.parametrize("n, m, d", [(4, 5, 7), (5, 7, 8), (6, 7, 5), (10, 11, 3)])
    def test_corrupted_generator_entry_is_caught(self, n, m, d):
        # Interior generator i has row r = i-1 equal to (t, -t, 1) in columns
        # r-1, r, r+1; replacing its t by conj(t) must fail the exact check.
        gens = rho_generators(n, m, minus_q_from_d(d))
        i = n // 2
        rows = [list(row) for row in gens.mats[i - 1].rows]
        t = rows[i - 1][i - 2]
        assert t == gens.minus_q
        rows[i - 1][i - 2] = t.conjugate()
        mats = gens.mats[: i - 1] + (CycloMatrix(rows),) + gens.mats[i:]
        corrupted = monodromy.MonodromyGenerators(n, m, gens.minus_q, mats)
        with pytest.raises(NoInvariantForm, match=rf"generator {i}$"):
            invariant_hermitian_form(corrupted)

    @pytest.mark.parametrize(
        "n, m, d, i, a, b",
        [
            pytest.param(4, 6, 7, 1, 0, 1, id="first-generator"),
            pytest.param(5, 6, 8, 4, 3, 2, id="last-generator-m-n-plus-1"),
            pytest.param(5, 7, 8, 4, 3, 4, id="last-generator-right-entry-in-trailing-block"),
            pytest.param(4, 6, 9, 2, 3, 3, id="outside-row-r-in-row-L"),
        ],
    )
    def test_corrupted_letter_shapes_are_caught(self, n, m, d, i, a, b):
        # Entry (a, b) of generator i, plus one. The dense product confirms
        # that the corrupted generator no longer preserves the form.
        gens = rho_generators(n, m, minus_q_from_d(d))
        form = invariant_hermitian_form(gens).chosen.matrix
        rows = [list(row) for row in gens.mats[i - 1].rows]
        rows[a][b] = rows[a][b] + 1
        g = CycloMatrix(rows)
        assert _star(g) * form * g != form
        mats = gens.mats[: i - 1] + (g,) + gens.mats[i:]
        corrupted = monodromy.MonodromyGenerators(n, m, gens.minus_q, mats)
        with pytest.raises(NoInvariantForm, match=rf"generator {i}$"):
            invariant_hermitian_form(corrupted)

    @pytest.mark.parametrize("n, m, d", [(4, 5, 7), (5, 7, 8), (3, 5, 6)])
    def test_transposed_basis_form_is_caught(self, n, m, d):
        # The transpose of the chosen form is Hermitian too, but swaps the
        # entries above and below the diagonal, so no generator keeps it.
        gens = rho_generators(n, m, minus_q_from_d(d))
        basis = invariant_hermitian_form(gens).basis
        transposed = CycloMatrix(zip(*basis[0].rows))
        assert all(_star(g) * transposed * g != transposed for g in gens.mats)
        with pytest.raises(NoInvariantForm, match=r"basis form 1 .* generator 1$"):
            monodromy._check_invariant(basis[:1] + (transposed,), gens)

    def test_conjugation_checked_at_the_point(self, monkeypatch):
        gens = rho_generators(4, 6, minus_q_from_d(7))
        basis = invariant_hermitian_form(gens).basis
        monkeypatch.setattr(CyclotomicNumber, "conjugate", lambda x: x)
        with pytest.raises(NoInvariantForm, match=r"conj\(t\) is not t\^-1"):
            monodromy._check_invariant(basis, gens)

    def test_laurent_identity_rejects_a_transposed_form(self):
        diag, above, below = monodromy._SQUIER
        assert monodromy._laurent_certificate((diag, above, below)) is None
        with pytest.raises(NoInvariantForm, match=r"over Z\[t, t\^-1\] for generator"):
            monodromy._laurent_certificate((diag, below, above))

    def test_roots_rest_on_the_laurent_identity(self, monkeypatch):
        # With Squier's entries transposed, the certificate fails on the
        # Laurent identity before any comparison at the root.
        diag, above, below = monodromy._SQUIER
        monkeypatch.setattr(monodromy, "_SQUIER", (diag, below, above))
        monodromy._values_at.cache_clear()
        try:
            with pytest.raises(NoInvariantForm, match=r"over Z\[t, t\^-1\]"):
                invariant_hermitian_form(rho_generators(4, 6, minus_q_from_d(7)))
        finally:
            monodromy._values_at.cache_clear()

    def test_column_of_a_basis_form_is_checked(self):
        # The matrix unit at (L, 0) has a zero row 0 but column 0 = e_L, so
        # generator 1 moves it: G* E G - E = e_L u, u = row_0(G) - e_0.
        n, m = 4, 6
        gens = rho_generators(n, m, minus_q_from_d(7))
        basis = invariant_hermitian_form(gens).basis
        one, zero = CyclotomicNumber.one(gens.minus_q.order), CyclotomicNumber.zero(gens.minus_q.order)
        unit = CycloMatrix([
            [one if (a, b) == (n - 1, 0) else zero for b in range(m - 2)] for a in range(m - 2)
        ])
        assert _star(gens.mats[0]) * unit * gens.mats[0] != unit
        with pytest.raises(NoInvariantForm, match=rf"basis form {len(basis)} .* generator 1$"):
            monodromy._check_invariant(basis + (unit,), gens)

    @pytest.mark.parametrize(
        "n, d, a, m",
        [(n, d, a, m) for n in range(3, 8) for d, a in ((7, 3), (12, 5)) for m in (n + 1, n + 2)]
        + [(3, 9, 2, 6), (5, 10, 3, 8)],
    )
    def test_basis_invariant_under_dense_products(self, n, d, a, m):
        gens = rho_generators(n, m, minus_q_from_d(d, a))
        for h in invariant_hermitian_form(gens).basis:
            for g in gens.mats:
                assert _star(g) * h * g == h

    def test_point_off_the_unit_circle_rejected(self):
        # Such a point is no zeta_N^k, so no generator is even built.
        with pytest.raises(NotARoot):
            rho_generators(4, 5, CyclotomicNumber.from_fraction(2))


class TestPerRootWork:
    """The certificate builds its minors once per root and checks cached
    generators once; conj(t), t = -1 and every basis form are still checked
    on every call."""

    def test_leading_minors_match_the_naive_recurrence(self):
        # The tridiagonal recurrence in full, D_s = diag D_{s-1} -
        # above below D_{s-2}, against the memoized delta (D_{s-1} - D_{s-2}),
        # extended first to s = 6 and then to 12.
        for order in range(1, 81):
            for k in range(order):
                if math.gcd(k, order) != 1:
                    continue
                t = CyclotomicNumber.root_of_unity(order, k)
                diag, above, below = (specialize_poly(p, t) for p in monodromy._SQUIER)
                off_diagonal = above * below
                naive = [CyclotomicNumber.one(order), diag]
                for _ in range(2, 13):
                    naive.append(diag * naive[-1] - off_diagonal * naive[-2])
                monodromy._leading_minors(order, k, 6)
                minors = monodromy._leading_minors(order, k, 12)
                assert [minors[s] for s in range(13)] == naive, (order, k)

    @pytest.mark.parametrize(
        "minus_one",
        [
            pytest.param(CyclotomicNumber.root_of_unity(2, 1), id="zeta_2"),
            pytest.param(CyclotomicNumber.root_of_unity(4, 2), id="zeta_4^2"),
            pytest.param(CyclotomicNumber.root_of_unity(6, 3), id="zeta_6^3"),
            pytest.param(CyclotomicNumber.root_of_unity(10, 5), id="zeta_10^5"),
            pytest.param(CyclotomicNumber.from_fraction(-1), id="rational"),
        ],
    )
    def test_no_form_at_minus_one(self, minus_one):
        # -1 in Q is no power of zeta_1, so rho_generators refuses it: only
        # a hand-built set holds it, and it gets the same refusal.
        if minus_one.order == 1:
            mats = rho_generators(3, 4, CyclotomicNumber.root_of_unity(2, 1)).mats
            gens = monodromy.MonodromyGenerators(3, 4, minus_one, mats)
        else:
            gens = rho_generators(3, 4, minus_one)
        with pytest.raises(NoInvariantForm, match=r"^no closed-form invariant form at t = -1$"):
            invariant_hermitian_form(gens)

    def test_one_point_check_per_call(self, monkeypatch):
        gens = rho_generators(5, 7, minus_q_from_d(8))
        invariant_hermitian_form(gens)
        calls = []
        for name in ("root_exponent", "_squier_at"):
            real = getattr(monodromy, name)
            monkeypatch.setattr(
                monodromy, name, lambda t, name=name, real=real: calls.append(name) or real(t)
            )
        invariant_hermitian_form(gens)
        assert sorted(calls) == ["_squier_at", "root_exponent"]

    def test_only_the_cached_generators_skip_the_row_check(self, monkeypatch):
        gens = rho_generators(5, 7, minus_q_from_d(8))
        checked = []
        check = monodromy._check_letter_rows
        monkeypatch.setattr(
            monodromy, "_check_letter_rows", lambda mats, *rest: checked.append(mats) or check(mats, *rest)
        )
        result = invariant_hermitian_form(gens)
        assert checked == []
        assert invariant_hermitian_form(replace(gens)).basis == result.basis
        assert len(checked) == 1 and checked[0] is gens.mats

    def test_generator_corrupted_before_the_cache_fills_is_caught(self, monkeypatch):
        # Each generator built with 1 added to the first entry of its last
        # row, which no letter of B_4 touches at m = 6.
        build = monodromy.specialized_burau

        def corrupted(word, minus_q):
            rows = [list(row) for row in build(word, minus_q).rows]
            rows[-1][0] += 1
            return CycloMatrix(rows)

        monkeypatch.setattr(monodromy, "specialized_burau", corrupted)
        monodromy._generators_at.cache_clear()
        try:
            with pytest.raises(
                NoInvariantForm, match=r"^G\* H G != H: row 3 is not the Burau letter's for generator 1$"
            ):
                invariant_hermitian_form(rho_generators(4, 6, minus_q_from_d(7)))
        finally:
            monodromy._generators_at.cache_clear()


def _fraction_inertia(size: int, r: Fraction) -> tuple[int, int, int]:
    """The closed-form inertia of S_size in Fraction arithmetic: eigenvalue
    j has the sign of 1 - (r + j/(size+1)), r the distance from theta/2pi
    to the nearest integer."""
    sides = [r + Fraction(j, size + 1) for j in range(1, size + 1)]
    return sum(s < 1 for s in sides), sum(s > 1 for s in sides), sum(s == 1 for s in sides)


def test_integer_inertia_matches_the_fraction_form():
    oracle = {}
    for order in range(1, 81):
        for k in range(order):
            turn = Fraction(k, order)
            r = min(turn, 1 - turn)
            a = min(k, order - k)
            for size in range(22):
                if (size, r) not in oracle:
                    oracle[size, r] = _fraction_inertia(size, r)
                assert monodromy._squier_inertia(size, a, order) == oracle[size, r], (size, k, order)


class TestSignature:
    def test_rejects_non_hermitian(self):
        one, zero = CyclotomicNumber.one(5), CyclotomicNumber.zero(5)
        zeta = CyclotomicNumber.root_of_unity(5)
        with pytest.raises(ValueError):
            HermitianForm(CycloMatrix([[zero, one], [zero, zero]]), 1, (0, 1, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            HermitianForm(CycloMatrix([[zero, zeta], [zeta, zero]]), 1, (0, 1, 0), (1, 0, 0))


    @staticmethod
    def band_form(dim: int) -> list[list]:
        # Squier's form at -q for d = 7, read off the certified form.
        return [list(row) for row in invariant_hermitian_form(
            rho_generators(dim + 1, dim + 2, minus_q_from_d(7))
        ).chosen.matrix.rows]

    @pytest.mark.parametrize("dim", [4, 6])
    def test_rejects_a_fault_off_the_band(self, dim):
        # The band is Hermitian; only the pair (0, dim-1), (dim-1, 0) is not.
        rows = self.band_form(dim)
        HermitianForm(CycloMatrix(rows), 1, (0, 1, 0), (0, dim - 1, 0))
        zeta = CyclotomicNumber.root_of_unity(rows[0][0].order)
        rows[0][dim - 1] = zeta
        assert rows[dim - 1][0] is CyclotomicNumber.zero(zeta.order)
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianForm(CycloMatrix(rows), 1, (0, 1, 0), (0, dim - 1, 0))

    def test_rejects_one_non_real_object_at_both_places(self):
        # conj(x) != x, so x at (1, 2) and at (2, 1) fails, although the two
        # entries are one object.
        rows = self.band_form(4)
        x = rows[1][2]
        assert x.conjugate() != x
        rows[2][1] = x
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianForm(CycloMatrix(rows), 1, (0, 1, 0), (0, 3, 0))

    def test_fresh_zeros_are_tested_like_shared_ones(self):
        # A zero that is not the field's shared instance is conjugated and
        # compared, and passes against a zero.
        zero = CyclotomicNumber.zero(5)
        fresh = CyclotomicNumber(5, [0, 0, 0, 0])
        assert fresh is not zero
        rows = [[CyclotomicNumber.one(5), fresh], [zero, -CyclotomicNumber.one(5)]]
        HermitianForm(CycloMatrix(rows), 1, (1, 0, 0), (0, 1, 0))
        rows[1][0] = CyclotomicNumber.root_of_unity(5)
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianForm(CycloMatrix(rows), 1, (1, 0, 0), (0, 1, 0))


def test_import_leaves_numpy_unloaded():
    src = Path(burau_lab.__file__).resolve().parent.parent
    code = "import sys, burau_lab; sys.exit('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)})
    assert done.returncode == 0
