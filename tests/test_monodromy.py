import random

import numpy as np
import pytest

from burau_lab.burau import burau_generator, burau_of_word, ev_map
from burau_lab.cli import KERNEL_TABLE_FIXTURE
from burau_lab.cyclotomic import CyclotomicNumber, minus_q_from_d, specialize_matrix
from burau_lab.monodromy import (
    HermitianForm,
    InvalidDims,
    diagram_check,
    invariant_hermitian_form,
    rho_generators,
    rho_product,
    signature,
)
from burau_lab.words import BraidWord, parse_word, random_word


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

    def test_central_twist_scalar_class(self):
        mq = minus_q_from_d(7)
        w = parse_word("T4", 4)
        assert diagram_check(w, 4, 5, mq)
        evaluated = ev_map(burau_of_word(w), mq, 5)
        assert evaluated.is_identity  # class of (-q)^4 times the identity
        assert evaluated.matrix.entry(0, 0) == mq**4

    def test_product_matches_generator_matrices(self):
        mq = minus_q_from_d(8)
        gens = rho_generators(5, 7, mq)
        w = parse_word("s1 s3^-1 s2 s4", 5)
        expected = gens.mats[0] * gens.mats[2].inverse() * gens.mats[1] * gens.mats[3]
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

    def test_strand_count_mismatch(self):
        with pytest.raises(ValueError):
            diagram_check(parse_word("s1", 3), 4, 5, minus_q_from_d(5))


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
        assert result.unitarity_residual <= 1e-9

    def test_negation_flips_signature(self):
        gens = rho_generators(5, 6, minus_q_from_d(8))
        result = invariant_hermitian_form(gens)
        pos, neg, zero = signature(result.chosen)
        flipped = signature(HermitianForm(-result.chosen.matrix))
        assert (pos, neg) == (1, 3)
        assert flipped == (neg, pos, zero)

    def test_basis_reported(self):
        gens = rho_generators(4, 5, minus_q_from_d(5))
        result = invariant_hermitian_form(gens)
        assert len(result.basis) >= 1
        for h in result.basis:
            assert np.allclose(h, h.conj().T)


class TestSignature:
    def test_diagonal(self):
        form = HermitianForm(np.diag([1.0, -1.0, -1.0]).astype(complex))
        assert signature(form) == (1, 2, 0)

    def test_zero_matrix(self):
        form = HermitianForm(np.zeros((3, 3), dtype=complex))
        assert signature(form) == (0, 0, 3)

    def test_near_zero_eigenvalue_counted_as_zero(self):
        form = HermitianForm(np.diag([1.0, 1e-12, -1.0]).astype(complex))
        assert signature(form) == (1, 1, 1)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianForm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
