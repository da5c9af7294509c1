"""Acceptance suite: every release-gating check, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings. All assertions are exact (integer, rational, or
cyclotomic arithmetic), the Hermitian signature certificate included.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from burau_lab.burau import (
    affine_extension,
    burau_generator,
    burau_of_word,
    crossed_v,
    ev_map,
    projectively_equal,
    specialized_burau,
)
from burau_lab.cli import KERNEL_TABLE_FIXTURE
from burau_lab.cyclotomic import INFINITE, minus_q_from_d, multiplicative_order
from burau_lab.laurent import LaurentPoly
from burau_lab.moduli import (
    Inconclusive,
    KernelDescriptor,
    b3_kernel,
    curvatures_from_nd,
    kernel_descriptor,
)
from burau_lab.monodromy import (
    invariant_hermitian_form,
    rho_generators,
    rho_product,
    signature,
)
from burau_lab.words import parse_word, random_word, sample_normal_closure


@contextmanager
def criterion(name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_kernel_table_reproduction():
    # All 19 built-in rows reproduced exactly, zero tolerance.
    with criterion("1 kernel-table reproduction"):
        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            got = kernel_descriptor(n, d)
            assert isinstance(got, KernelDescriptor), (n, d)
            got_j = None if got.j == INFINITE else got.j
            assert (got_j, got.l) == (j, l), (n, d, got_j, got.l)


def test_criterion_2_order_formula_consistency():
    # 2d/gcd(2d, (d+2)n) equals the independently computed multiplicative
    # order of (-q)^n; finite j equals the order of (-q)^(n-1).
    with criterion("2 order-formula consistency"):
        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            formula = 2 * d // math.gcd(2 * d, (d + 2) * n)
            assert formula == multiplicative_order(mq**n) == l, (n, d)
            if j is not None:
                assert j == multiplicative_order(mq ** (n - 1)), (n, d)


def test_criterion_3_normal_closure_containment():
    # 50 seeded normal-closure samples per row (conjugator length <= 20)
    # specialize to exactly the identity matrix.
    with criterion("3 normal-closure containment"):
        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            gens = [parse_word(f"s1^{d}", n), parse_word(f"T{n}^{l}", n)]
            if j is not None:
                gens.insert(1, parse_word(f"T{n - 1}^{j}", n))
            for seed in range(50):
                word = sample_normal_closure(
                    n, gens, num_factors=2, max_conj_len=20, seed=seed
                )
                assert specialized_burau(word, mq).is_identity, (n, d, seed)


def test_criterion_4_minimal_powers():
    # No smaller power of the central twist or of the sub-twist already
    # lands in the kernel.
    with criterion("4 power minimality"):
        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            for k in range(1, l):
                assert not specialized_burau(parse_word(f"T{n}^{k}", n), mq).is_identity, (n, d, k)
            if j is not None:
                for k in range(1, j):
                    assert not specialized_burau(
                        parse_word(f"T{n - 1}^{k}", n), mq
                    ).is_identity, (n, d, k)


def test_criterion_5_three_strand_closed_form():
    # For d = 7..60 the closed form 2d/gcd(12, d+6) equals the computed
    # order of (-q)^3, and the twist stratum is absent: the last two
    # curvature fractions sum past 1, as exact rationals.
    with criterion("5 three-strand closed form"):
        for d in range(7, 61):
            mq = minus_q_from_d(d)
            formula = 2 * d // math.gcd(12, d + 6)
            assert formula == multiplicative_order(mq**3), d
            descriptor = b3_kernel(d)
            assert descriptor.l == formula and descriptor.j == INFINITE, d
            fractions = curvatures_from_nd(3, d).fractions
            assert fractions[2] + fractions[3] > 1, d


def test_criterion_6_commutative_diagram():
    # 100 seeded random words per row, at both m = n+1 and m = n+2:
    # evaluation of the Burau image agrees projectively with the product
    # of monodromy generators, in exact cyclotomic arithmetic.
    with criterion("6 commutative diagram"):
        for n, d, _, _ in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            for m in (n + 1, n + 2):
                rng = random.Random(1000 * n + 10 * d + m)
                for _ in range(100):
                    word = random_word(n, 14, rng)
                    evaluated = ev_map(burau_of_word(word), mq, m)
                    product = rho_product(word, m, mq)
                    assert projectively_equal(evaluated.matrix, product), (n, d, m)


def test_criterion_7_hermitian_signature():
    # At m = n+1 an invariant Hermitian form exists for every row, checked
    # exactly (unitarity residual 0), with certified signature (1, n-2).
    with criterion("7 Hermitian signature"):
        for n, d, _, _ in KERNEL_TABLE_FIXTURE:
            gens = rho_generators(n, n + 1, minus_q_from_d(d))
            result = invariant_hermitian_form(gens)
            assert result.unitarity_residual == 0, (n, d)
            assert signature(result.chosen) == (1, n - 2, 0), (n, d)


def test_criterion_8_negative_control():
    # The 12-point equal-curvature configuration fails the orbifold
    # condition: the twist stratum angle is exactly 2/3 of a full turn.
    with criterion("8 negative control"):
        outcome = kernel_descriptor(11, 3)
        assert isinstance(outcome, Inconclusive)
        angles = {s.angle_fraction for s in outcome.failing_strata}
        assert angles == {Fraction(2, 3)}


def test_criterion_9_algebraic_property_suite():
    # Braid relations for the Laurent generators (n <= 10) and the
    # monodromy generators; crossed-homomorphism law and affine
    # multiplicativity on 200 random word pairs; the affine extension of
    # each generator image equals the image one strand count higher.
    with criterion("9 algebraic properties"):
        for n in range(3, 11):
            for i in range(1, n - 1):
                a = burau_generator(n, i).matrix
                b = burau_generator(n, i + 1).matrix
                assert a * b * a == b * a * b, (n, i)
            for i in range(1, n):
                for k in range(i + 2, n):
                    a = burau_generator(n, i).matrix
                    b = burau_generator(n, k).matrix
                    assert a * b == b * a, (n, i, k)

        for n, d, _, _ in KERNEL_TABLE_FIXTURE:
            mq = minus_q_from_d(d)
            for m in (n + 1, n + 2):
                mats = rho_generators(n, m, mq).mats
                for i in range(len(mats) - 1):
                    assert mats[i] * mats[i + 1] * mats[i] == mats[i + 1] * mats[i] * mats[i + 1]
                for i in range(len(mats)):
                    for k in range(i + 2, len(mats)):
                        assert mats[i] * mats[k] == mats[k] * mats[i]

        rng = random.Random(2024)
        zero = LaurentPoly.zero()
        for _ in range(200):
            n = rng.randint(3, 8)
            a = burau_of_word(random_word(n, 8, rng))
            b = burau_of_word(random_word(n, 8, rng))
            va, vb, vab = crossed_v(a), crossed_v(b), crossed_v(a * b)
            for i in range(n - 1):
                rhs = va[i] + sum(
                    (a.matrix.entry(i, j) * vb[j] for j in range(n - 1)), zero
                )
                assert vab[i] == rhs
            assert (
                affine_extension(a * b).matrix
                == affine_extension(a).matrix * affine_extension(b).matrix
            )

        for n in range(3, 10):
            for i in range(1, n):
                assert (
                    affine_extension(burau_generator(n, i)).matrix
                    == burau_generator(n + 1, i).matrix
                )
