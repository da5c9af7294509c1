import math
from fractions import Fraction

import pytest

from burau_lab.cyclotomic import INFINITE, InvalidD, minus_q_from_d, multiplicative_order
from burau_lab.moduli import (
    ConeStratum,
    CurvatureVector,
    Inconclusive,
    InvalidConfiguration,
    InvalidCurvatures,
    InvalidFraction,
    KernelDescriptor,
    b3_kernel,
    cone_angle,
    curvatures_from_nd,
    distinguished_labels,
    kernel_descriptor,
    orbifold_check,
)
from burau_lab.cli import KERNEL_TABLE_FIXTURE

F = Fraction


class TestConeAngle:
    def test_equal_curvature_collision(self):
        assert cone_angle(F(1, 4), F(1, 4), same_label=True) == F(1, 4)

    def test_distinct_curvature_collision(self):
        assert cone_angle(F(1, 4), F(2, 4), same_label=False) == F(1, 4)

    def test_impossible_collision(self):
        assert cone_angle(F(3, 10), F(4, 5), same_label=False) is None

    def test_borderline_sum_is_no_stratum(self):
        assert cone_angle(F(1, 2), F(1, 2), same_label=False) is None
        assert cone_angle(F(1, 2), F(1, 2), same_label=True) is None

    def test_distinct_labels_equal_values(self):
        # Distinguishable points use the full-twist formula even at equal values.
        assert cone_angle(F(1, 3), F(1, 3), same_label=False) == F(1, 3)
        assert cone_angle(F(1, 3), F(1, 3), same_label=True) == F(1, 6)

    def test_invalid_fractions(self):
        with pytest.raises(InvalidFraction):
            cone_angle(F(0), F(1, 2), same_label=False)
        with pytest.raises(InvalidFraction):
            cone_angle(F(1, 2), F(3, 2), same_label=False)
        with pytest.raises(InvalidFraction):
            cone_angle(F(1, 4), F(1, 3), same_label=True)


class TestCurvatureVector:
    def test_gauss_bonnet_enforced(self):
        with pytest.raises(InvalidCurvatures):
            CurvatureVector((F(1, 2), F(1, 2), F(1, 2)))

    def test_open_interval_enforced(self):
        with pytest.raises(InvalidCurvatures):
            CurvatureVector((F(1), F(1, 2), F(1, 2)))

    def test_valid(self):
        cv = CurvatureVector((F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
        assert len(cv) == 4


class TestOrbifoldCheck:
    def test_six_plus_one_example(self):
        cv = CurvatureVector((F(1, 4),) * 6 + (F(2, 4),))
        report = orbifold_check(cv, ["a"] * 6 + ["b"])
        assert report.is_orbifold
        assert sorted(s.orbifold_order for s in report.strata) == [4, 4]

    def test_five_plus_one_example(self):
        cv = CurvatureVector((F(3, 8),) * 5 + (F(1, 8),))
        report = orbifold_check(cv, ["a"] * 5 + ["b"])
        assert report.is_orbifold
        assert sorted(s.orbifold_order for s in report.strata) == [2, 8]
        by_pair = {s.pair: s for s in report.strata}
        assert by_pair[(0, 1)].angle_fraction == F(1, 8)
        assert by_pair[(0, 5)].angle_fraction == F(1, 2)

    def test_twelve_point_failure(self):
        cv = CurvatureVector((F(1, 6),) * 12)
        report = orbifold_check(cv, ["a"] * 11 + ["b"])
        assert not report.is_orbifold
        failing = [s for s in report.strata if s.orbifold_order is None]
        assert len(failing) == 1
        assert failing[0].angle_fraction == F(2, 3)

    def test_label_consistency_enforced(self):
        cv = CurvatureVector((F(1, 4),) * 6 + (F(2, 4),))
        with pytest.raises(InvalidCurvatures):
            orbifold_check(cv, ["a"] * 7)
        with pytest.raises(InvalidCurvatures):
            orbifold_check(cv, ["a"] * 6)

    def test_non_unit_fraction_angle_has_no_order(self):
        # All points distinguishable: every pair collides at angle 2/3,
        # which is not an integral submultiple, so no stratum gets an order.
        cv = CurvatureVector((F(1, 6),) * 12)
        report = orbifold_check(cv, [str(i) for i in range(12)])
        assert not report.is_orbifold
        assert len(report.strata) == 66
        assert all(s.angle_fraction == F(2, 3) for s in report.strata)
        assert all(s.orbifold_order is None for s in report.strata)


class TestCurvaturesFromNd:
    def test_five_strand_example(self):
        assert curvatures_from_nd(5, 8).fractions == (F(3, 8),) * 5 + (F(1, 8),)

    def test_three_strand_example(self):
        assert curvatures_from_nd(3, 7).fractions == (F(5, 14),) * 3 + (F(13, 14),)

    def test_inadmissible_configuration(self):
        # Last fraction would be 2 - 4/6 * 2 = 4/3, outside (0, 1).
        with pytest.raises(InvalidConfiguration):
            curvatures_from_nd(4, 3)
        with pytest.raises(InvalidConfiguration):
            curvatures_from_nd(2, 5)
        with pytest.raises(InvalidConfiguration):
            curvatures_from_nd(4, 2)


class TestKernelDescriptor:
    def test_table_examples(self):
        assert (kernel_descriptor(4, 12).j, kernel_descriptor(4, 12).l) == (4, 3)
        kd = kernel_descriptor(4, 6)
        assert kd.j == INFINITE and kd.l == 3
        assert (kernel_descriptor(5, 8).j, kernel_descriptor(5, 8).l) == (2, 8)
        assert (kernel_descriptor(6, 4).j, kernel_descriptor(6, 4).l) == (4, 2)

    def test_all_fixture_rows(self):
        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            kd = kernel_descriptor(n, d)
            assert isinstance(kd, KernelDescriptor), (n, d)
            got_j = None if kd.j == INFINITE else kd.j
            assert (got_j, kd.l) == (j, l), (n, d)

    def test_inconclusive_case(self):
        out = kernel_descriptor(11, 3)
        assert isinstance(out, Inconclusive)
        assert out.failing_strata[0].angle_fraction == F(2, 3)

    def test_sigma_stratum_order_is_d(self):
        # The same-label collision angle is exactly 1/d for all admissible pairs.
        for n in range(3, 12):
            for d in range(3, 20):
                try:
                    cv = curvatures_from_nd(n, d)
                except InvalidConfiguration:
                    continue
                report = orbifold_check(cv, distinguished_labels(n))
                sigma = next(s for s in report.strata if s.pair == (0, 1))
                assert sigma.angle_fraction == F(1, d)
                assert sigma.orbifold_order == d

    def test_descriptor_invariant_guard(self):
        cv = curvatures_from_nd(4, 5)
        with pytest.raises(ValueError):
            KernelDescriptor(4, 5, INFINITE, 4, cv)  # l must be 5

    def test_descriptor_rejects_j_that_is_not_a_twist_power(self):
        # j names the power T{n-1}^j, so it is INFINITE or an int >= 1;
        # 4.5 used to be truncated to T3^4 and 0 gave an empty generator.
        cv = curvatures_from_nd(4, 12)
        for j in (4.5, 4.0, 0, -4, True, "4", None, F(4)):
            with pytest.raises(ValueError, match="neither INFINITE nor an integer"):
                KernelDescriptor(4, 12, j, 3, cv)
        kd = KernelDescriptor(4, 12, 4, 3, cv)
        assert kd == kernel_descriptor(4, 12)
        assert kd.normal_generators()[1].letters == ((1, 1), (2, 1)) * 12
        assert len(kernel_descriptor(4, 5).normal_generators()) == 2

    def test_descriptor_rejects_j_that_disagrees_with_the_curvatures(self):
        # At (4, 12) the first and last points collide at angle 1/4 of 2pi,
        # so j is 4: neither another power nor INFINITE is accepted.
        cv = curvatures_from_nd(4, 12)
        for j in (7, INFINITE):
            with pytest.raises(ValueError, match="disagrees with the curvatures"):
                KernelDescriptor(4, 12, j, 3, cv)
        # At (4, 5) that stratum is absent, so only INFINITE is accepted.
        cv = curvatures_from_nd(4, 5)
        with pytest.raises(ValueError, match="disagrees with the curvatures"):
            KernelDescriptor(4, 5, 5, 5, cv)
        assert KernelDescriptor(4, 5, INFINITE, 5, cv) == kernel_descriptor(4, 5)
        # At (4, 11) the angle is 5/22 of 2pi, which no j gives.
        cv = curvatures_from_nd(4, 11)
        for j in (4, 22, INFINITE):
            with pytest.raises(ValueError, match="angle 5/22 of 2pi, not 1/j"):
                KernelDescriptor(4, 11, j, 11, cv)

    def test_normal_generator_words(self):
        # sigma^d and tau_p^k from the ring definition, not from the parser.
        def tau(p, k):
            return tuple((i, 1) for i in range(1, p)) * (p * k)

        for n, d, j, l in KERNEL_TABLE_FIXTURE:
            expected = [((1, 1),) * d] + ([] if j is None else [tau(n - 1, j)]) + [tau(n, l)]
            gens = kernel_descriptor(n, d).normal_generators()
            assert [g.letters for g in gens] == expected, (n, d)
            assert all(g.strands_n == n for g in gens), (n, d)

    def test_infinite_j_omits_sub_twist(self):
        kd = kernel_descriptor(4, 5)
        gens = kd.normal_generators()
        assert len(gens) == 2


class TestB3:
    def test_order_oracle(self):
        # Frozen from exact cyclotomic computation of ord((-q)^3).
        assert b3_kernel(7).l == 14
        assert b3_kernel(12).l == 4

    def test_hypothesis_bound(self):
        with pytest.raises(InvalidD):
            b3_kernel(6)

    def test_always_infinite_j(self):
        for d in range(7, 30):
            kd = b3_kernel(d)
            assert kd.j == INFINITE
            assert kd.strands_n == 3

    def test_matches_general_descriptor(self):
        for d in range(7, 41):
            general = kernel_descriptor(3, d)
            assert isinstance(general, KernelDescriptor)
            assert b3_kernel(d) == general, d

    def test_formula_equals_cyclotomic_order(self):
        for d in range(7, 25):
            assert b3_kernel(d).l == multiplicative_order(minus_q_from_d(d) ** 3)


class TestCrossChecksAgainstCyclotomic:
    def test_l_is_order_of_nth_power(self):
        for n, d, _, l in KERNEL_TABLE_FIXTURE:
            assert l == multiplicative_order(minus_q_from_d(d) ** n), (n, d)

    def test_finite_j_is_order_of_sub_power(self):
        for n, d, j, _ in KERNEL_TABLE_FIXTURE:
            if j is not None:
                assert j == multiplicative_order(minus_q_from_d(d) ** (n - 1)), (n, d)

    def test_l_formula(self):
        for n, d, _, l in KERNEL_TABLE_FIXTURE:
            assert l == 2 * d // math.gcd(2 * d, (d + 2) * n)
