import math
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burau_lab import moduli
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
from oracles import (
    fraction_central_power,
    fraction_cone_angle,
    fraction_curvatures,
    fraction_order,
    fraction_strata,
)

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
            CurvatureVector.from_fractions((F(1, 2), F(1, 2), F(1, 2)))

    def test_open_interval_enforced(self):
        with pytest.raises(InvalidCurvatures):
            CurvatureVector.from_fractions((F(1), F(1, 2), F(1, 2)))

    def test_valid(self):
        cv = CurvatureVector.from_fractions((F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
        assert len(cv) == 4

    def test_integer_numerators_over_one_denominator_in_lowest_terms(self):
        # These sum to 2 over the lcm 12 of their denominators.
        cv = CurvatureVector.from_fractions(("1/4", "1/3", "3/4", "2/3"))
        assert (cv.numerators, cv.denominator) == ((3, 4, 9, 8), 12)
        assert cv.fractions == (F(1, 4), F(1, 3), F(3, 4), F(2, 3))
        # The same curvatures over a multiple of the denominator are the
        # same vector.
        assert CurvatureVector((6, 8, 18, 16), 24) == cv
        assert curvatures_from_nd(4, 12) == CurvatureVector.from_fractions(
            curvatures_from_nd(4, 12).fractions
        )
        assert curvatures_from_nd(3, 7).denominator == 14

    def test_error_texts(self):
        cases = {
            (F(1, 2), F(1, 2)): "need at least 3 cone points",
            (F(1, 4), F(3, 2), F(1, 4)): "curvature fraction 3/2 outside (0, 1)",
            (F(1, 4), F(1, 2), F(1, 2)): "curvature fractions sum to 5/4, not 2",
        }
        for fractions, message in cases.items():
            with pytest.raises(InvalidCurvatures, match=f"^{re.escape(message)}$"):
                CurvatureVector.from_fractions(fractions)
        with pytest.raises(InvalidCurvatures, match="^numerators and denominator must be integers$"):
            CurvatureVector((F(1, 2),) * 4, 1)
        with pytest.raises(InvalidCurvatures, match="^the denominator 0 is not positive$"):
            CurvatureVector((1, 1, 1, 1), 0)


class TestOrbifoldCheck:
    def test_six_plus_one_example(self):
        cv = CurvatureVector.from_fractions((F(1, 4),) * 6 + (F(2, 4),))
        report = orbifold_check(cv, ["a"] * 6 + ["b"])
        assert report.is_orbifold
        assert sorted(s.orbifold_order for s in report.strata) == [4, 4]

    def test_five_plus_one_example(self):
        cv = CurvatureVector.from_fractions((F(3, 8),) * 5 + (F(1, 8),))
        report = orbifold_check(cv, ["a"] * 5 + ["b"])
        assert report.is_orbifold
        assert sorted(s.orbifold_order for s in report.strata) == [2, 8]
        by_pair = {s.pair: s for s in report.strata}
        assert by_pair[(0, 1)].angle_fraction == F(1, 8)
        assert by_pair[(0, 5)].angle_fraction == F(1, 2)

    def test_twelve_point_failure(self):
        cv = CurvatureVector.from_fractions((F(1, 6),) * 12)
        report = orbifold_check(cv, ["a"] * 11 + ["b"])
        assert not report.is_orbifold
        failing = [s for s in report.strata if s.orbifold_order is None]
        assert len(failing) == 1
        assert failing[0].angle_fraction == F(2, 3)

    def test_label_consistency_enforced(self):
        cv = CurvatureVector.from_fractions((F(1, 4),) * 6 + (F(2, 4),))
        with pytest.raises(InvalidCurvatures):
            orbifold_check(cv, ["a"] * 7)
        with pytest.raises(InvalidCurvatures):
            orbifold_check(cv, ["a"] * 6)

    def test_non_unit_fraction_angle_has_no_order(self):
        # All points distinguishable: every pair collides at angle 2/3,
        # which is not an integral submultiple, so no stratum gets an order.
        cv = CurvatureVector.from_fractions((F(1, 6),) * 12)
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
        # j and l are derived, not passed, so no descriptor holds a j or l
        # that its (n, d, curvatures) do not give; l = 5.0 used to pass the
        # check and fail later in normal_generators.
        cv = curvatures_from_nd(4, 5)
        assert KernelDescriptor(4, 5, cv).l == 5
        with pytest.raises(TypeError):
            KernelDescriptor(4, 5, INFINITE, 4, cv)
        with pytest.raises(TypeError):
            KernelDescriptor(4, 5, cv, l=5.0)
        kd = KernelDescriptor(4, 5, cv)
        with pytest.raises(FrozenInstanceError):
            kd.l = 4

    def test_descriptor_derives_j_as_a_twist_power(self):
        # j names the power T{n-1}^j, so it is INFINITE or an int >= 1.
        cv = curvatures_from_nd(4, 12)
        kd = KernelDescriptor(4, 12, cv)
        assert (kd.j, kd.l) == (4, 3)
        assert kd == kernel_descriptor(4, 12)
        assert kd.normal_generators()[1].letters == ((1, 1), (2, 1)) * 12
        assert len(kernel_descriptor(4, 5).normal_generators()) == 2
        for n, d, _, _ in KERNEL_TABLE_FIXTURE:
            j = KernelDescriptor(n, d, curvatures_from_nd(n, d)).j
            assert j == INFINITE or type(j) is int and j >= 1, (n, d)

    def test_descriptor_derives_j_from_the_curvatures(self):
        # At (4, 12) the first and last points collide at angle 1/4 of 2pi.
        assert KernelDescriptor(4, 12, curvatures_from_nd(4, 12)).j == 4
        # At (4, 5) that stratum is absent, so j is INFINITE.
        kd = KernelDescriptor(4, 5, curvatures_from_nd(4, 5))
        assert kd.j == INFINITE and kd == kernel_descriptor(4, 5)
        # At (4, 11) the angle is 5/22 of 2pi, which no j gives.
        with pytest.raises(ValueError, match="angle 5/22 of 2pi, not 1/j"):
            KernelDescriptor(4, 11, curvatures_from_nd(4, 11))

    def test_curvatures_must_belong_to_n_and_d(self):
        # A descriptor used to take any curvature vector, and any d: with
        # the 4-strand sphere's curvatures, (5, 12) read j = 4 off 5 cone
        # points, and (4, -5) gave l = -5 and the generator s1^-5.
        cases = [
            (5, 12, curvatures_from_nd(4, 12), "no admissible cone sphere for n=5, d=12"),
            (4, -5, curvatures_from_nd(4, 5), "need d at least 3"),
            (4, 2, curvatures_from_nd(4, 5), "need d at least 3"),
            (4, 6, curvatures_from_nd(4, 5), "the curvatures are not those of n=4, d=6"),
            (5, 5, curvatures_from_nd(4, 5), "the curvatures are not those of n=5, d=5"),
        ]
        for n, d, cv, message in cases:
            with pytest.raises(InvalidConfiguration, match=f"^{re.escape(message)}"):
                KernelDescriptor(n, d, cv)
        cv = CurvatureVector.from_fractions(curvatures_from_nd(4, 12).fractions)
        assert KernelDescriptor(4, 12, cv) == kernel_descriptor(4, 12)

    def test_kernel_descriptor_builds_its_curvatures_once(self, monkeypatch):
        # kernel_descriptor builds the vector and then the descriptor from
        # it, with no second vector for the membership check; a descriptor
        # built by hand still makes that check.
        real = moduli.curvatures_from_nd
        built = []
        monkeypatch.setattr(
            moduli, "curvatures_from_nd", lambda n, d: built.append((n, d)) or real(n, d)
        )
        for n, d in ((10, 3), (4, 7), (4, 5), (5, 8)):
            built.clear()
            kd = kernel_descriptor(n, d)
            assert built == [(n, d)]
            assert kd == KernelDescriptor(n, d, kd.curvatures)
            assert built == [(n, d)] * 2

    @pytest.mark.parametrize(
        "n, d", [(4.0, 5), (4, 5.0), (4.5, 5), (4, F(5))], ids=["n-4.0", "d-5.0", "n-4.5", "d-fraction"]
    )
    def test_non_integer_n_or_d_is_a_typed_error(self, n, d):
        # They used to end in a bare TypeError from Fraction or range.
        name, value = ("n", n) if not isinstance(n, int) else ("d", d)
        message = f"^{name} is not an integer, got {type(value).__name__}$"
        for build in (curvatures_from_nd, kernel_descriptor):
            with pytest.raises(InvalidConfiguration, match=message):
                build(n, d)
        with pytest.raises(InvalidConfiguration, match=message):
            KernelDescriptor(n, d, curvatures_from_nd(4, 5))

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


class TestIntegerPathMatchesTheFractionOracle:
    """The integer collision rule against its Fraction formulas
    (``oracles``): every stratum, angle and order, and j and l."""

    def test_every_n_and_d_up_to_20_and_60(self):
        for n in range(3, 21):
            labels = distinguished_labels(n)
            for d in range(3, 61):
                fractions = fraction_curvatures(n, d)
                if fractions is None:
                    with pytest.raises(InvalidConfiguration):
                        curvatures_from_nd(n, d)
                    continue
                cv = curvatures_from_nd(n, d)
                assert cv.fractions == fractions, (n, d)
                strata = fraction_strata(fractions, labels)
                report = orbifold_check(cv, labels)
                got = [(s.pair, s.angle_fraction, s.orbifold_order) for s in report.strata]
                assert got == strata, (n, d)
                assert report.is_orbifold == all(order for _, _, order in strata), (n, d)
                twist = fraction_cone_angle(fractions[0], fractions[-1], same_label=False)
                if twist is None:
                    j = INFINITE
                elif fraction_order(twist) is None:
                    with pytest.raises(ValueError, match=f"angle {twist} of 2pi"):
                        moduli._twist_order(cv)
                    j = None
                else:
                    j = fraction_order(twist)
                if j is not None:
                    assert moduli._twist_order(cv) == j, (n, d)
                desc = kernel_descriptor(n, d)
                if not report.is_orbifold:
                    assert isinstance(desc, Inconclusive), (n, d)
                    continue
                assert (desc.j, desc.l) == (j, fraction_central_power(n, d)), (n, d)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 60), min_size=1, max_size=5),
        picks=st.lists(st.integers(0, 4), min_size=3, max_size=9),
    )
    def test_random_vectors_and_labels(self, weights, picks):
        # Each point takes the label and weight of one pick; the weights are
        # scaled so that the curvatures sum to 2, so points of one label
        # share their curvature.
        labels = [f"x{p % len(weights)}" for p in picks]
        total = sum(weights[p % len(weights)] for p in picks)
        fractions = tuple(F(2 * weights[p % len(weights)], total) for p in picks)
        assume(all(f < 1 for f in fractions))
        cv = CurvatureVector.from_fractions(fractions)
        assert cv.fractions == fractions
        assert cv.denominator == math.lcm(*(f.denominator for f in fractions))
        report = orbifold_check(cv, labels)
        strata = fraction_strata(fractions, labels)
        assert [(s.pair, s.angle_fraction, s.orbifold_order) for s in report.strata] == strata
        for a in fractions:
            for b in fractions:
                assert cone_angle(a, b, same_label=False) == fraction_cone_angle(a, b, False)
            assert cone_angle(a, a, same_label=True) == fraction_cone_angle(a, a, True)
