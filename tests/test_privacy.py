import math

import numpy as np
import pytest

from sparseldp import (
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    brute_force_defect,
    exhaustive_event_defect,
    gaussian_overlap_threshold,
    ordered_defect,
    pointwise_loss,
    pure_ldp_bound,
    pure_ldp_epsilon,
    sample,
    separation_breakdown,
    separation_profile,
    truncated_spec,
    window_weights,
    worst_case_defect,
)
from conftest import random_common_support_spec, random_spec
from sparseldp.privacy import _WindowTable


def window_pair(kernel, t, h):
    """Materialized two-input window spec at separation h."""
    return truncated_spec(TruncatedParams(kernel, 2 * t + 1), [0, h])


class TestPointwiseLoss:
    def test_identical_inputs(self):
        spec = window_pair(Kernel.laplace(0.5), 2, 2)
        assert pointwise_loss(spec, 0, 0, 1) == 0.0

    def test_laplace_normalizers_cancel(self):
        # inputs 0 and 2 share the window normalizer, so only the distance gap remains
        spec = window_pair(Kernel.laplace(0.5), 2, 2)
        assert pointwise_loss(spec, 0, 2, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_gaussian_quadratic_gap(self):
        spec = window_pair(Kernel.gaussian(1.0), 2, 2)
        assert pointwise_loss(spec, 0, 2, 0) == pytest.approx(2.0, abs=1e-12)

    def test_equals_log_pmf_ratio(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 40:
            spec = random_spec(rng)
            for x in spec.inputs:
                for xp in spec.inputs:
                    overlap = [y for y in spec.support(x) if y in spec.support(xp)]
                    for y in overlap[:2]:
                        expected = math.log(spec.pmf(x)[y] / spec.pmf(xp)[y])
                        assert pointwise_loss(spec, x, xp, y) == pytest.approx(expected, abs=1e-12)
                        checked += 1

    def test_outside_overlap_rejected(self):
        spec = window_pair(Kernel.laplace(0.5), 1, 2)
        with pytest.raises(SpecError, match="overlap"):
            pointwise_loss(spec, 0, 2, -1)


class TestPureLdp:
    def test_support_mismatch_is_infinite(self):
        spec = window_pair(Kernel.laplace(0.5), 1, 1)
        res = pure_ldp_epsilon(spec)
        assert not res.finite
        assert res.epsilon_star is None
        x, xp, y = res.witness
        assert y in spec.support(x) and y not in spec.support(xp)

    def test_single_input(self):
        spec = truncated_spec(TruncatedParams(Kernel.gaussian(1.0), 5), [0])
        res = pure_ldp_epsilon(spec)
        assert res.finite and res.epsilon_star == 0.0 and res.witness is None

    def test_two_point_common_support_laplace(self):
        for lam in (0.3, 0.5, 1.2):
            spec = MechanismSpec(Kernel.laplace(lam), (0, 1), (0, 1), {0: (0, 1), 1: (0, 1)})
            res = pure_ldp_epsilon(spec)
            assert res.finite
            assert res.epsilon_star == pytest.approx(lam, abs=1e-12)

    def test_witness_attains_the_level(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            spec = random_common_support_spec(rng)
            res = pure_ldp_epsilon(spec)
            assert res.finite
            assert res.epsilon_star >= 0.0
            if res.witness is not None:
                x, xp, y = res.witness
                assert pointwise_loss(spec, x, xp, y) == pytest.approx(res.epsilon_star, abs=1e-12)

    def test_matches_pmf_ratio_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            spec = random_common_support_spec(rng)
            res = pure_ldp_epsilon(spec)
            best = 0.0
            for x in spec.inputs:
                for xp in spec.inputs:
                    if x == xp:
                        continue
                    for y in spec.support(x):
                        best = max(best, math.log(spec.pmf(x)[y] / spec.pmf(xp)[y]))
            assert res.epsilon_star == pytest.approx(best, abs=1e-12)


class TestPureLdpBound:
    def test_reduces_to_lam_times_diameter(self):
        assert pure_ldp_bound(0.5, 2.0) == 1.0

    def test_zero_diameter(self):
        assert pure_ldp_bound(0.5, 0.0, 0.25) == 0.25

    def test_negative_diameter_rejected(self):
        with pytest.raises(SpecError):
            pure_ldp_bound(0.5, -1.0)

    def test_dominates_exact_level_on_common_support(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            spec = random_common_support_spec(rng)
            if spec.kernel.family != "laplace":
                continue
            res = pure_ldp_epsilon(spec)
            diameter = max(abs(a - b) for a in spec.inputs for b in spec.inputs)
            max_log_ratio = max(
                math.log(spec.normalizer(xp) / spec.normalizer(x))
                for x in spec.inputs
                for xp in spec.inputs
            )
            bound = pure_ldp_bound(spec.kernel.param, diameter, max_log_ratio)
            assert bound >= res.epsilon_star - 1e-12


class TestOrderedDefect:
    def test_disjoint_supports_leak_everything(self):
        spec = window_pair(Kernel.laplace(0.5), 1, 5)
        b = ordered_defect(spec, 0, 5, 0.7)
        assert b.support_leakage == pytest.approx(1.0, abs=1e-12)
        assert b.overlap_excess == 0.0
        assert b.total == pytest.approx(1.0, abs=1e-12)

    def test_zero_above_pure_level(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            spec = random_common_support_spec(rng)
            res = pure_ldp_epsilon(spec)
            eps = res.epsilon_star * (1.0 + 1e-6) + 1e-9
            for x in spec.inputs:
                for xp in spec.inputs:
                    b = ordered_defect(spec, x, xp, eps)
                    assert b.support_leakage == 0.0
                    assert b.overlap_excess == 0.0
            # at the level itself only float dust may remain
            at_level = max(
                ordered_defect(spec, x, xp, res.epsilon_star).total
                for x in spec.inputs
                for xp in spec.inputs
            )
            assert at_level <= 1e-12

    def test_positive_below_pure_level(self):
        rng = np.random.default_rng(10)
        seen = 0
        while seen < 20:
            spec = random_common_support_spec(rng)
            res = pure_ldp_epsilon(spec)
            if res.epsilon_star < 1e-3:
                continue
            seen += 1
            eps = res.epsilon_star * 0.99
            worst = max(
                ordered_defect(spec, x, xp, eps).total
                for x in spec.inputs
                for xp in spec.inputs
            )
            assert worst > 0.0

    def test_total_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            spec = random_spec(rng)
            eps = float(rng.uniform(0.0, 3.0))
            x, xp = rng.choice(spec.inputs, size=2, replace=False)
            total = ordered_defect(spec, int(x), int(xp), eps).total
            brute = brute_force_defect(spec.pmf_vector(int(x)), spec.pmf_vector(int(xp)), eps)
            assert total == pytest.approx(brute, abs=1e-12)

    def test_defect_in_unit_interval_and_monotone_in_epsilon(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            spec = random_spec(rng)
            x, xp = rng.choice(spec.inputs, size=2, replace=False)
            values = [ordered_defect(spec, int(x), int(xp), e).total for e in (0.0, 0.5, 1.0, 2.0)]
            assert all(-1e-15 <= v <= 1.0 + 1e-12 for v in values)
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-15


class TestBruteForce:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.5, 0.25])
        assert brute_force_defect(p, p, 0.0) == 0.0

    def test_disjoint(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.3, 0.7])
        assert brute_force_defect(p, q, 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_distribution(self):
        with pytest.raises(SpecError, match="probability"):
            brute_force_defect([0.5, 0.4], [0.5, 0.5], 0.0)
        with pytest.raises(SpecError, match="probability"):
            brute_force_defect([1.2, -0.2], [0.5, 0.5], 0.0)
        with pytest.raises(SpecError, match="length"):
            brute_force_defect([1.0], [0.5, 0.5], 0.0)

    def test_exhaustive_enumeration_agrees(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            assert exhaustive_event_defect(p, q, 0.3) == pytest.approx(
                brute_force_defect(p, q, 0.3), abs=1e-12
            )

    def test_exhaustive_size_guard(self):
        p = np.full(17, 1.0 / 17)
        with pytest.raises(SpecError, match="16"):
            exhaustive_event_defect(p, p, 0.0)


class TestSeparationDefect:
    def test_laplace_two_sum_value(self):
        # t=2, h=3: leakage (e^-1 + e^-0.5 + 1)/C_2, every overlap term negative
        c2 = 1.0 + 2.0 * (math.exp(-0.5) + math.exp(-1.0))
        expected = (math.exp(-1.0) + math.exp(-0.5) + 1.0) / c2
        got = separation_breakdown(Kernel.laplace(0.5), 1.0, 2, 3).total
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.66956, abs=1e-5)

    def test_zero_separation(self):
        assert separation_breakdown(Kernel.laplace(0.5), 1.0, 4, 0).total == 0.0
        assert separation_breakdown(Kernel.gaussian(2.0), 0.0, 4, 0).total == 0.0

    def test_disjoint_is_exactly_one(self):
        assert separation_breakdown(Kernel.laplace(0.5), 1.0, 1, 3).total == 1.0
        assert separation_breakdown(Kernel.gaussian(2.0), 1.0, 1, 3).total == 1.0
        assert separation_breakdown(Kernel.gaussian(0.7), 5.0, 0, 1).total == 1.0

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.5), Kernel.gaussian(1.0)])
    def test_matches_ordered_defect_on_materialized_pair(self, kernel, eps):
        for t in range(0, 6):
            for h in range(0, 2 * t + 3):
                closed = separation_breakdown(kernel, eps, t, h)
                if h == 0:
                    assert closed.total == 0.0
                    continue
                spec = window_pair(kernel, t, h)
                general = ordered_defect(spec, 0, h, eps)
                assert closed.total == pytest.approx(general.total, abs=1e-12)
                assert closed.support_leakage == pytest.approx(general.support_leakage, abs=1e-12)
                assert closed.overlap_excess == pytest.approx(general.overlap_excess, abs=1e-12)

    def test_nonincreasing_in_epsilon(self):
        grid = np.linspace(0.0, 3.0, 13)
        for t, h in ((2, 1), (3, 2), (5, 4)):
            vals = [separation_breakdown(Kernel.gaussian(1.5), float(e), t, h).total for e in grid]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-15

    def test_input_validation(self):
        with pytest.raises(SpecError):
            separation_breakdown(Kernel.laplace(0.5), 1.0, 2, -1)
        with pytest.raises(SpecError):
            separation_breakdown(Kernel.laplace(0.5), 1.0, 2, 1.5)
        with pytest.raises(SpecError):
            separation_breakdown(Kernel.laplace(0.5), -0.1, 2, 1)
        with pytest.raises(SpecError):
            separation_breakdown(Kernel.laplace(0.5), True, 2, 1)


class TestWorstCaseDefect:
    def test_empty_range(self):
        assert worst_case_defect(Kernel.laplace(0.5), 7, 1.0, 0) == (0.0, 0)

    def test_headline_values(self):
        d_lap, h_lap = worst_case_defect(Kernel.laplace(0.5), 7, 1.0, 3)
        assert d_lap == pytest.approx(0.4686, abs=5e-5)
        assert h_lap == 3
        d_gau, _ = worst_case_defect(Kernel.gaussian(2.0), 13, 1.0, 3)
        assert d_gau == pytest.approx(0.3203, abs=5e-5)

    def test_argmax_recomputes_to_max(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            kernel = Kernel.laplace(float(rng.uniform(0.2, 1.5)))
            s = int(rng.choice([3, 5, 7, 9, 11]))
            H = int(rng.integers(1, 6))
            eps = float(rng.uniform(0.0, 2.0))
            t = (s - 1) // 2
            delta_star, argmax_h = worst_case_defect(kernel, s, eps, H)
            per_h = [separation_breakdown(kernel, eps, t, h).total for h in range(H + 1)]
            assert delta_star == max(per_h)
            assert per_h[argmax_h] == delta_star
            assert all(v < delta_star for v in per_h[:argmax_h])  # ties break small

    def test_defect_never_exceeds_one(self):
        # leakage and excess are each divided by the normalizer, then added
        assert worst_case_defect(Kernel.gaussian(2.0), 4001, 1.0, 2000)[0] == 1.0
        for sigma in (0.5, 1.0, 2.0, 3.0):
            for t in (5, 10, 50, 200):
                for eps in (0.0, 0.5, 1.0):
                    assert worst_case_defect(Kernel.gaussian(sigma), 2 * t + 1, eps, 2 * t + 1)[0] <= 1.0

    def test_non_integer_range_rejected(self):
        with pytest.raises(SpecError):
            worst_case_defect(Kernel.laplace(0.5), 7, 1.0, 2.5)

    def test_even_support_rejected(self):
        with pytest.raises(SpecError):
            worst_case_defect(Kernel.laplace(0.5), 6, 1.0, 2)

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf"), True])
    @pytest.mark.parametrize("privacy_range", [0, 3])
    def test_bad_epsilon_rejected_at_every_range(self, eps, privacy_range):
        # range 0 runs no separation, so epsilon must be checked up front
        with pytest.raises(SpecError, match="epsilon"):
            worst_case_defect(Kernel.laplace(0.5), 7, eps, privacy_range)


    @pytest.mark.parametrize("eps", [np.float32(1.0), np.float64(1.0), np.int64(1), np.int8(1)])
    def test_numpy_reals_accepted(self, eps):
        kernel = Kernel.laplace(0.5)
        assert worst_case_defect(kernel, 7, eps, 3) == worst_case_defect(kernel, 7, 1.0, 3)
        assert separation_breakdown(kernel, eps, 3, 2) == separation_breakdown(kernel, 1.0, 3, 2)

    @pytest.mark.parametrize("eps", [np.float32("nan"), np.float64("inf"), np.float32(-1.0), np.True_, "1.0"])
    def test_numpy_bools_and_bad_reals_rejected(self, eps):
        with pytest.raises(SpecError, match="epsilon"):
            worst_case_defect(Kernel.laplace(0.5), 7, eps, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: TruncatedParams(Kernel.laplace(0.5), n),
        lambda n: worst_case_defect(Kernel.laplace(0.5), 7, 1.0, n),
        lambda n: separation_breakdown(Kernel.laplace(0.5), 1.0, n, 1),
        lambda n: separation_breakdown(Kernel.laplace(0.5), 1.0, 3, n),
        lambda n: separation_profile(Kernel.laplace(0.5), 7, 1.0, n),
        lambda n: gaussian_overlap_threshold(n, 1.0, 1.0),
        lambda n: window_weights(Kernel.laplace(0.5), n),
        lambda n: sample(TruncatedParams(Kernel.laplace(0.5), 7), 0, 0, n),
    ],
)
def test_sizes_past_2_to_53_rejected(call):
    with pytest.raises(SpecError, match=r"2\*\*53"):
        call(2**64 + 1)


def test_size_2_to_53_is_accepted():
    # only the separations up to 2t + 1 are evaluated, so the huge range costs nothing
    kernel = Kernel.laplace(0.5)
    assert worst_case_defect(kernel, 7, 1.0, 2**53) == worst_case_defect(kernel, 7, 1.0, 7) == (1.0, 7)
    assert separation_breakdown(kernel, 1.0, 3, 2**53).total == 1.0


class TestGaussianOverlapThreshold:
    def test_direct_substitution(self):
        assert gaussian_overlap_threshold(2, 1.0, 1.0) == 0.5

    def test_zero_privacy(self):
        assert gaussian_overlap_threshold(2, 1.0, 0.0) == 1.0

    def test_zero_separation_rejected(self):
        with pytest.raises(SpecError):
            gaussian_overlap_threshold(0, 1.0, 1.0)

    @pytest.mark.parametrize("sigma, eps", [(1.0, -1.0), (-3.0, float("nan")), (1.0, float("nan")),
                                            (1.0, float("inf")), (0.0, 1.0), (float("nan"), 1.0), (True, 1.0),
                                            (1.0, True)])
    def test_bad_sigma_or_epsilon_rejected(self, sigma, eps):
        with pytest.raises(SpecError):
            gaussian_overlap_threshold(2, sigma, eps)

    def test_classifies_positive_overlap_terms(self):
        sigma, eps, h, t = 2.0, 1.0, 3, 3
        kappa = gaussian_overlap_threshold(h, sigma, eps)
        kernel = Kernel.gaussian(sigma)
        for k in range(h - t, t + 1):
            term = kernel.weight(abs(k)) - math.exp(eps) * kernel.weight(abs(k - h))
            assert (term > 0) == (k < kappa)

    def test_engine_counts_the_offsets_below_the_threshold(self):
        # K(h), the engine's count of positive overlap terms, is the number of
        # overlap offsets h-t..t below kappa
        for sigma in (1.0, 2.0):
            for t in (2, 3, 4):
                table = _WindowTable(Kernel.gaussian(sigma), t)
                for h in range(1, 2 * t + 1):
                    for eps in (0.25, 1.0, 2.5):
                        kappa = gaussian_overlap_threshold(h, sigma, eps)
                        below = sum(1 for k in range(h - t, t + 1) if k < kappa)
                        assert table.positive_terms(t, h, eps) == below

    def test_threshold_consistent_with_breakdown(self):
        # whenever every overlap index sits at or above the threshold, the excess is zero
        for sigma in (1.0, 2.0):
            for t in (2, 3, 4):
                for h in range(1, 2 * t + 1):
                    for eps in (0.25, 1.0, 2.5):
                        kappa = gaussian_overlap_threshold(h, sigma, eps)
                        b = separation_breakdown(Kernel.gaussian(sigma), eps, t, h)
                        if kappa <= h - t:  # no overlap index below the threshold
                            assert b.overlap_excess == 0.0
                        if kappa > h - t:
                            assert b.overlap_excess > 0.0
