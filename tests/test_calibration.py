import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseldp import (
    Kernel,
    SpecError,
    TruncatedParams,
    distortion_moments,
    feasibility_min_support,
    gaussian_clean_bound,
    gaussian_support_window,
    laplace_clean_bound,
    laplace_sufficient_support,
    min_feasible_support,
    ordered_defect,
    separation_breakdown,
    sweep_param,
    sweep_support,
    truncated_spec,
    worst_case_defect,
)


class TestFeasibilityMinSupport:
    @pytest.mark.parametrize("h_range, expected", [(0, 1), (1, 3), (2, 3), (3, 5), (4, 5), (7, 9)])
    def test_examples(self, h_range, expected):
        assert feasibility_min_support(h_range) == expected

    def test_smallest_odd_at_least_range_plus_one(self):
        for H in range(0, 30):
            s = feasibility_min_support(H)
            assert s % 2 == 1 and s >= H + 1
            assert s - 2 < H + 1  # the previous odd size is below the threshold

    def test_below_threshold_fails_completely(self):
        for H in (1, 2, 3, 5):
            s = feasibility_min_support(H)
            if s - 2 >= 1:
                delta, _ = worst_case_defect(Kernel.laplace(0.5), s - 2, 1.0, H)
                assert delta == 1.0


class TestLaplaceCleanBound:
    def test_worked_example(self):
        # lam=0.25, s=9 (t=4), H=2: conditions hold; leakage is the top-two tail
        rep = laplace_clean_bound(1.0, 0.25, 9, 2)
        assert rep.applicable and rep.condition_overlap and rep.condition_size
        c4 = 1.0 + 2.0 * sum(math.exp(-0.25 * j) for j in range(1, 5))
        expected = (math.exp(-0.75) + math.exp(-1.0)) / c4
        assert rep.exact_leakage_delta == pytest.approx(expected, abs=1e-15)
        assert rep.upper_bound == pytest.approx(2.0 * math.exp(-0.75), abs=1e-15)
        exact, _ = worst_case_defect(Kernel.laplace(0.25), 9, 1.0, 2)
        assert rep.exact_leakage_delta == pytest.approx(exact, abs=1e-12)

    def test_overlap_condition_gate(self):
        rep = laplace_clean_bound(1.0, 0.6, 9, 2)  # lam * H = 1.2 > 1
        assert not rep.applicable and not rep.condition_overlap and rep.condition_size
        assert rep.exact_leakage_delta is None and rep.upper_bound is None

    def test_size_condition_gate(self):
        rep = laplace_clean_bound(2.0, 0.5, 3, 2)  # s=3 < 2H+1=5
        assert not rep.applicable and rep.condition_overlap and not rep.condition_size

    def test_zero_range(self):
        rep = laplace_clean_bound(1.0, 0.5, 7, 0)
        assert rep.applicable
        assert rep.exact_leakage_delta == 0.0
        assert rep.upper_bound == 0.0


class TestGaussianCleanBound:
    def test_worked_example(self):
        # sigma=1, eps=4, s=7 (t=3), H=2: threshold H(2t-H)/(2 sigma^2) = 4 holds with equality
        rep = gaussian_clean_bound(4.0, 1.0, 7, 2)
        assert rep.applicable
        gamma3 = 1.0 + 2.0 * sum(math.exp(-j * j / 2.0) for j in range(1, 4))
        expected = (math.exp(-2.0) + math.exp(-4.5)) / gamma3
        assert rep.exact_leakage_delta == pytest.approx(expected, abs=1e-15)
        assert rep.upper_bound == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
        exact, _ = worst_case_defect(Kernel.gaussian(1.0), 7, 4.0, 2)
        assert rep.exact_leakage_delta == pytest.approx(exact, abs=1e-12)

    def test_below_threshold(self):
        rep = gaussian_clean_bound(3.9, 1.0, 7, 2)
        assert not rep.applicable and not rep.condition_overlap

    def test_zero_range(self):
        rep = gaussian_clean_bound(1.0, 2.0, 7, 0)
        assert rep.applicable
        assert rep.exact_leakage_delta == 0.0
        assert rep.upper_bound == 0.0


class TestCleanBoundSoundness:
    """Inside the no-excess regime (strictly, to keep float boundaries out of play):
    every overlap component vanishes exactly, the exact defect is the leakage sum,
    and the tail bound dominates it."""

    def test_laplace_grid(self):
        for lam in (0.25, 0.5, 1.0):
            for H in (1, 2, 3):
                eps = lam * H + 0.1
                for s in (2 * H + 1, 2 * H + 3, 2 * H + 9):
                    rep = laplace_clean_bound(eps, lam, s, H)
                    assert rep.applicable
                    kernel = Kernel.laplace(lam)
                    t = (s - 1) // 2
                    for h in range(H + 1):
                        assert separation_breakdown(kernel, eps, t, h).overlap_excess == 0.0
                    spec = truncated_spec(TruncatedParams(kernel, s), [0, H])
                    assert ordered_defect(spec, 0, H, eps).overlap_excess == 0.0
                    exact, _ = worst_case_defect(kernel, s, eps, H)
                    assert exact == pytest.approx(rep.exact_leakage_delta, abs=1e-12)
                    assert rep.upper_bound >= exact - 1e-15
                    assert rep.upper_bound >= rep.exact_leakage_delta

    def test_gaussian_grid(self):
        for sigma in (1.0, 2.0):
            for H in (1, 2, 3):
                for s in (2 * H + 1, 2 * H + 3, 2 * H + 9):
                    t = (s - 1) // 2
                    eps = H * (2 * t - H) / (2.0 * sigma * sigma) + 0.1
                    rep = gaussian_clean_bound(eps, sigma, s, H)
                    assert rep.applicable
                    kernel = Kernel.gaussian(sigma)
                    for h in range(H + 1):
                        assert separation_breakdown(kernel, eps, t, h).overlap_excess == 0.0
                    exact, _ = worst_case_defect(kernel, s, eps, H)
                    assert exact == pytest.approx(rep.exact_leakage_delta, abs=1e-12)
                    assert rep.upper_bound >= exact - 1e-15


class TestLaplaceSufficientSupport:
    def test_log_free_case(self):
        assert laplace_sufficient_support(1.0, 1.0, 1.0, 1) == 3

    def test_worked_example(self):
        # eps=1, H=3, lam=eps/H: the tail formula lands between 29 and 31
        s = laplace_sufficient_support(1.0, 0.05, 1.0 / 3.0, 3)
        assert s == 31
        delta, _ = worst_case_defect(Kernel.laplace(1.0 / 3.0), s, 1.0, 3)
        assert delta <= 0.05

    def test_nonincreasing_in_delta(self):
        sizes = [laplace_sufficient_support(1.0, d, 1.0 / 3.0, 3) for d in (0.05, 0.1, 0.2)]
        assert sizes == sorted(sizes, reverse=True)

    def test_returned_size_always_meets_target(self):
        for lam, H in ((0.25, 2), (0.5, 2), (0.25, 4)):
            for delta in (0.02, 0.1, 0.3):
                eps = lam * H
                s = laplace_sufficient_support(eps, delta, lam, H)
                assert s % 2 == 1 and s >= 2 * H + 1
                exact, _ = worst_case_defect(Kernel.laplace(lam), s, eps, H)
                assert exact <= delta

    def test_precondition(self):
        with pytest.raises(SpecError, match="lam"):
            laplace_sufficient_support(1.0, 0.1, 0.6, 2)
        with pytest.raises(SpecError, match="delta"):
            laplace_sufficient_support(1.0, 0.0, 0.25, 2)
        with pytest.raises(SpecError, match="range"):
            laplace_sufficient_support(1.0, 0.1, 0.25, 0)


class TestGaussianSupportWindow:
    def test_contains_known_size(self):
        window = gaussian_support_window(4.0, 0.4, 1.0, 2)
        assert window is not None
        s_lo, s_hi = window
        assert s_lo <= 7 <= s_hi
        delta, _ = worst_case_defect(Kernel.gaussian(1.0), 7, 4.0, 2)
        assert delta <= 0.4

    def test_empty_window(self):
        assert gaussian_support_window(1.0, 0.35, 2.0, 2) is None

    def test_upper_end_is_rounded_down_to_odd(self):
        # hi = 1 + 1 + 2 * 2.45 = 6.9, so the largest odd size is 5, not 7
        assert gaussian_support_window(2.45, 0.9, 1.0, 1) == (3, 5)

    def test_upper_end_stops_at_2_to_53(self):
        assert gaussian_support_window(1e3, 0.5, 1e7, 1)[1] == 2**53 - 1

    def test_log_clamp_when_delta_meets_range(self):
        window = gaussian_support_window(10.0, 1.0, 1.0, 1)
        assert window is not None
        assert window[0] == 3  # 2H+1 once the tail requirement is vacuous

    def test_every_size_in_window_meets_target(self):
        hits = 0
        for sigma in (1.0, 1.5, 2.0):
            for H in (1, 2):
                for eps in (2.0, 4.0):
                    for delta in (0.2, 0.4):
                        window = gaussian_support_window(eps, delta, sigma, H)
                        if window is None:
                            continue
                        s_lo, s_hi = window
                        assert s_lo % 2 == 1 and s_hi % 2 == 1 and s_lo <= s_hi
                        for s in range(s_lo, s_hi + 1, 2):
                            hits += 1
                            exact, _ = worst_case_defect(Kernel.gaussian(sigma), s, eps, H)
                            assert exact <= delta
        assert hits > 10  # the grid must actually exercise nonempty windows


class TestMinFeasibleSupport:
    def test_laplace_headline(self):
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3)
        assert res.feasible and res.s_chosen == 7
        assert res.achieved_delta_star == pytest.approx(0.4686, abs=5e-5)
        assert res.moments.r1 == pytest.approx(1.1851, abs=5e-5)
        assert res.moments.r2 == pytest.approx(2.4071, abs=5e-5)

    def test_gaussian_headline(self):
        res = min_feasible_support(Kernel.gaussian(2.0), 1.0, 0.65, 3)
        assert res.feasible and res.s_chosen == 5
        assert res.achieved_delta_star == pytest.approx(0.6257, abs=5e-5)

    def test_gaussian_plateau_is_infeasible(self):
        res = min_feasible_support(Kernel.gaussian(2.0), 1.0, 0.30, 3, s_max=15)
        assert not res.feasible
        assert res.s_chosen is None and res.achieved_delta_star is None and res.moments is None
        assert res.s_scanned_max == 15

    def test_trivial_target_returns_singleton(self):
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 1.0, 3)
        assert res.feasible and res.s_chosen == 1
        assert res.moments.r1 == 0.0

    def test_minimality_certified_by_rescan(self):
        for kernel, eps, delta, H in (
            (Kernel.laplace(0.5), 1.0, 0.5, 3),
            (Kernel.laplace(0.25), 0.5, 0.35, 2),
            (Kernel.gaussian(2.0), 1.0, 0.65, 3),
            (Kernel.gaussian(1.0), 4.0, 0.2, 2),
        ):
            res = min_feasible_support(kernel, eps, delta, H)
            assert res.feasible
            for s in range(1, res.s_chosen, 2):
                exact, _ = worst_case_defect(kernel, s, eps, H)
                assert exact > delta

    def test_chosen_size_minimizes_distortion_among_feasible(self):
        kernel, eps, delta, H = Kernel.laplace(0.5), 1.0, 0.5, 3
        res = min_feasible_support(kernel, eps, delta, H)
        chosen = res.moments
        for s in range(res.s_chosen, 30, 2):
            exact, _ = worst_case_defect(kernel, s, eps, H)
            if exact <= delta:
                m = distortion_moments(TruncatedParams(kernel, s))
                assert m.r1 >= chosen.r1 - 1e-15
                assert m.r2 >= chosen.r2 - 1e-15

    @pytest.mark.parametrize("delta, chosen", [(1e-10, 95), (1e-12, 113)])
    def test_default_limit_reaches_the_laplace_certificate(self, delta, chosen):
        # lam * range <= eps: the tail bound certifies a size past the old cap of 87
        kernel, eps, H = Kernel.laplace(0.5), 2.0, 3
        res = min_feasible_support(kernel, eps, delta, H)
        assert res.feasible and res.s_chosen == chosen <= laplace_sufficient_support(eps, delta, 0.5, H)
        assert res.achieved_delta_star == worst_case_defect(kernel, res.s_chosen, eps, H)[0] <= delta
        assert worst_case_defect(kernel, res.s_chosen - 2, eps, H)[0] > delta

    def test_default_limit_reaches_the_gaussian_window(self):
        # sigma=1, eps=8, range 1, delta=1e-12: the certified window starts at 17,
        # past the old cap of 13
        kernel = Kernel.gaussian(1.0)
        s_lo, _ = gaussian_support_window(8.0, 1e-12, 1.0, 1)
        res = min_feasible_support(kernel, 8.0, 1e-12, 1)
        assert res.feasible and res.s_chosen == s_lo == 17
        assert res.achieved_delta_star == worst_case_defect(kernel, res.s_chosen, 8.0, 1)[0] <= 1e-12

    def test_uncertified_target_keeps_the_cap(self):
        # lam * range > eps: no certificate, so the scan still stops at 2R + 1 + 40/lam
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.1, 3)
        assert not res.feasible and res.s_scanned_max == 87

    def test_invalid_arguments(self):
        with pytest.raises(SpecError, match="delta"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, 0.0, 3)
        with pytest.raises(SpecError, match="delta"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, 1.2, 3)
        with pytest.raises(SpecError, match="odd"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3, s_max=10)
        with pytest.raises(SpecError, match="delta"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, True, 3)
        with pytest.raises(SpecError, match="epsilon"):
            min_feasible_support(Kernel.laplace(0.5), True, True, 3)
        with pytest.raises(SpecError, match="scan limit"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3, s_max=2**64 + 1)

    @pytest.mark.parametrize("delta", [np.float32(0.5), np.float64(0.5), np.int64(1)])
    def test_numpy_real_delta_accepted(self, delta):
        got = min_feasible_support(Kernel.laplace(0.5), np.float32(1.0), delta, 3)
        assert got == min_feasible_support(Kernel.laplace(0.5), 1.0, float(delta), 3)
        assert laplace_sufficient_support(2.0, delta, 0.5, 3) == laplace_sufficient_support(2.0, float(delta), 0.5, 3)

    @pytest.mark.parametrize(
        "delta", [np.float32("nan"), np.float64("inf"), np.float32(0.0), np.float64(1.5), np.True_]
    )
    def test_numpy_bools_and_bad_delta_rejected(self, delta):
        with pytest.raises(SpecError, match="delta"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, delta, 3)


class TestSweeps:
    def test_support_sweep_spot_row(self):
        rows = sweep_support(Kernel.laplace(0.5), 1.0, 3, [13])
        assert rows[0].varied == 13.0
        assert rows[0].delta_star == pytest.approx(0.2880, abs=5e-5)
        assert rows[0].r1 == pytest.approx(1.6603, abs=5e-5)
        assert rows[0].r2 == pytest.approx(5.1386, abs=5e-5)

    def test_param_sweep_spot_row(self):
        rows = sweep_param("gaussian", [2.0], 1.0, 2, 7)
        assert rows[0].delta_star == pytest.approx(0.2012, abs=5e-5)
        assert rows[0].r1 == pytest.approx(1.3267, abs=5e-5)
        assert rows[0].r2 == pytest.approx(2.6929, abs=5e-5)

    def test_singleton_support_row(self):
        rows = sweep_support(Kernel.gaussian(1.0), 1.0, 2, [1])
        assert rows[0].delta_star == 1.0
        assert rows[0].r1 == 0.0 and rows[0].r2 == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.one_of(st.floats(0.005, 3.0).map(Kernel.laplace), st.floats(0.3, 60.0).map(Kernel.gaussian)),
        st.floats(0.0, 5.0),
        st.lists(st.integers(0, 2000), min_size=1, max_size=4),
        st.integers(0, 200),
    )
    @example(Kernel.laplace(0.4), 1.0, [1, 2, 3], 2)
    def test_rows_recompute(self, kernel, eps, radii, privacy_range):
        # each row reads one radius-t table; it must give the public calls' floats
        sizes = [2 * t + 1 for t in radii]
        rows = sweep_support(kernel, eps, privacy_range, sizes)
        rows += sweep_param(kernel.family, [kernel.param], eps, privacy_range, sizes[0])
        for row, s in zip(rows, sizes + sizes[:1]):
            exact, _ = worst_case_defect(kernel, s, eps, privacy_range)
            m = distortion_moments(TruncatedParams(kernel, s))
            assert (row.delta_star, row.r1, row.r2) == (exact, m.r1, m.r2)

    def test_even_size_rejected(self):
        with pytest.raises(SpecError, match="odd"):
            sweep_support(Kernel.laplace(0.5), 1.0, 3, [3, 4])
        with pytest.raises(SpecError, match="odd"):
            sweep_param("laplace", [0.5], 1.0, 2, 6)

    def test_generators_are_read_once(self):
        expected = sweep_support(Kernel.laplace(0.5), 1.0, 3, [7, 9])
        assert sweep_support(Kernel.laplace(0.5), 1.0, 3, (s for s in [7, 9])) == expected
        expected = sweep_param("gaussian", [1.0, 2.0], 1.0, 2, 7)
        assert sweep_param("gaussian", (p for p in [1.0, 2.0]), 1.0, 2, 7) == expected
        assert len(expected) == 2

    def test_bool_parameter_rejected(self):
        with pytest.raises(SpecError, match="kernel parameter"):
            sweep_param("laplace", [True], 1.0, 2, 7)
        with pytest.raises(SpecError, match="kernel parameter"):
            sweep_param("gaussian", [2.0, False], 1.0, 2, 7)

    def test_empty_lists_rejected(self):
        with pytest.raises(SpecError, match="at least one"):
            sweep_support(Kernel.laplace(0.5), 1.0, 3, [])
        with pytest.raises(SpecError, match="at least one"):
            sweep_param("laplace", [], 1.0, 2, 7)
