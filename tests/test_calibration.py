import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseldp import (
    CleanBoundReport,
    DesignResult,
    DistortionMoments,
    Kernel,
    SpecError,
    TruncatedParams,
    clean_bound,
    distortion_moments,
    feasibility_min_support,
    min_feasible_support,
    ordered_defect,
    separation_breakdown,
    sufficient_support,
    sweep_param,
    sweep_support,
    truncated_spec,
    worst_case_defect,
)
from sparseldp import calibration, privacy
from sparseldp.calibration import _laplace_clean_radius, _laplace_leakage, _laplace_moments
from sparseldp.mechanisms import _window_moments
from sparseldp.privacy import _WindowTable


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
        rep = clean_bound(Kernel.laplace(0.25), 9, 1.0, 2)
        assert rep.applicable and rep.condition_overlap and rep.condition_size
        c4 = 1.0 + 2.0 * sum(math.exp(-0.25 * j) for j in range(1, 5))
        expected = (math.exp(-0.75) + math.exp(-1.0)) / c4
        assert rep.exact_leakage_delta == pytest.approx(expected, abs=1e-15)
        assert rep.upper_bound == pytest.approx(2.0 * math.exp(-0.75), abs=1e-15)
        exact, _ = worst_case_defect(Kernel.laplace(0.25), 9, 1.0, 2)
        assert rep.exact_leakage_delta == pytest.approx(exact, abs=1e-12)

    def test_overlap_condition_gate(self):
        rep = clean_bound(Kernel.laplace(0.6), 9, 1.0, 2)  # lam * H = 1.2 > 1
        assert not rep.applicable and not rep.condition_overlap and rep.condition_size
        assert rep.exact_leakage_delta is None and rep.upper_bound is None

    def test_size_condition_gate(self):
        rep = clean_bound(Kernel.laplace(0.5), 3, 2.0, 2)  # s=3 < 2H+1=5
        assert not rep.applicable and rep.condition_overlap and not rep.condition_size

    def test_zero_range(self):
        rep = clean_bound(Kernel.laplace(0.5), 7, 1.0, 0)
        assert rep.applicable
        assert rep.exact_leakage_delta == 0.0
        assert rep.upper_bound == 0.0


class TestGaussianCleanBound:
    def test_worked_example(self):
        # sigma=1, eps=4, s=7 (t=3), H=2: threshold H(2t-H)/(2 sigma^2) = 4 holds with equality
        rep = clean_bound(Kernel.gaussian(1.0), 7, 4.0, 2)
        assert rep.applicable
        gamma3 = 1.0 + 2.0 * sum(math.exp(-j * j / 2.0) for j in range(1, 4))
        expected = (math.exp(-2.0) + math.exp(-4.5)) / gamma3
        assert rep.exact_leakage_delta == pytest.approx(expected, abs=1e-15)
        assert rep.upper_bound == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
        exact, _ = worst_case_defect(Kernel.gaussian(1.0), 7, 4.0, 2)
        assert rep.exact_leakage_delta == pytest.approx(exact, abs=1e-12)

    def test_below_threshold(self):
        rep = clean_bound(Kernel.gaussian(1.0), 7, 3.9, 2)
        assert not rep.applicable and not rep.condition_overlap

    def test_zero_range(self):
        rep = clean_bound(Kernel.gaussian(2.0), 7, 1.0, 0)
        assert rep.applicable
        assert rep.exact_leakage_delta == 0.0
        assert rep.upper_bound == 0.0


def around(boundary):
    """The float boundary and one float step to each side of it."""
    return (math.nextafter(boundary, -math.inf), boundary, math.nextafter(boundary, math.inf))


def no_positive_term(kernel, eps, t, privacy_range):
    """The engine's verdict: K(h) = 0 at every separation up to the range on the radius-t table."""
    return _WindowTable(kernel, t).separations(min(privacy_range, 2 * t + 1), eps)[1].size == 0  # excess where K > 0


class TestCleanBoundSoundness:
    """Inside the no-excess regime every overlap component vanishes exactly, the
    exact defect is the leakage sum, and the tail bound dominates it.  On the
    float boundary and one step to each side of it, a report applies exactly
    when the window engine finds no positive overlap term (ties count as clean)."""

    def test_laplace_grid(self):
        for lam in (0.25, 0.5, 1.0):
            for H in (1, 2, 3):
                eps = lam * H + 0.1
                for s in (2 * H + 1, 2 * H + 3, 2 * H + 9):
                    kernel = Kernel.laplace(lam)
                    rep = clean_bound(kernel, s, eps, H)
                    assert rep.applicable
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
                    kernel = Kernel.gaussian(sigma)
                    rep = clean_bound(kernel, s, eps, H)
                    assert rep.applicable
                    for h in range(H + 1):
                        assert separation_breakdown(kernel, eps, t, h).overlap_excess == 0.0
                    exact, _ = worst_case_defect(kernel, s, eps, H)
                    assert exact == pytest.approx(rep.exact_leakage_delta, abs=1e-12)
                    assert rep.upper_bound >= exact - 1e-15

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 0.1, 0.7, 1 / 3])
    def test_laplace_boundary_agrees_with_the_engine(self, lam):
        kernel = Kernel.laplace(lam)
        for H in (1, 2, 3):
            for eps in around(lam * H):
                for s in (2 * H - 1, 2 * H + 1, 2 * H + 9):
                    rep = clean_bound(kernel, s, eps, H)
                    t = (s - 1) // 2
                    assert rep.condition_overlap == no_positive_term(kernel, eps, t, H)
                    assert rep.applicable == (rep.condition_size and rep.condition_overlap)
                    if rep.applicable:
                        assert rep.exact_leakage_delta == worst_case_defect(kernel, s, eps, H)[0]
                        assert rep.upper_bound >= rep.exact_leakage_delta

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 0.7, 1.3, 3.1])
    def test_gaussian_boundary_agrees_with_the_engine(self, sigma):
        kernel = Kernel.gaussian(sigma)
        for H in (1, 2, 3):
            for s in (2 * H - 1, 2 * H + 1, 2 * H + 9):
                t = (s - 1) // 2
                for eps in around(H * (2 * t - H) / (2.0 * sigma * sigma)):
                    eps = max(eps, 0.0)  # the boundary is at or below 0 when the size condition fails
                    rep = clean_bound(kernel, s, eps, H)
                    assert rep.condition_overlap == no_positive_term(kernel, eps, t, H)
                    assert rep.applicable == (rep.condition_size and rep.condition_overlap)
                    if rep.applicable:
                        assert rep.exact_leakage_delta == worst_case_defect(kernel, s, eps, H)[0]
                        assert rep.upper_bound >= rep.exact_leakage_delta

    @pytest.mark.parametrize(
        "kernel, eps, clean",
        [
            (Kernel.gaussian(1.0), 0.1, False),  # K(1) = 1 on the radius-1 table
            (Kernel.laplace(1.0), 1.5, True),  # lam * 3 > eps, but lam * 1 is not
        ],
    )
    def test_overlap_flag_when_the_range_exceeds_the_radius(self, kernel, eps, clean):
        # s = 3 and range 3: separations up to the radius 1 decide the flag, not the range
        rep = clean_bound(kernel, 3, eps, 3)
        assert rep.condition_overlap == no_positive_term(kernel, eps, 1, 3) == clean
        assert not rep.applicable


@st.composite
def certificate_cases(draw):
    """(kernel, eps, delta, range) for either family, with eps on both sides of the edge where sizes are certified."""
    r = draw(st.integers(1, 30))
    delta = 10.0 ** draw(st.floats(-12.0, 0.0))
    factor = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    if draw(st.booleans()):
        lam = 10.0 ** draw(st.floats(-2.0, 1.0))
        return Kernel.laplace(lam), lam * r * factor, delta, r
    # the Gaussian's overlap term r (2t - r) / (2 sigma^2) at the radius the tail bound needs
    sigma = 10.0 ** draw(st.floats(-1.0, 2.0))
    t = r + sigma * math.sqrt(2.0 * math.log(r / delta))
    return Kernel.gaussian(sigma), r * (2.0 * t - r) / (2.0 * sigma * sigma) * factor, delta, r


class TestSufficientSupport:
    def test_log_free_case(self):
        assert sufficient_support(Kernel.laplace(1.0), 1.0, 1.0, 1)[0] == 3

    def test_worked_example(self):
        # eps=1, H=3, lam=eps/H: the tail formula lands between 29 and 31
        s = sufficient_support(Kernel.laplace(1.0 / 3.0), 1.0, 0.05, 3)[0]
        assert s == 31
        delta, _ = worst_case_defect(Kernel.laplace(1.0 / 3.0), s, 1.0, 3)
        assert delta <= 0.05

    def test_nonincreasing_in_delta(self):
        sizes = [sufficient_support(Kernel.laplace(1.0 / 3.0), 1.0, d, 3)[0] for d in (0.05, 0.1, 0.2)]
        assert sizes == sorted(sizes, reverse=True)

    def test_returned_size_always_meets_target(self):
        for lam, H in ((0.25, 2), (0.5, 2), (0.25, 4)):
            for delta in (0.02, 0.1, 0.3):
                eps = lam * H
                s = sufficient_support(Kernel.laplace(lam), eps, delta, H)[0]
                assert s % 2 == 1 and s >= 2 * H + 1
                exact, _ = worst_case_defect(Kernel.laplace(lam), s, eps, H)
                assert exact <= delta

    def test_precondition(self):
        # lam * range > eps: the overlap excess never vanishes, so the tail bound certifies no size
        assert sufficient_support(Kernel.laplace(0.6), 1.0, 0.1, 2) is None
        with pytest.raises(SpecError, match="delta"):
            sufficient_support(Kernel.laplace(0.25), 1.0, 0.0, 2)
        with pytest.raises(SpecError, match="range"):
            sufficient_support(Kernel.laplace(0.25), 1.0, 0.1, 0)

    def test_contains_known_size(self):
        window = sufficient_support(Kernel.gaussian(1.0), 4.0, 0.4, 2)
        assert window is not None
        s_lo, s_hi = window
        assert s_lo <= 7 <= s_hi
        delta, _ = worst_case_defect(Kernel.gaussian(1.0), 7, 4.0, 2)
        assert delta <= 0.4

    def test_empty_window(self):
        assert sufficient_support(Kernel.gaussian(2.0), 1.0, 0.35, 2) is None

    def test_upper_end_is_rounded_down_to_odd(self):
        # hi = 1 + 1 + 2 * 2.45 = 6.9, so the largest odd size is 5, not 7
        assert sufficient_support(Kernel.gaussian(1.0), 2.45, 0.9, 1) == (3, 5)

    def test_upper_end_stops_at_2_to_53(self):
        assert sufficient_support(Kernel.gaussian(1e7), 1e3, 0.5, 1)[1] == 2**53 - 1

    def test_log_clamp_when_delta_meets_range(self):
        window = sufficient_support(Kernel.gaussian(1.0), 10.0, 1.0, 1)
        assert window is not None
        assert window[0] == 3  # 2H+1 once the tail requirement is vacuous

    def test_every_size_in_window_meets_target(self):
        hits = 0
        for sigma in (1.0, 1.5, 2.0):
            for H in (1, 2):
                for eps in (2.0, 4.0):
                    for delta in (0.2, 0.4):
                        window = sufficient_support(Kernel.gaussian(sigma), eps, delta, H)
                        if window is None:
                            continue
                        s_lo, s_hi = window
                        assert s_lo % 2 == 1 and s_hi % 2 == 1 and s_lo <= s_hi
                        for s in range(s_lo, s_hi + 1, 2):
                            hits += 1
                            exact, _ = worst_case_defect(Kernel.gaussian(sigma), s, eps, H)
                            assert exact <= delta
        assert hits > 10  # the grid must actually exercise nonempty windows

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(certificate_cases())
    @example((Kernel.laplace(0.5), 1.0, 0.5, 2))  # lam * range = eps, the clean edge: (9, 2**53 - 1)
    @example((Kernel.laplace(1e-300), 1.0, 1e-300, 2))  # clean, but the tail size is about 1.4e303
    def test_certified_sizes_against_the_clean_report_and_the_engine(self, case):
        kernel, eps, delta, r = case
        got = sufficient_support(kernel, eps, delta, r)
        laplace = kernel.family == "laplace"
        assert (got is not None and got[1] == 2**53 - 1) == (got is not None and laplace)
        if laplace:
            clean = clean_bound(kernel, 2 * r + 1, eps, r).condition_overlap
            assert (got is None) == (not clean or calibration._tail_size(kernel, delta, r) > 2**53 - 1)
        if got is not None and got[0] <= 20001:  # the radius-t table of the low end fits
            assert clean_bound(kernel, got[0], eps, r).applicable
            assert worst_case_defect(kernel, got[0], eps, r)[0] <= delta


@pytest.mark.parametrize(
    "call, param",
    [
        (lambda p: clean_bound(Kernel.laplace(p), 9, 0.3, 3), np.float32(0.1)),
        (lambda p: clean_bound(Kernel.laplace(p), 17, 2.0999999999999996, 3), Fraction(7, 10)),
        (lambda p: clean_bound(Kernel.gaussian(p), 5, 0.8875740296090829, 1), np.float32(1.3)),
        (lambda p: clean_bound(Kernel.gaussian(p), 7, 1.0, 2), Fraction(3, 2)),
        (lambda p: sufficient_support(Kernel.laplace(p), 0.45000001788139343, 0.5488116229270158, 1), np.float32(0.3)),
        (lambda p: sufficient_support(Kernel.laplace(p), 0.7, 3.2213164481909267e-12, 1), Fraction(7, 10)),
        (
            lambda p: sufficient_support(Kernel.gaussian(p), 24.69135933288663, 0.00036781568740308813, 4),
            np.float32(0.9),
        ),
        (lambda p: sufficient_support(Kernel.gaussian(p), 4.0, 0.4, 2), Fraction(1, 1)),
    ],
    ids=["laplace bound float32", "laplace bound fraction", "gaussian bound float32", "gaussian bound fraction",
         "sufficient float32", "sufficient fraction", "window float32", "window fraction"],
)
def test_numpy_and_fraction_parameters_act_as_their_float(call, param):
    # the arithmetic runs on the validated float, not in float32 or in exact rationals
    got = call(param)
    assert got == call(float(param))
    if isinstance(got, CleanBoundReport):
        assert [type(flag) for flag in (got.applicable, got.condition_overlap, got.condition_size)] == [bool] * 3


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

    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.5), Kernel.laplace(1e-3), Kernel.gaussian(30.0)])
    @pytest.mark.parametrize("delta", [1e-6, 0.5])
    def test_range_0_builds_one_radius_0_table(self, monkeypatch, kernel, delta):
        # no separation can leak at range 0, so size 1 meets every target and is confirmed on its own table
        radii = table_radii(monkeypatch)
        res = min_feasible_support(kernel, 1.0, delta, 0)
        assert res == DesignResult(True, 1, 0.0, DistortionMoments(0.0, 0.0), 1) and radii == [0]

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
        assert res.feasible and res.s_chosen == chosen <= sufficient_support(kernel, eps, delta, H)[0]
        assert res.achieved_delta_star == worst_case_defect(kernel, res.s_chosen, eps, H)[0] <= delta
        assert worst_case_defect(kernel, res.s_chosen - 2, eps, H)[0] > delta

    def test_default_limit_reaches_the_gaussian_window(self):
        # sigma=1, eps=8, range 1, delta=1e-12: the certified window starts at 17,
        # past the old cap of 13
        kernel = Kernel.gaussian(1.0)
        s_lo, _ = sufficient_support(kernel, 8.0, 1e-12, 1)
        res = min_feasible_support(kernel, 8.0, 1e-12, 1)
        assert res.feasible and res.s_chosen == s_lo == 17
        assert res.achieved_delta_star == worst_case_defect(kernel, res.s_chosen, 8.0, 1)[0] <= 1e-12

    def test_uncertified_target_keeps_the_cap(self):
        # lam * range > eps: no certificate, so the scan still stops at 2R + 1 + 40/lam
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.1, 3)
        assert not res.feasible and res.s_scanned_max == 87

    @pytest.mark.parametrize("kernel, eps, cap", [(Kernel.gaussian(2.0), 0.1, 45), (Kernel.laplace(0.5), 1.0, 87)])
    def test_scan_limit_reads_no_tail_where_no_size_is_clean(self, kernel, eps, cap):
        # range / delta overflows, so the tail size is past float range; no size from 2R + 1 up
        # is clean, so it certifies nothing and the cap (4R + 1 + 8 sigma^2, 2R + 1 + 40 / lam) stands
        res = min_feasible_support(kernel, eps, 1e-320, 3)
        assert not res.feasible and res.s_scanned_max == cap

    def test_scan_limit_past_float_range_where_the_tail_is_clean(self):
        with pytest.raises(SpecError, match="got inf"):
            min_feasible_support(Kernel.gaussian(2.0), 10.0, 1e-320, 3)

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
        kernel = Kernel.laplace(0.5)
        assert sufficient_support(kernel, 2.0, delta, 3) == sufficient_support(kernel, 2.0, float(delta), 3)

    @pytest.mark.parametrize(
        "delta", [np.float32("nan"), np.float64("inf"), np.float32(0.0), np.float64(1.5), np.True_]
    )
    def test_numpy_bools_and_bad_delta_rejected(self, delta):
        with pytest.raises(SpecError, match="delta"):
            min_feasible_support(Kernel.laplace(0.5), 1.0, delta, 3)


def linear_scan_design(kernel, eps, delta, privacy_range):
    """First odd size from the scan's start whose `worst_case_defect` is <= delta, one size at a time."""
    s = feasibility_min_support(privacy_range)
    while worst_case_defect(kernel, s, eps, privacy_range)[0] > delta:
        s += 2
    return s


@st.composite
def clean_laplace_designs(draw):
    """(lam, eps, delta, range) with lam * range <= eps whose smallest size is at most about 1900."""
    lam = 10.0 ** draw(st.floats(-3.0, math.log10(3.2)))
    r = draw(st.integers(1, 30))
    eps = lam * r * draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    # the tail bound needs about 2 r + 2 m sizes for this delta
    m = draw(st.floats(0.0, min(900.0, 700.0 / lam)))
    return lam, eps, min(r * math.exp(-lam * m), 0.999), r


def block_reads(monkeypatch):
    """The radii of each later `_WindowTable.breakdown` call, the design scan's block read."""
    reads, breakdown = [], _WindowTable.breakdown

    def spy(self, t, hs, epsilon):
        reads.append(t.tolist())
        return breakdown(self, t, hs, epsilon)

    monkeypatch.setattr(_WindowTable, "breakdown", spy)
    return reads


def separation_reads(monkeypatch):
    """The radius of each later `_WindowTable.separations` call: one per worst case read at a single radius."""
    radii, separations = [], _WindowTable.separations

    def spy(self, top, epsilon):
        radii.append(self.t_max)
        return separations(self, top, epsilon)

    monkeypatch.setattr(_WindowTable, "separations", spy)
    return radii


def table_radii(monkeypatch):
    """The radius of each `_WindowTable` built from here on."""
    radii = []

    class Counted(_WindowTable):
        def __init__(self, kernel, t_max):
            radii.append(t_max)
            super().__init__(kernel, t_max)

    monkeypatch.setattr(calibration, "_WindowTable", Counted)
    monkeypatch.setattr(privacy, "_WindowTable", Counted)
    return radii


class TestLaplaceClosedForm:
    """The clean-regime Laplace design: closed-form size, its certificate, and the past-table answer."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(clean_laplace_designs())
    @example((0.3, 0.3, 0.041008675035958335, 1))  # delta is the float closed form at s = 11; the table's is above
    @example((0.5, 2.0, 1e-12, 3))
    def test_design_equals_the_linear_scan(self, case):
        lam, eps, delta, r = case
        kernel = Kernel.laplace(lam)
        res = min_feasible_support(kernel, eps, delta, r)
        s = linear_scan_design(kernel, eps, delta, r)
        assert res.feasible and res.s_chosen == res.s_scanned_max == s
        assert res.achieved_delta_star == worst_case_defect(kernel, s, eps, r)[0]
        assert res.moments == distortion_moments(TruncatedParams(kernel, s))
        assert s <= sufficient_support(kernel, eps, delta, r)[0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.floats(0.2, 3.0), st.floats(-12.0, -2.0))
    # lam * range rounds one step above eps; the parent scanned to 171 and reported infeasible
    @example(7, 1.7951150840438483, math.log10(8.118549048840974e-11))
    def test_design_on_the_clean_edge_equals_the_linear_scan(self, r, eps, log_delta):
        # lam = eps / range: the product lam * range can round to either side of eps
        kernel, delta = Kernel.laplace(eps / r), 10.0**log_delta
        res = min_feasible_support(kernel, eps, delta, r)
        assert res.feasible and res.s_chosen == linear_scan_design(kernel, eps, delta, r)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-4.0, math.log10(3.2)), st.integers(0, 2999), st.floats(0.0, 1.0))
    def test_leakage_within_its_bound_of_the_table(self, log_lam, t, u):
        # the bound holds while every weight is a normal float: lam * t <= 700
        lam = 10.0**log_lam
        t = min(t, math.floor(700.0 / lam))
        h = round(u * (t + 1))
        leakage, bound = _laplace_leakage(lam, t, h)
        table = _WindowTable(Kernel.laplace(lam), t).separations(h, lam * h)[0][h]
        assert abs(leakage - float(table)) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-4.0, math.log10(3.2)), st.integers(0, 2999))
    def test_moments_match_the_table(self, log_lam, t):
        # both forms round differently; 64 roundings of relative error is the stated tolerance
        lam = 10.0**log_lam
        got = _laplace_moments(lam, t)
        want = _window_moments(_WindowTable(Kernel.laplace(lam), t).ring[1:])
        assert got.r1 == pytest.approx(want.r1, rel=64 * 2.0**-53, abs=1e-300)
        assert got.r2 == pytest.approx(want.r2, rel=64 * 2.0**-53, abs=1e-300)

    def test_nearly_flat_kernel_against_50_digits(self, monkeypatch):
        # lam = 1e-14, eps = 1, delta = 1e-12, range 2: about 2e12 sizes, so no table is built
        def no_table(*args):
            raise AssertionError("a window table was built")

        monkeypatch.setattr(calibration, "_WindowTable", no_table)
        monkeypatch.setattr(privacy, "_WindowTable", no_table)
        res = min_feasible_support(Kernel.laplace(1e-14), 1.0, 1e-12, 2)
        t = 995_033_085_317
        assert res.feasible and res.s_chosen == res.s_scanned_max == 2 * t + 1

        with mpmath.workdps(50):
            r = mpmath.exp(-mpmath.mpf(1e-14))

            def leak(t):
                return r ** (t - 1) * (1 - r**2) / ((1 - r) + 2 * r * (1 - r**t))

            assert leak(t) <= mpmath.mpf(1e-12) < leak(t - 1)
            assert abs(res.achieved_delta_star - leak(t)) <= _laplace_leakage(1e-14, t, 2)[1]
            c = 1 + 2 * r * (1 - r**t) / (1 - r)
            s1 = r * (1 - (t + 1) * r**t + t * r ** (t + 1)) / (1 - r) ** 2
            s2 = r * (1 + r - (t + 1) ** 2 * r**t + (2 * t * t + 2 * t - 1) * r ** (t + 1) - t * t * r ** (t + 2))
            r1, r2 = float(2 * s1 / c), float(2 * s2 / (c * (1 - r) ** 3))
        assert res.moments.r1 == pytest.approx(r1, rel=64 * 2.0**-53)
        assert res.moments.r2 == pytest.approx(r2, rel=64 * 2.0**-53)

    def test_past_the_table_radius_against_the_tables(self):
        # radius 150,000 is past the confirming tables; the neighbouring tables must agree
        lam, r = 1e-5, 1
        t = 150_000
        assert t > calibration._CONFIRM_RADIUS
        delta = _laplace_leakage(lam, t, r)[0] * (1 + 1e-9)
        kernel = Kernel.laplace(lam)
        res = min_feasible_support(kernel, 1.0, delta, r)
        assert res.s_chosen == 2 * t + 1
        assert (
            worst_case_defect(kernel, 2 * t - 1, 1.0, r)[0] > delta >= worst_case_defect(kernel, 2 * t + 1, 1.0, r)[0]
        )
        m = distortion_moments(TruncatedParams(kernel, 2 * t + 1))
        assert res.moments.r1 == pytest.approx(m.r1, rel=1e-12) and res.moments.r2 == pytest.approx(m.r2, rel=1e-12)

    def test_past_the_table_answer_is_surely_within_delta(self):
        # delta half a bound above the closed form at radius 200,000: that size is not
        # surely within delta, so the next one is the answer
        lam, eps, r, t = 1e-4, 1.0, 2, 200_000
        leakage, bound = _laplace_leakage(lam, t, r)
        delta = leakage + bound / 2
        kernel = Kernel.laplace(lam)
        assert _laplace_clean_radius(lam, delta, r, feasibility_min_support(r), 10**7) == t
        res = min_feasible_support(kernel, eps, delta, r)
        assert res.s_chosen == res.s_scanned_max == 2 * t + 3
        leakage, bound = _laplace_leakage(lam, t + 1, r)
        assert res.achieved_delta_star == leakage and leakage + bound <= delta
        assert worst_case_defect(kernel, res.s_chosen, eps, r)[0] <= delta
        assert min_feasible_support(kernel, eps, delta, r, s_max=2 * t + 1).s_scanned_max == 2 * t + 1

    def test_delta_within_the_bound_is_located(self, monkeypatch):
        # delta one float below the closed form at radius 40: the bound certifies radius 39
        # above it but not radius 40; size 81's table puts it above delta, so size 83 is confirmed next
        lam, eps, r = 0.3, 1.0, 3
        delta = math.nextafter(_laplace_leakage(lam, 40, r)[0], 0.0)
        assert _laplace_clean_radius(lam, delta, r, feasibility_min_support(r), 10**6) == 40
        blocks = block_reads(monkeypatch)
        res = min_feasible_support(Kernel.laplace(lam), eps, delta, r)
        assert blocks == []  # no block of sizes x separations was scanned
        assert res.s_chosen == linear_scan_design(Kernel.laplace(lam), eps, delta, r)

    def test_delta_within_the_bound_past_the_table_radius(self, monkeypatch):
        # delta half a bound below the closed form at radius 10^12 - 1: that radius is not
        # certified above delta, so the closed form steps on from it, and no table is built
        def no_table(*args):
            raise AssertionError("a window table was built")

        monkeypatch.setattr(calibration, "_WindowTable", no_table)
        monkeypatch.setattr(privacy, "_WindowTable", no_table)
        kernel, eps, r, t = Kernel.laplace(1e-14), 1.0, 2, 10**12 - 1
        leakage, bound = _laplace_leakage(1e-14, t, r)
        assert _laplace_clean_radius(1e-14, leakage - bound / 2, r, feasibility_min_support(r), 10**13 + 1) == t
        res = min_feasible_support(kernel, eps, leakage - bound / 2, r)
        assert res.s_chosen == 2 * t + 3 == 2 * 10**12 + 1
        assert res == min_feasible_support(kernel, eps, leakage - 2 * bound, r)

    @pytest.mark.parametrize(
        "delta_hex, located, s, answer_hex, built",
        [
            # one float below the table's defect at the located radius: its table steps to the next radius, past
            # _CONFIRM_RADIUS, and confirms it on a table too
            ("0x1.be867a07c8cb3p-34", 0, 3, ("0x1.be7b0bd2945a4p-34", "0x1.387ddef7703f5p+13", "0x1.7d649ea7058e2p+27"),
             [0, 1]),
            # the closed form at the located radius: not surely within delta, so the closed forms step on
            ("0x1.be7b0bd2945a3p-34", 1, 5, ("0x1.be6f9de84839dp-34", "0x1.387ddf0453506p+13", "0x1.7d649f1555c70p+27"),
             []),
        ],
        ids=["located-at-the-table-radius", "located-one-past"],
    )
    def test_evaluator_is_chosen_from_the_located_radius(self, monkeypatch, delta_hex, located, s, answer_hex, built):
        # radii and sizes are counted from _CONFIRM_RADIUS = 2**17 and its size
        lam, eps, r, t = 1e-4, 1.0, 1, calibration._CONFIRM_RADIUS
        delta = float.fromhex(delta_hex)
        assert _laplace_clean_radius(lam, delta, r, feasibility_min_support(r), 10**7) == t + located
        radii = table_radii(monkeypatch)
        res = min_feasible_support(Kernel.laplace(lam), eps, delta, r)
        assert res.s_chosen == 2 * t + s and [radius - t for radius in radii] == built
        assert (res.achieved_delta_star.hex(), res.moments.r1.hex(), res.moments.r2.hex()) == answer_hex

    def test_located_designs_scan_no_block(self, monkeypatch):
        blocks, reads = block_reads(monkeypatch), separation_reads(monkeypatch)
        res = min_feasible_support(Kernel.laplace(0.01), 1.0, 1e-6, 50)
        assert res.s_chosen == 2539 and blocks == [] and reads == [1269]  # the confirming radius-t read alone

    def test_size_past_the_scan_limit_is_infeasible(self):
        res = min_feasible_support(Kernel.laplace(0.01), 1.0, 1e-6, 50, s_max=2537)
        assert not res.feasible and res.s_scanned_max == 2537 and res.moments is None
        assert min_feasible_support(Kernel.laplace(1e-14), 1.0, 1e-12, 2, s_max=10**9 + 1).s_scanned_max == 10**9 + 1

    @pytest.mark.parametrize("s_max, scanned", [(1, 0), (9, 0), (13, 13)])
    def test_scan_limit_below_the_closed_form_reach(self, s_max, scanned):
        # range 10 starts at size 11 and the closed form at radius 9; lam = 300 would
        # overflow e^(lam (range - 1 - t)) if the closed form were read below radius 7
        res = min_feasible_support(Kernel.laplace(300.0), 3000.0, 0.5, 10, s_max=s_max)
        assert res == DesignResult(False, None, None, None, scanned)


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
