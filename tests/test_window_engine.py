"""The prefix-sum window engine against the direct per-separation formula.

`conftest.direct_breakdown` rebuilds the radius-t window for every
separation and sums each overlap term; the engine reads the same quantities
from one table of prefix sums.  The two must agree to a few roundings, the
engine must report an exact zero wherever the direct formula does, and the
design scan must choose what a size-by-size scan over the direct formula
chooses.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_breakdown, direct_design, direct_worst_case
from sparseldp import (
    Kernel,
    TruncatedParams,
    distortion_moments,
    laplace_clean_bound,
    mechanisms,
    min_feasible_support,
    separation_breakdown,
    sweep_param,
    sweep_support,
    window_weights,
    worst_case_defect,
)
from sparseldp.privacy import _WindowTable

AGREE = 2e-15
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

laplace = st.floats(0.005, 3.0).map(Kernel.laplace)
gaussian = st.floats(0.3, 60.0).map(Kernel.gaussian)
kernels = st.one_of(laplace, gaussian)
epsilons = st.floats(0.0, 5.0)
# (lam, eps) with lam * n = eps in decimal for a small integer n: float ties
LAPLACE_TIES = [(0.05, 0.3), (1 / 3, 1.0), (0.1, 0.3), (0.2, 0.6), (0.25, 0.5), (0.3, 0.9), (0.7, 2.1), (0.01, 0.03)]
# (sigma, eps) with m / (2 sigma^2) = eps for a small integer m
GAUSSIAN_TIES = [(1.0, 0.5), (2.0, 0.125), (1 / 3, 4.5), (3.0, 1 / 9), (0.5, 2.0), (1.5, 2 / 9)]
ties = st.one_of(
    st.sampled_from(LAPLACE_TIES).map(lambda p: (Kernel.laplace(p[0]), p[1])),
    st.sampled_from(GAUSSIAN_TIES).map(lambda p: (Kernel.gaussian(p[0]), p[1])),
)


def assert_agrees(kernel, eps, t, h):
    engine = separation_breakdown(kernel, eps, t, h)
    leakage, excess = direct_breakdown(kernel, eps, t, h)
    assert abs(engine.total - (leakage + excess)) <= AGREE
    assert abs(engine.support_leakage - leakage) <= AGREE
    assert abs(engine.overlap_excess - excess) <= AGREE
    if excess == 0.0:
        assert engine.overlap_excess == 0.0
    if leakage + excess == 0.0:
        assert engine.total == 0.0


@st.composite
def window_cases(draw, radii=st.integers(0, 2000)):
    t = draw(radii)
    return t, draw(st.integers(0, 2 * t + 2))


class TestTable:
    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.3), Kernel.gaussian(7.0), Kernel.laplace(2.5)])
    def test_weights_are_the_window_weights(self, kernel):
        for t in (0, 1, 7, 300):
            assert np.array_equal(_WindowTable(kernel, t).weights, window_weights(kernel, t)[t:])

    def test_prefix_is_the_tail_first_window_mass(self):
        kernel, t = Kernel.laplace(0.4), 6
        w = window_weights(kernel, t)
        prefix = _WindowTable(kernel, t).prefix
        assert prefix[0] == 0.0 and len(prefix) == 2 * t + 2
        for m in range(2 * t + 2):
            assert prefix[m] == pytest.approx(math.fsum(w[:m]), rel=2**-52)


class TestAgainstDirectFormula:
    @SETTINGS
    @given(kernels, epsilons, window_cases())
    def test_breakdown(self, kernel, eps, case):
        assert_agrees(kernel, eps, *case)

    @SETTINGS
    @given(ties, window_cases(st.integers(0, 60)))
    def test_breakdown_at_ties(self, tie, case):
        assert_agrees(*tie, *case)

    @pytest.mark.parametrize("tie", LAPLACE_TIES[:4] + GAUSSIAN_TIES[:3])
    def test_every_small_window_at_ties(self, tie):
        # one rounding decides whether a tie term looks positive; the engine
        # must not turn the direct formula's exact zeros into rounding dust
        kernel = Kernel.laplace(tie[0]) if tie in LAPLACE_TIES else Kernel.gaussian(tie[0])
        for t in range(31):
            for h in range(2 * t + 2):
                assert_agrees(kernel, tie[1], t, h)

    @pytest.mark.parametrize("lam, eps", [(800.0, 720.0), (800.0, 740.0), (400.0, 730.0), (1.0, 1e308)])
    def test_epsilon_past_the_range_of_exp(self, lam, eps):
        # e^eps overflows; the shifted tail is then formed in log domain
        for t, h in ((2, 1), (3, 1), (3, 2), (5, 3)):
            assert_agrees(Kernel.laplace(lam), eps, t, h)

    def test_roadmap_trap_case_is_exactly_zero(self):
        # 0.05 * 6 rounds above 0.3; the term is a tie, not an excess
        assert direct_breakdown(Kernel.laplace(0.05), 0.3, 8, 10)[1] == 0.0
        assert separation_breakdown(Kernel.laplace(0.05), 0.3, 8, 10).overlap_excess == 0.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(kernels, epsilons, st.integers(0, 2000), st.integers(0, 200))
    def test_worst_case(self, kernel, eps, t, privacy_range):
        s = 2 * t + 1
        delta_star, argmax_h = worst_case_defect(kernel, s, eps, privacy_range)
        direct, _ = direct_worst_case(kernel, s, eps, privacy_range)
        assert abs(delta_star - direct) <= AGREE
        if argmax_h:
            assert separation_breakdown(kernel, eps, t, argmax_h).total == delta_star
            assert abs(sum(direct_breakdown(kernel, eps, t, argmax_h)) - direct) <= AGREE
        else:
            assert delta_star == 0.0

    def test_worst_case_at_the_largest_size(self):
        kernel = Kernel.gaussian(2.0)
        t, hs = 2000, (1, 2, 5, 33, 34, 500, 1999, 2000)
        delta_star, _ = worst_case_defect(kernel, 2 * t + 1, 1.0, 2000)
        for h in hs:
            assert_agrees(kernel, 1.0, t, h)
            assert separation_breakdown(kernel, 1.0, t, h).total <= delta_star

    @SETTINGS
    @given(st.floats(0.01, 2.0), st.integers(1, 40), st.integers(0, 60))
    def test_clean_regime_is_exactly_zero(self, lam, privacy_range, extra):
        # eps = lam * range in floats: the clean-regime test holds with equality
        eps = lam * privacy_range
        t = privacy_range + extra
        assert laplace_clean_bound(eps, lam, 2 * t + 1, privacy_range).applicable
        hs = np.arange(privacy_range + 1)
        _, excess = _WindowTable(Kernel.laplace(lam), t).breakdown(t, hs, eps)
        assert not excess.any()


class TestErrorBound:
    @SETTINGS
    @given(kernels, epsilons, window_cases(st.integers(0, 500)), st.integers(0, 1500))
    def test_covers_a_radius_t_table(self, kernel, eps, case, extra):
        t, h = case
        big = _WindowTable(kernel, t + extra).breakdown(t, h, eps, error_bound=True)
        own = _WindowTable(kernel, t).breakdown(t, h, eps)
        assert abs((big[0] + big[1]) - (own[0] + own[1])) <= big[2]
        assert big[2] <= 1e-12

    @SETTINGS
    @given(kernels, epsilons, window_cases(st.integers(0, 500)), st.integers(0, 1500))
    def test_cap_covers_every_separation_of_its_radius(self, kernel, eps, case, extra):
        t, _ = case
        table = _WindowTable(kernel, t + extra)
        bound = table.breakdown(t, np.arange(2 * t + 3), eps, error_bound=True)[2]
        assert table.error_cap(t, eps) >= bound.max()
        assert table.error_cap(t, 709.0) == table.error_cap(t, 1e308) == math.inf


class TestDesignScan:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kernels,
        st.floats(0.0, 3.0),
        st.floats(-12.0, 0.0).map(lambda x: 10.0**x),
        st.integers(0, 6),
        st.integers(0, 60),
    )
    def test_matches_a_sequential_scan(self, kernel, eps, delta, privacy_range, half_limit):
        s_max = 2 * half_limit + 1
        res = min_feasible_support(kernel, eps, delta, privacy_range, s_max)
        s, scanned = direct_design(kernel, eps, delta, privacy_range, s_max)
        assert (res.s_chosen, res.s_scanned_max) == (s, scanned)
        if s is not None:
            assert res.achieved_delta_star == worst_case_defect(kernel, s, eps, privacy_range)[0]

    def test_one_size_per_block_past_the_block_width(self):
        kernel, eps, privacy_range = Kernel.laplace(0.002), 0.5, 1030
        s_max = privacy_range + 9
        direct = [direct_worst_case(kernel, s, eps, privacy_range)[0] for s in range(privacy_range + 1, s_max + 1, 2)]
        delta = direct[-2] * (1 + 1e-9)
        res = min_feasible_support(kernel, eps, delta, privacy_range, s_max)
        assert res.s_chosen == direct_design(kernel, eps, delta, privacy_range, s_max)[0]

    def test_huge_scan_limit_builds_only_what_it_reads(self):
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3, s_max=2 * 10**12 + 1)
        assert res.s_chosen == 7

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernels, epsilons, st.integers(0, 2000), st.integers(0, 200))
    def test_design_reads_its_confirming_table(self, kernel, eps, t, privacy_range):
        # s = 2t + 1 meets the target, so the scan confirms a size at most s
        s, privacy_range = 2 * t + 1, min(privacy_range, 2 * t)
        delta = max(worst_case_defect(kernel, s, eps, privacy_range)[0], 2.0**-1000)
        res = min_feasible_support(kernel, eps, delta, privacy_range, s_max=s)
        assert res.feasible and res.s_chosen <= s
        assert res.achieved_delta_star == worst_case_defect(kernel, res.s_chosen, eps, privacy_range)[0]
        assert res.moments == distortion_moments(TruncatedParams(kernel, res.s_chosen))

    def test_infeasible_reports_the_scan_limit(self):
        res = min_feasible_support(Kernel.gaussian(20.0), 1.0, 1e-3, 20)
        assert not res.feasible and res.s_scanned_max == 3281
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 8, s_max=5)
        assert not res.feasible and res.s_scanned_max == 0


def test_each_answered_size_builds_one_table(monkeypatch):
    built, weights_calls = [], []
    init = _WindowTable.__init__

    def counting_init(self, kernel, t_max):
        built.append(t_max)
        init(self, kernel, t_max)

    def counting_weights(*args):
        weights_calls.append(args)
        return window_weights(*args)

    monkeypatch.setattr(_WindowTable, "__init__", counting_init)
    monkeypatch.setattr(mechanisms, "window_weights", counting_weights)
    sweep_support(Kernel.gaussian(3.0), 1.0, 5, [11, 21, 41])
    assert built == [5, 10, 20]
    sweep_param("laplace", [0.2, 0.5], 1.0, 3, 21)
    assert built[3:] == [10, 10]
    built.clear()
    res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3)
    assert res.s_chosen == 7  # in the first block: one scan table, one confirming table
    assert len(built) <= 2 and built[-1] == 3
    assert weights_calls == []


def _leakage_50_digits(kernel, t, h):
    mpmath.mp.dps = 50
    p = mpmath.mpf(kernel.param)
    if kernel.family == "laplace":
        weight = lambda d: mpmath.exp(-p * d)  # noqa: E731
    else:
        weight = lambda d: mpmath.exp(-mpmath.mpf(d) ** 2 / (2 * p * p))  # noqa: E731
    c = 1 + 2 * mpmath.fsum(weight(d) for d in range(1, t + 1))
    return mpmath.fsum(weight(d) for d in range(t - h + 1, t + 1)) / c


@pytest.mark.parametrize(
    "kernel, eps, privacy_range",
    [
        (Kernel.laplace(0.05), 1.0, 10),
        (Kernel.laplace(0.2), 1.0, 4),
        (Kernel.laplace(0.5), 2.0, 3),
        (Kernel.gaussian(2.0), 20.0, 2),
        (Kernel.gaussian(5.0), 20.0, 3),
        (Kernel.gaussian(20.0), 30.0, 4),
    ],
)
@pytest.mark.parametrize("delta", [1e-12, 3e-12, 1e-11])
def test_design_sized_leakage_is_as_accurate_as_the_direct_route(kernel, eps, privacy_range, delta):
    # both routes read the same float weights, whose rounding sets the floor;
    # the engine may differ from the direct sum by a few roundings at most
    res = min_feasible_support(kernel, eps, delta, privacy_range)
    t = (res.s_chosen - 1) // 2
    exact = _leakage_50_digits(kernel, t, privacy_range)
    assert exact < 1e-10
    engine = separation_breakdown(kernel, eps, t, privacy_range).support_leakage
    direct = direct_breakdown(kernel, eps, t, privacy_range)[0]
    engine_err = float(abs(engine - exact) / exact)
    direct_err = float(abs(direct - exact) / exact)
    assert engine_err <= max(direct_err, 8 * 2.0**-53)
