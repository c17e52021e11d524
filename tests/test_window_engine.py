"""The prefix-sum window engine against the direct per-separation formula.

`conftest.direct_breakdown` rebuilds the radius-t window for every
separation and sums each overlap term; the engine reads the same quantities
from one table of prefix sums.  The two must agree to a few roundings, the
engine must report an exact zero wherever the direct formula does, and the
design scan must choose what a size-by-size scan over the direct formula
chooses.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    direct_breakdown,
    direct_design,
    direct_worst_case,
    error_cap,
    per_cell_error_bound,
    tie_rule_counts,
)
from sparseldp import (
    DesignResult,
    Kernel,
    TruncatedParams,
    clean_bound,
    distortion_moments,
    mechanisms,
    min_feasible_support,
    separation_breakdown,
    separation_profile,
    sweep_param,
    sweep_support,
    window_weights,
    worst_case_defect,
)
from sparseldp.privacy import _UNTIED, _WindowTable, _least_integer_above

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
            assert np.array_equal(_WindowTable(kernel, t).ring, np.concatenate(([0.0], window_weights(kernel, t))))

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
    @given(
        st.one_of(st.floats(0.01, 2.0).map(Kernel.laplace), st.floats(0.3, 20.0).map(Kernel.gaussian)),
        st.integers(1, 40),
        st.integers(0, 60),
        st.sampled_from([-1, 0, 1]),
    )
    @example(Kernel.laplace(0.25), 3, 0, -1)
    @example(Kernel.gaussian(1.0), 2, 1, -1)
    def test_clean_regime_is_exactly_zero(self, kernel, privacy_range, extra, side):
        # eps is the float boundary lam * range or range (2t - range) / (2 sigma^2), or one float step
        # to either side of it: a tie, so the report applies and the engine counts no positive term
        t = privacy_range + extra
        if kernel.family == "laplace":
            boundary = kernel.param * privacy_range
        else:
            boundary = privacy_range * (2 * t - privacy_range) / (2.0 * kernel.param * kernel.param)
        eps = math.nextafter(boundary, side * math.inf) if side else boundary
        rep = clean_bound(kernel, 2 * t + 1, eps, privacy_range)
        _, excess, _ = _WindowTable(kernel, t).separations(privacy_range, eps)  # excess only where K > 0
        assert rep.applicable == rep.condition_size == (excess.size == 0)
        assert rep.applicable and not excess.any()


def least_positive_term_search(kernel, eps, cap):
    """`_least_integer_above` with the ratio and guess that `positive_terms` passes for this kernel."""
    param = kernel.param
    if kernel.family == "laplace":
        ratio, guess = (lambda n: param * n * _UNTIED), eps / param
    else:
        two_var = 2.0 * param * param
        ratio, guess = (lambda m: m / two_var * _UNTIED), eps * two_var
    return ratio, _least_integer_above(ratio, eps, guess, cap)


class TestLeastIntegerAbove:
    wide = st.one_of(
        st.floats(5e-324, 1e300).map(Kernel.laplace), st.floats(1e-150, 1e150).map(Kernel.gaussian)
    )

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(st.tuples(kernels, epsilons), st.tuples(wide, st.floats(0.0, 1e300)), ties),
        st.one_of(st.integers(1, 10**6), st.just(2**53), st.just(2**104)),
    )
    @example((Kernel.laplace(5e-324), 1e-310), 2**53)
    @example((Kernel.laplace(0.05), 0.3), 2**53)
    @example((Kernel.gaussian(1.0), 1e30), 2**104)  # about 2^50 integers above floor(guess), past 2^53
    def test_is_the_least_integer_above_epsilon(self, case, cap):
        # it only steps up from floor(guess): a search that should have stepped down fails here
        ratio, n = least_positive_term_search(*case, cap)
        eps = case[1]
        assert n >= 1
        if n < cap:
            assert ratio(n) > eps
        assert n == 1 or ratio(n - 1) <= eps


class TestSeparationProfile:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernels, st.one_of(epsilons, st.sampled_from([709.0, 1e308])), st.integers(0, 150), st.integers(0, 4))
    def test_every_entry_is_the_separation_breakdown(self, kernel, eps, t, past):
        leakage, excess = separation_profile(kernel, 2 * t + 1, eps, 2 * t + past)
        assert leakage.shape == excess.shape == (2 * t + past + 1,)
        for h in range(2 * t + past + 1):
            b = separation_breakdown(kernel, eps, t, h)
            assert (leakage[h].hex(), excess[h].hex()) == (b.support_leakage.hex(), b.overlap_excess.hex())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernels, epsilons, st.integers(0, 2000), st.floats(0.0, 1.0))
    def test_argmax_is_the_worst_case_argmax(self, kernel, eps, t, share):
        privacy_range = round(share * (2 * t + 1))
        leakage, excess = separation_profile(kernel, 2 * t + 1, eps, privacy_range)
        total = leakage + excess
        assert (float(total.max()), int(total.argmax())) == worst_case_defect(kernel, 2 * t + 1, eps, privacy_range)

    def test_memory_peak_of_a_long_profile(self):
        # range 10^6 on a radius-3 window: every separation past 2t + 1 is (1, 0), so the two arrays
        # returned are all the memory it needs
        privacy_range = 10**6
        tracemalloc.start()
        try:
            leakage, excess = separation_profile(Kernel.laplace(0.5), 7, 1.0, privacy_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leakage[7:].min() == 1.0 and not excess[7:].any()
        assert peak <= 2.5 * 8 * (privacy_range + 1)


@st.composite
def single_radius_reads(draw, radii=st.integers(0, 2000)):
    """(kernel, eps, t, top) with top <= 2t + 1; eps includes ties and values past 709."""
    if draw(st.booleans()):
        kernel, eps = draw(ties)
    else:
        kernel, eps = draw(kernels), draw(st.one_of(epsilons, st.sampled_from([709.0, 720.0, 1e308])))
    t = draw(radii)
    return kernel, eps, t, draw(st.integers(0, 2 * t + 1))


def block(table, t, top, eps):
    """The block read of the single radius t over separations 1..top <= 2t: (its row of totals, its bound)."""
    totals, bounds = table.breakdown(np.array([t]), np.arange(1, top + 1), eps)
    return totals[0], float(bounds[0])


class TestSingleRadiusRead:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(single_radius_reads())
    @example((Kernel.laplace(0.05), 0.3, 8, 17))  # 0.05 * 6 rounds above 0.3: a tie, no positive term
    @example((Kernel.laplace(3.0), 720.0, 300, 601))  # e^eps overflows on a nonempty K > 0 interval
    @example((Kernel.gaussian(1.0), 1.9, 2, 5))  # m = 4 = t^2: the interval is the single separation t
    @example((Kernel.laplace(0.5), 1.0, 0, 1))
    def test_equals_the_block_read_over_every_separation(self, case):
        # `separations` and the design's block read of the one radius t form the same floats; the
        # separation 2t + 1, past the block's reach, leaks everything
        kernel, eps, t, top = case
        table = _WindowTable(kernel, t)
        leakage, segment, lo = table.separations(top, eps)
        total = leakage.copy()
        total[lo : lo + segment.size] += segment
        reach = min(top, 2 * t)
        assert total[0] == 0.0 and np.array_equal(total[1 : reach + 1], block(table, t, reach, eps)[0])
        if top == 2 * t + 1:
            assert total[top] == 1.0
        assert worst_case_defect(kernel, 2 * t + 1, eps, top) == (float(total.max()), int(total.argmax()))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(single_radius_reads(st.integers(0, 300)))
    @example((Kernel.laplace(0.05), 0.3, 8, 17))
    @example((Kernel.laplace(3.0), 720.0, 300, 601))
    @example((Kernel.gaussian(1.0), 1.9, 2, 5))
    @example((Kernel.laplace(0.5), 1.0, 0, 1))
    def test_interval_is_where_the_tie_rule_counts_a_term(self, case):
        # the excess interval lo..hi must be exactly the separations where the term-by-term count is
        # nonzero, ties included, and K on it must be that count
        kernel, eps, t, top = case
        table = _WindowTable(kernel, t)
        counts = tie_rule_counts(kernel, eps, t, np.arange(top + 1))
        h, k = table.positive_terms(t, top, eps)
        assert np.array_equal(h, np.flatnonzero(counts)) and np.array_equal(k, counts[h])
        _, segment, lo = table.separations(top, eps)
        assert segment.size == h.size and (lo == h[0] if h.size else lo == 0)

    def test_memory_peak_of_a_large_worst_case(self):
        # t = 10^6: an array of 2t + 2 floats is 16 MB.  The table keeps two (ring and prefix) and its
        # build needs two more; the read adds the leakage slice (half an array) and a few temporaries on
        # the K > 0 interval.  Broadcasting over every separation instead peaked at 6.5 arrays.
        t = 10**6
        tracemalloc.start()
        try:
            assert worst_case_defect(Kernel.laplace(1e-5), 2 * t + 1, 1.0, t)[1] == t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * (2 * t + 2)


def radius_bound(table, t, top, eps):
    """The table's per-radius error bound of radius t over separations 1..top <= 2t."""
    return block(table, t, top, eps)[1]


class TestErrorBound:
    @SETTINGS
    @given(kernels, epsilons, window_cases(st.integers(0, 500)), st.integers(0, 1500))
    def test_covers_a_radius_t_table(self, kernel, eps, case, extra):
        t, top = case[0], min(case[1], 2 * case[0])
        table = _WindowTable(kernel, t + extra)
        big = block(table, t, top, eps)[0]
        own = block(_WindowTable(kernel, t), t, top, eps)[0]
        bound = radius_bound(table, t, top, eps)
        assert np.all(abs(big - own) <= bound)
        assert bound <= 1e-12

    @SETTINGS
    @given(kernels, epsilons, window_cases(st.integers(0, 500)), st.integers(0, 1500))
    # wide kernels on much larger tables: e^eps p[a + K] and e^eps p[a] both count here
    @example(Kernel.laplace(0.007382978945961141), 0.02518205850642663, (9, 0), 497)
    @example(Kernel.laplace(0.022158178309758948), 0.003945304767848934, (5, 0), 1494)
    def test_at_least_the_per_cell_bound_of_every_separation(self, kernel, eps, case, extra):
        t, _ = case
        table = _WindowTable(kernel, t + extra)
        assert radius_bound(table, t, 2 * t, eps) >= per_cell_error_bound(table, t, 2 * t, eps).max(initial=0.0)

    @SETTINGS
    @given(kernels, epsilons, window_cases(st.integers(0, 500)), st.integers(0, 1500))
    def test_at_most_the_cap_of_its_radius(self, kernel, eps, case, extra):
        t, _ = case
        table = _WindowTable(kernel, t + extra)
        assert radius_bound(table, t, 2 * t, eps) <= error_cap(table, t, eps)

    @SETTINGS
    @given(kernels, epsilons, st.integers(0, 300), st.integers(1, 40), st.integers(0, 200), st.integers(0, 1000))
    # e^eps overflows and the block's rows fall on both sides of the first radius with a positive term
    @example(Kernel.laplace(400.0), 730.0, 1, 5, 2, 3)  # bounds [2.7e-15, inf, inf, inf, inf]
    @example(Kernel.laplace(400.0), 709.0, 1, 5, 2, 3)
    @example(Kernel.gaussian(0.3), 720.0, 10, 8, 20, 2)
    @example(Kernel.gaussian(0.3), 709.0, 5, 8, 10, 2)
    def test_a_block_covers_each_radius_as_alone(self, kernel, eps, t0, rows, privacy_range, extra):
        # the design scan bounds a block of ascending radii at once, from the K of its largest radius;
        # its separations reach no window end
        privacy_range = min(privacy_range, 2 * t0)
        t, hs = np.arange(t0, t0 + rows), np.arange(1, privacy_range + 1)
        table = _WindowTable(kernel, int(t[-1]) + extra)
        totals, bounds = table.breakdown(t, hs, eps)
        assert all(b >= radius_bound(table, int(r), privacy_range, eps) for b, r in zip(bounds, t))
        # a bound is inf exactly where e^eps overflows and that radius has a positive term of its own
        own = [table.positive_terms(int(r), privacy_range, eps)[0].size > 0 for r in t]
        assert [math.isinf(b) for b in bounds] == [eps >= 709.0 and o for o in own]
        # each row is that radius read alone: its K is the largest radius's, lowered and clamped at 0
        assert all(np.array_equal(row, block(table, int(r), privacy_range, eps)[0]) for row, r in zip(totals, t))

    @pytest.mark.parametrize(
        "kernel", [Kernel.laplace(0.5), Kernel.laplace(2.0), Kernel.gaussian(0.3), Kernel.gaussian(3.0)]
    )
    @pytest.mark.parametrize("eps", [709.0, 800.0, 1e308])
    def test_past_the_range_of_exp(self, kernel, eps):
        # e^eps overflows: the bound is inf where a term is positive, and finite elsewhere
        table = _WindowTable(kernel, 400)
        for t in (1, 30, 400):
            k = table.positive_terms(t, 2 * t, eps)[1]
            bound = radius_bound(table, t, 2 * t, eps)
            assert bound == math.inf if k.any() else math.isfinite(bound)
            assert not bound > error_cap(table, t, eps)


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

    def test_one_breakdown_call_per_block(self, monkeypatch):
        radii = []
        breakdown = _WindowTable.breakdown

        def counting_breakdown(self, t, hs, epsilon):
            radii.append(t.tolist())
            return breakdown(self, t, hs, epsilon)

        monkeypatch.setattr(_WindowTable, "breakdown", counting_breakdown)
        # rounding * e^40 is far above delta: no bound settles a size unless it drops the e^eps term
        res = min_feasible_support(Kernel.laplace(0.5), 40.0, 1e-12, 100)
        assert not res.feasible and res.s_scanned_max == 281
        # sizes 101..281 in ten blocks of ten; each radius read once and none confirmed
        assert len(radii) == 10 and sum(radii, []) == list(range(50, 141))

    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.5), Kernel.gaussian(2.0)])
    @pytest.mark.parametrize("privacy_range", [0, 1, 5])
    def test_delta_1_confirms_size_1_without_a_block(self, monkeypatch, kernel, privacy_range):
        # every size meets delta = 1: s = 1 is checked on its own table, and no block is read
        def no_block(*args):
            raise AssertionError("a block was read")

        monkeypatch.setattr(_WindowTable, "breakdown", no_block)
        res = min_feasible_support(kernel, 1.0, 1.0, privacy_range)
        delta_star = worst_case_defect(kernel, 1, 1.0, privacy_range)[0]
        assert res == DesignResult(True, 1, delta_star, distortion_moments(TruncatedParams(kernel, 1)), 1)

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
