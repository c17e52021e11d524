import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseldp import (
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    brute_force_defect,
    exhaustive_event_defect,
    ordered_defect,
    pure_ldp_epsilon,
    sample,
    sample_counts,
    separation_breakdown,
    separation_profile,
    truncated_spec,
    window_weights,
    worst_case_defect,
)
from conftest import log_normalizer, log_ratio, plain_gap, random_common_support_spec, random_spec, tie_rule_counts
from sparseldp.privacy import _WindowTable


def window_pair(kernel, t, h):
    """Materialized two-input window spec at separation h."""
    return truncated_spec(TruncatedParams(kernel, 2 * t + 1), [0, h])


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
                assert log_ratio(spec, x, xp, y) == pytest.approx(res.epsilon_star, abs=1e-12)

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
    def test_dominates_exact_level_on_common_support(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            spec = random_common_support_spec(rng)
            if spec.kernel.family != "laplace":
                continue
            res = pure_ldp_epsilon(spec)
            diameter = max(abs(a - b) for a in spec.inputs for b in spec.inputs)
            max_log_ratio = max(
                log_normalizer(spec, xp) - log_normalizer(spec, x)
                for x in spec.inputs
                for xp in spec.inputs
            )
            assert spec.kernel.param * diameter + max_log_ratio >= res.epsilon_star - 1e-12


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


def positive_part_sum(p, q, epsilon):
    """sum of max(0, p_y - e^eps q_y) over the given floats, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        e_eps = mpmath.exp(mpmath.mpf(epsilon))
        return float(sum(max(mpmath.mpf(0), mpmath.mpf(a) - e_eps * mpmath.mpf(b)) for a, b in zip(p, q)))


# Laplace lam = 1: input 730's masses at outputs 0 and 1 are about e^-730 and e^-729,
# so x = 0 against 730 keeps a positive excess past eps = 709
FAR = MechanismSpec(Kernel.laplace(1.0), (0, 730), (0, 1, 730), {0: (0, 1), 730: (0, 1, 730)})
PAST_EXP = [709.9, 720.0, 745.0, 800.0, 1e308]


class TestPastTheRangeOfExp:
    @pytest.mark.parametrize("eps, expected", zip(PAST_EXP, [0.499999999999999, 0.4999999999756885, 0.0, 0.0, 0.0]))
    def test_smallest_subnormal_q(self, eps, expected):
        p, q = [0.5, 0.5], [1.0, 2.0**-1074]
        assert brute_force_defect(p, q, eps) == expected
        assert exhaustive_event_defect(p, q, eps) == expected
        assert positive_part_sum(p, q, eps) == expected

    @pytest.mark.parametrize("eps", PAST_EXP)
    @pytest.mark.parametrize(
        "p, q",
        [([0.2, 0.3, 0.5], [1.0, 1e-310, 1e-320]), ([0.1] * 10, [0.1] * 10), ([0.25] * 4, [0.0, 0.5, 0.5, 0.0])],
    )
    def test_vector_routes_match_50_digits(self, p, q, eps):
        ref = positive_part_sum(p, q, eps)
        assert brute_force_defect(p, q, eps) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert exhaustive_event_defect(p, q, eps) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", PAST_EXP)
    def test_ordered_defect_matches_50_digits(self, eps):
        p, q = FAR.pmf_vector(0), FAR.pmf_vector(730)
        b = ordered_defect(FAR, 0, 730, eps)
        assert b.support_leakage == 0.0
        assert b.total == pytest.approx(positive_part_sum(p, q, eps), rel=1e-12, abs=0.0)
        assert ordered_defect(FAR, 730, 0, eps).support_leakage == FAR.pmf(730)[730]

    def test_positive_excess_survives_past_709(self):
        assert ordered_defect(FAR, 0, 730, 720.0).overlap_excess > 0.99

    def test_ordered_defect_returns_plain_floats(self):
        b = ordered_defect(FAR, 0, 730, 800.0)
        assert all(type(v) is float for v in (b.support_leakage, b.overlap_excess, b.total))


@st.composite
def probability_pairs(draw):
    m = draw(st.integers(1, 10))
    weights = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(lambda w: sum(w) > 0.0)
    p, q = (np.array(draw(weights)) for _ in range(2))
    return p / p.sum(), q / q.sum()


@settings(max_examples=300, deadline=None)
@given(pair=probability_pairs(), eps=st.floats(0.0, 709.0, exclude_max=True))
def test_vector_routes_are_the_plain_product_below_709(pair, eps):
    p, q = pair
    gap = plain_gap(p, q, eps)
    masks = (np.arange(1 << gap.size)[:, None] >> np.arange(gap.size)) & 1
    assert brute_force_defect(p, q, eps) == float(np.sum(np.maximum(gap, 0.0)))
    assert exhaustive_event_defect(p, q, eps) == float(np.max(masks @ gap))


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
        lambda n: window_weights(Kernel.laplace(0.5), n),
        lambda n: sample(TruncatedParams(Kernel.laplace(0.5), 7), 0, 0, n),
        lambda n: sample_counts(TruncatedParams(Kernel.laplace(0.5), 7), 0, 0, n),
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


@pytest.mark.parametrize("t", [2, 3, 4, 7])
@pytest.mark.parametrize(
    "kernel",
    [Kernel.laplace(0.5), Kernel.laplace(0.7), Kernel.gaussian(1.0), Kernel.gaussian(2.0)],
    ids=["laplace 0.5", "laplace 0.7", "gaussian 1", "gaussian 2"],
)
class TestPositiveTerms:
    # epsilons away from every tie lam * n and h * j / (2 sigma^2), where the float weights decide each term exactly
    EPSILONS = (0.3, 1.2, 2.7)

    @staticmethod
    def counted(kernel, t, h, eps):
        """Number of overlap terms W(|k|) - e^eps W(|k - h|) > 0, k = h - t..t, from the window weights."""
        w = window_weights(kernel, t)  # offsets -t..t
        return int((w[h:] - math.exp(eps) * w[: w.size - h] > 0).sum())

    def cases(self, kernel, t):
        for h in range(1, 2 * t + 1):
            if kernel.family == "laplace":
                ratios = [kernel.param * n for n in range(1, h + 1)]
            else:
                ratios = [h * j / (2 * kernel.param**2) for j in range(-2 * t, 2 * t + 1)]
            for eps in self.EPSILONS:
                assert min(abs(eps - r) for r in ratios) > 0.01  # no tie
                yield h, eps

    @staticmethod
    def engine(kernel, t, eps):
        """K(h) at separations 0..2t + 1: `positive_terms` on its interval, 0 off it."""
        h, k = _WindowTable(kernel, t).positive_terms(t, 2 * t + 1, eps)
        counts = np.zeros(2 * t + 2, dtype=int)
        counts[h] = k
        return counts

    def test_engine_counts_the_positive_overlap_terms(self, kernel, t):
        for h, eps in self.cases(kernel, t):
            assert self.engine(kernel, t, eps)[h] == self.counted(kernel, t, h, eps), (h, eps)

    def test_engine_counts_by_the_tie_rule(self, kernel, t):
        # every log-ratio of the window is a tie epsilon, and its term must not count
        if kernel.family == "laplace":
            tie_eps = [kernel.param * n for n in range(1, t + 1)]
        else:
            tie_eps = [h * j / (2.0 * kernel.param * kernel.param) for h in range(1, 2 * t) for j in range(1, 2 * t)]
        for eps in (*self.EPSILONS, *tie_eps, 0.0, 709.0, 720.0, 1e308):
            want = tie_rule_counts(kernel, eps, t, np.arange(2 * t + 2))
            assert np.array_equal(self.engine(kernel, t, eps), want), eps

    def test_excess_is_zero_exactly_where_no_term_is_positive(self, kernel, t):
        for h, eps in self.cases(kernel, t):
            excess = separation_breakdown(kernel, eps, t, h).overlap_excess
            assert (excess == 0.0) == (self.counted(kernel, t, h, eps) == 0), (h, eps, excess)
