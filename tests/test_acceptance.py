"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from sparseldp import (
    Kernel,
    TruncatedParams,
    brute_force_defect,
    clean_bound,
    distortion_moments,
    exhaustive_event_defect,
    min_feasible_support,
    ordered_defect,
    sample,
    separation_breakdown,
    sufficient_support,
    sweep_param,
    sweep_support,
    truncated_pmf,
    truncated_spec,
    worst_case_defect,
)
from conftest import random_spec

TABLE_TOL = 5e-5
EXACT_TOL = 1e-12

# golden 4-decimal values (delta*, r1, r2) at the headline operating points
LAPLACE_SUPPORT_GOLD = {
    3: (1.0000, 0.5481, 0.5481),
    5: (0.6696, 0.9104, 1.4094),
    7: (0.4686, 1.1851, 2.4071),
    9: (0.3706, 1.3929, 3.4108),
    11: (0.3179, 1.5475, 4.3362),
    13: (0.2880, 1.6603, 5.1386),
}
GAUSSIAN_SUPPORT_GOLD = {
    3: (1.0000, 0.6383, 0.6383),
    5: (0.6257, 1.0536, 1.6634),
    7: (0.4173, 1.3267, 2.6929),
    9: (0.3468, 1.4744, 3.4283),
    11: (0.3255, 1.5365, 3.8084),
    13: (0.3203, 1.5563, 3.9513),
    15: (0.3193, 1.5611, 3.9906),
}
LAPLACE_PARAM_GOLD = {
    0.2: (0.2402, 1.4996, 3.3254),
    0.4: (0.1954, 1.2872, 2.6959),
    0.6: (0.2466, 1.0870, 2.1390),
    0.8: (0.3811, 0.9061, 1.6695),
    1.0: (0.4985, 0.7483, 1.2890),
    1.2: (0.5974, 0.6142, 0.9899),
}
GAUSSIAN_PARAM_GOLD = {
    0.8: (0.6886, 0.5469, 0.6398),
    1.0: (0.5407, 0.7267, 0.9959),
    1.2: (0.4009, 0.8915, 1.3997),
    1.5: (0.2651, 1.0984, 1.9831),
    2.0: (0.2012, 1.3267, 2.6929),
    2.5: (0.2301, 1.4551, 3.1140),
    3.0: (0.2466, 1.5306, 3.3673),
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _table_errors(rows, gold):
    errors = []
    for row in rows:
        key = int(row.varied) if row.varied == int(row.varied) else round(row.varied, 3)
        expected = gold[key]
        errors += [
            abs(row.delta_star - expected[0]),
            abs(row.r1 - expected[1]),
            abs(row.r2 - expected[2]),
        ]
    return errors


def test_criterion_1_laplace_support_sweep():
    start = time.perf_counter()
    rows = sweep_support(Kernel.laplace(0.5), 1.0, 3, sorted(LAPLACE_SUPPORT_GOLD))
    elapsed = time.perf_counter() - start
    errors = _table_errors(rows, LAPLACE_SUPPORT_GOLD)
    ok = len(errors) == 18 and max(errors) <= TABLE_TOL and elapsed < 1.0
    _report(
        "1 laplace support sweep",
        ok,
        f"18 values, max err {max(errors):.2e} <= {TABLE_TOL}, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_gaussian_support_sweep():
    start = time.perf_counter()
    rows = sweep_support(Kernel.gaussian(2.0), 1.0, 3, sorted(GAUSSIAN_SUPPORT_GOLD))
    elapsed = time.perf_counter() - start
    errors = _table_errors(rows, GAUSSIAN_SUPPORT_GOLD)
    ok = len(errors) == 21 and max(errors) <= TABLE_TOL and elapsed < 1.0
    _report(
        "2 gaussian support sweep",
        ok,
        f"21 values, max err {max(errors):.2e} <= {TABLE_TOL}, {elapsed:.3f}s < 1s",
    )


def test_criterion_3_laplace_param_sweep():
    grid = sorted(LAPLACE_PARAM_GOLD)
    rows = sweep_param("laplace", grid, 1.0, 2, 7)
    errors = _table_errors(rows, LAPLACE_PARAM_GOLD)
    deltas = [row.delta_star for row in rows]
    argmin = grid[int(np.argmin(deltas))]
    interior_min = argmin == 0.4 and 0 < grid.index(argmin) < len(grid) - 1
    non_monotone = any(b > a for a, b in zip(deltas, deltas[1:]))
    ok = len(errors) == 18 and max(errors) <= TABLE_TOL and interior_min and non_monotone
    _report(
        "3 laplace concentration sweep",
        ok,
        f"18 values, max err {max(errors):.2e}, interior minimum at lam={argmin}",
    )


def test_criterion_4_gaussian_param_sweep():
    grid = sorted(GAUSSIAN_PARAM_GOLD)
    rows = sweep_param("gaussian", grid, 1.0, 2, 7)
    errors = _table_errors(rows, GAUSSIAN_PARAM_GOLD)
    deltas = [row.delta_star for row in rows]
    argmin = grid[int(np.argmin(deltas))]
    ok = len(errors) == 21 and max(errors) <= TABLE_TOL and argmin == 2.0
    _report(
        "4 gaussian scale sweep",
        ok,
        f"21 values, max err {max(errors):.2e}, grid minimum at sigma={argmin}",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20240)
    n_specs = 1000
    worst_pair = 0.0
    worst_subset = 0.0
    for _ in range(n_specs):
        spec = random_spec(rng, max_outputs=12)
        epsilon = float(rng.uniform(0.0, 3.0))
        x, xp = (int(v) for v in rng.choice(spec.inputs, size=2, replace=False))
        p = spec.pmf_vector(x)
        q = spec.pmf_vector(xp)
        total = ordered_defect(spec, x, xp, epsilon).total
        positive_part = brute_force_defect(p, q, epsilon)
        subset_max = exhaustive_event_defect(p, q, epsilon)
        worst_pair = max(worst_pair, abs(total - positive_part))
        worst_subset = max(worst_subset, abs(subset_max - positive_part))
    ok = worst_pair <= EXACT_TOL and worst_subset <= EXACT_TOL
    _report(
        "5 oracle equivalence",
        ok,
        f"{n_specs} specs, decomposition err {worst_pair:.2e}, subset-max err {worst_subset:.2e}",
    )


def test_criterion_6_closed_form_equivalence():
    kernels = [Kernel.laplace(lam) for lam in (0.25, 0.5, 1.0)]
    kernels += [Kernel.gaussian(sigma) for sigma in (1.0, 2.0)]
    worst = 0.0
    disjoint_exact = True
    checked = 0
    for kernel in kernels:
        for epsilon in (0.0, 0.5, 1.0, 2.0):
            for t in range(0, 11):
                params = TruncatedParams(kernel, 2 * t + 1)
                for h in range(0, 2 * t + 3):
                    closed = separation_breakdown(kernel, epsilon, t, h)
                    if h > 2 * t:
                        disjoint_exact &= closed.total == 1.0
                    spec = truncated_spec(params, [0, h] if h else [0])
                    general = ordered_defect(spec, 0, h, epsilon)
                    worst = max(worst, abs(closed.total - general.total))
                    checked += 1
    ok = worst <= EXACT_TOL and disjoint_exact
    _report(
        "6 closed-form equivalence",
        ok,
        f"{checked} cases, max |closed - general| {worst:.2e}, disjoint cases exactly 1.0: {disjoint_exact}",
    )


def test_criterion_7_clean_bound_property():
    # strictly inside the no-excess regime so float dust cannot fake an excess term
    worst = 0.0
    overlap_zero = True
    bound_holds = True
    checked = 0
    for lam in (0.25, 0.5, 1.0):
        for H in (1, 2, 3):
            epsilon = lam * H + 0.125
            for s in (2 * H + 1, 2 * H + 5, 2 * H + 11):
                kernel = Kernel.laplace(lam)
                rep = clean_bound(kernel, s, epsilon, H)
                assert rep.applicable
                t = (s - 1) // 2
                for h in range(H + 1):
                    overlap_zero &= separation_breakdown(kernel, epsilon, t, h).overlap_excess == 0.0
                spec = truncated_spec(TruncatedParams(kernel, s), [0, H])
                overlap_zero &= ordered_defect(spec, 0, H, epsilon).overlap_excess == 0.0
                exact, _ = worst_case_defect(kernel, s, epsilon, H)
                worst = max(worst, abs(exact - rep.exact_leakage_delta))
                bound_holds &= exact <= H * math.exp(-lam * (t - H + 1)) + 1e-15
                checked += 1
    for sigma in (1.0, 2.0):
        for H in (1, 2, 3):
            for s in (2 * H + 1, 2 * H + 5, 2 * H + 11):
                t = (s - 1) // 2
                epsilon = H * (2 * t - H) / (2.0 * sigma * sigma) + 0.125
                kernel = Kernel.gaussian(sigma)
                rep = clean_bound(kernel, s, epsilon, H)
                assert rep.applicable
                for h in range(H + 1):
                    overlap_zero &= separation_breakdown(kernel, epsilon, t, h).overlap_excess == 0.0
                spec = truncated_spec(TruncatedParams(kernel, s), [0, H])
                overlap_zero &= ordered_defect(spec, 0, H, epsilon).overlap_excess == 0.0
                exact, _ = worst_case_defect(kernel, s, epsilon, H)
                worst = max(worst, abs(exact - rep.exact_leakage_delta))
                gap = t - H + 1
                bound_holds &= exact <= H * math.exp(-(gap * gap) / (2.0 * sigma * sigma)) + 1e-15
                checked += 1
    ok = overlap_zero and worst <= EXACT_TOL and bound_holds
    _report(
        "7 clean-bound property",
        ok,
        f"{checked} settings, overlap exactly 0: {overlap_zero}, leakage err {worst:.2e}, "
        f"bound dominates: {bound_holds}",
    )


def test_criterion_8_calibration_soundness():
    sound = True
    checked = 0
    for lam, H in ((0.25, 1), (0.25, 2), (0.5, 1), (0.5, 2), (1.0 / 3.0, 3)):
        epsilon = lam * H
        for delta in (0.05, 0.1, 0.3):
            s = sufficient_support(Kernel.laplace(lam), epsilon, delta, H)[0]
            exact, _ = worst_case_defect(Kernel.laplace(lam), s, epsilon, H)
            sound &= exact <= delta
            checked += 1
    window_hits = 0
    for sigma in (1.0, 1.5, 2.0):
        for H in (1, 2):
            for epsilon in (2.0, 4.0):
                for delta in (0.2, 0.4):
                    window = sufficient_support(Kernel.gaussian(sigma), epsilon, delta, H)
                    if window is None:
                        continue
                    for s in range(window[0], window[1] + 1, 2):
                        exact, _ = worst_case_defect(Kernel.gaussian(sigma), s, epsilon, H)
                        sound &= exact <= delta
                        window_hits += 1
    sound &= window_hits > 0
    minimal = True
    for kernel, epsilon, delta, H in (
        (Kernel.laplace(0.5), 1.0, 0.5, 3),
        (Kernel.laplace(0.25), 0.5, 0.35, 2),
        (Kernel.laplace(0.5), 1.0, 0.2, 2),
        (Kernel.gaussian(2.0), 1.0, 0.65, 3),
        (Kernel.gaussian(1.0), 4.0, 0.2, 2),
        (Kernel.gaussian(2.0), 1.0, 0.33, 3),
    ):
        res = min_feasible_support(kernel, epsilon, delta, H)
        assert res.feasible, (kernel, epsilon, delta, H)
        sound &= res.achieved_delta_star <= delta
        for s in range(1, res.s_chosen, 2):
            exact, _ = worst_case_defect(kernel, s, epsilon, H)
            minimal &= exact > delta
        checked += 1
    infeasible = min_feasible_support(Kernel.gaussian(2.0), 1.0, 0.30, 3, s_max=15)
    sound &= not infeasible.feasible
    ok = sound and minimal
    _report(
        "8 calibration soundness",
        ok,
        f"{checked} calibrations + {window_hits} window sizes certified, minimality by re-scan: {minimal}",
    )


def test_criterion_9_moment_properties():
    kernels = [Kernel.laplace(lam) for lam in (0.25, 0.5, 1.0)]
    kernels += [Kernel.gaussian(sigma) for sigma in (1.0, 2.0)]
    monotone = True
    cauchy_schwarz = True
    worst = 0.0
    for kernel in kernels:
        prev = None
        for s in range(1, 43, 2):
            m = distortion_moments(TruncatedParams(kernel, s))
            p = truncated_pmf(TruncatedParams(kernel, s), 0)
            r1 = sum(abs(k) * v for k, v in p.items())
            r2 = sum(k * k * v for k, v in p.items())
            worst = max(worst, abs(m.r1 - r1), abs(m.r2 - r2))
            cauchy_schwarz &= m.r1 * m.r1 <= m.r2 + EXACT_TOL
            if prev is not None:
                # nondecreasing up to final-rounding wobble where the exact
                # increment falls below one ulp of the saturated tail value
                monotone &= m.r1 >= prev.r1 - EXACT_TOL and m.r2 >= prev.r2 - EXACT_TOL
            prev = m
    ok = monotone and cauchy_schwarz and worst <= EXACT_TOL
    _report(
        "9 moment properties",
        ok,
        f"monotone: {monotone}, r1^2 <= r2: {cauchy_schwarz}, closed-vs-brute err {worst:.2e}",
    )


def test_criterion_10_sampling():
    params = TruncatedParams(Kernel.laplace(0.5), 5)
    n = 1_000_000
    start = time.perf_counter()
    draws = sample(params, 0, 31337, n)
    elapsed = time.perf_counter() - start
    values, counts = np.unique(draws, return_counts=True)
    freq = dict(zip(values.tolist(), (counts / n).tolist()))
    pmf = truncated_pmf(params, 0)
    deviation = max(abs(freq.get(k, 0.0) - v) for k, v in pmf.items())
    repeat = sample(params, 0, 31337, n)
    identical = bool(np.array_equal(draws, repeat))
    ok = deviation < 0.005 and identical and set(values.tolist()) <= set(pmf) and elapsed < 5.0
    _report(
        "10 sampling",
        ok,
        f"max atom deviation {deviation:.4f} < 0.005, seed-identical: {identical}, {elapsed:.2f}s < 5s",
    )
