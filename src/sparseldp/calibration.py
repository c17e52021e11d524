"""Support-size calibration for the window families.

Covers the disjointness feasibility threshold, the leakage-only regime where
the overlap excess provably vanishes (with its tail bounds and sufficient
support sizes), the minimum-support design search, and sweep drivers that
tabulate the privacy/distortion tradeoff.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .mechanisms import (
    LAPLACE,
    DistortionMoments,
    Kernel,
    SpecError,
    TruncatedParams,
    _check_epsilon,
    _check_int,
    _window_moments,
)
from .privacy import _WindowTable, _worst_case, separation_breakdown


@dataclass(frozen=True)
class CleanBoundReport:
    """Leakage-only evaluation, valid when the overlap excess provably vanishes.

    `applicable` is the conjunction of the overlap condition (the pointwise
    loss stays below epsilon across the range) and the size condition
    (support large enough to overlap at every range separation).  When
    applicable, `exact_leakage_delta` is the exact worst-case defect and
    `upper_bound` dominates it.
    """

    applicable: bool
    condition_overlap: bool
    condition_size: bool
    exact_leakage_delta: float | None = None
    upper_bound: float | None = None


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the minimum-support search."""

    feasible: bool
    s_chosen: int | None
    achieved_delta_star: float | None
    moments: DistortionMoments | None
    s_scanned_max: int


@dataclass(frozen=True)
class SweepRow:
    """One sweep row: varied value, worst-case defect, distortion moments."""

    varied: float
    delta_star: float
    r1: float
    r2: float


def feasibility_min_support(privacy_range: int) -> int:
    """Smallest odd support size not forced to total defect by disjointness."""
    privacy_range = _check_int("privacy range", privacy_range, 0)
    return _next_odd_at_least(privacy_range + 1)


def laplace_clean_bound(epsilon: float, lam: float, s: int, privacy_range: int) -> CleanBoundReport:
    """Leakage-only defect for the Laplace window family, when it applies.

    The overlap excess vanishes across the range when lam * range <= epsilon
    and the window overlaps at every range separation (s >= 2 * range + 1);
    the exact defect is then the leakage at the largest separation and is
    bounded by range * exp(-lam * (t - range + 1)).
    """
    params = TruncatedParams(Kernel.laplace(lam), s)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    epsilon = _check_epsilon(epsilon)
    return _clean_bound(params, epsilon, privacy_range, lam * privacy_range <= epsilon)


def gaussian_clean_bound(epsilon: float, sigma: float, s: int, privacy_range: int) -> CleanBoundReport:
    """Leakage-only defect for the Gaussian window family, when it applies.

    The overlap condition is epsilon >= range * (2t - range) / (2 sigma^2);
    the bound is range * exp(-(t - range + 1)^2 / (2 sigma^2)).
    """
    params = TruncatedParams(Kernel.gaussian(sigma), s)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    epsilon = _check_epsilon(epsilon)
    condition_overlap = epsilon >= privacy_range * (2 * params.t - privacy_range) / (2.0 * sigma * sigma)
    return _clean_bound(params, epsilon, privacy_range, condition_overlap)


def _clean_bound(params: TruncatedParams, epsilon: float, privacy_range: int, condition_overlap: bool):
    """Either family's report, given its overlap condition; the bound is range times W(t - range + 1)."""
    condition_size = params.s >= 2 * privacy_range + 1
    if not (condition_overlap and condition_size):
        return CleanBoundReport(False, condition_overlap, condition_size)
    exact = separation_breakdown(params.kernel, epsilon, params.t, privacy_range).support_leakage
    bound = privacy_range * math.exp(params.kernel.log_weight(params.t - privacy_range + 1))
    return CleanBoundReport(True, condition_overlap, condition_size, exact, bound)


def _next_odd_at_least(value: float) -> int:
    s = math.ceil(value)
    return s if s % 2 == 1 else s + 1


def _check_delta(delta) -> float:
    if isinstance(delta, bool) or not (isinstance(delta, numbers.Real) and 0 < delta <= 1):
        raise SpecError(f"target delta must lie in (0, 1], got {delta!r}")
    return float(delta)


def laplace_sufficient_support(epsilon: float, delta: float, lam: float, privacy_range: int) -> int:
    """Smallest odd support size certified by the Laplace leakage tail bound.

    Requires the leakage-only regime (lam * range <= epsilon); the returned
    size always satisfies the exact worst-case defect target, since the
    bound dominates the exact defect.
    """
    epsilon = _check_epsilon(epsilon)
    delta = _check_delta(delta)
    privacy_range = _check_int("privacy range", privacy_range, 1)
    Kernel.laplace(lam)
    if lam * privacy_range > epsilon:
        raise SpecError(
            f"leakage-only bound needs lam * range <= epsilon, got {lam} * {privacy_range} > {epsilon}"
        )
    formula = 2 * privacy_range - 1 + (2.0 / lam) * math.log(privacy_range / delta)
    return max(_next_odd_at_least(formula), 2 * privacy_range + 1)


def gaussian_support_window(epsilon: float, delta: float, sigma: float, privacy_range: int):
    """Odd support sizes certified for the Gaussian family, or None if empty.

    The lower end comes from the leakage tail, the upper end from the
    quadratic overlap condition; between them every odd size meets the
    target.  The log term is clamped at 0 when delta >= range, where the
    tail requirement is vacuous.
    """
    epsilon = _check_epsilon(epsilon)
    delta = _check_delta(delta)
    privacy_range = _check_int("privacy range", privacy_range, 1)
    Kernel.gaussian(sigma)
    log_term = max(0.0, math.log(privacy_range / delta))
    lo = max(2 * privacy_range - 1 + 2.0 * math.sqrt(2.0 * sigma * sigma * log_term), 2 * privacy_range + 1)
    hi = privacy_range + 1 + 2.0 * sigma * sigma * epsilon / privacy_range
    s_lo = _next_odd_at_least(lo)
    s_hi = math.floor(hi)
    if s_hi % 2 == 0:
        s_hi -= 1
    if s_lo > s_hi:
        return None
    return (s_lo, s_hi)


def _default_scan_limit(kernel: Kernel, epsilon: float, delta: float, privacy_range: int) -> int:
    # the cap covers the leakage tail for moderate delta; where a tail bound
    # certifies a feasible size, the scan always reaches that size too
    if kernel.family == LAPLACE:
        cap = 2 * privacy_range + 1 + math.ceil(40.0 / kernel.param)
        if 0 < privacy_range and kernel.param * privacy_range <= epsilon:
            cap = max(cap, laplace_sufficient_support(epsilon, delta, kernel.param, privacy_range))
    else:
        cap = 2 * privacy_range + 1 + math.ceil(8.0 * kernel.param * kernel.param) + 2 * privacy_range
        window = gaussian_support_window(epsilon, delta, kernel.param, privacy_range) if privacy_range else None
        if window is not None:
            cap = max(cap, window[0])
    return cap if cap % 2 == 1 else cap + 1


# grid entries (sizes x separations) evaluated per step of the design scan
_SCAN_BLOCK = 1024


def min_feasible_support(
    kernel: Kernel,
    epsilon: float,
    delta: float,
    privacy_range: int,
    s_max: int | None = None,
) -> DesignResult:
    """Smallest window size meeting the defect target, by ascending exact scan.

    Sizes below the disjointness threshold are skipped when delta < 1 (their
    defect is exactly 1); for delta = 1 the scan starts at s = 1, which is
    always feasible.  Minimality is certified by the scan order rather than
    by any assumed monotonicity of the defect in s.  The default scan limit
    reaches every size that a tail bound (`laplace_sufficient_support`, the
    low end of `gaussian_support_window`) certifies.

    Blocks of sizes x separations are evaluated at once from one window
    prefix table, which grows by doubling up to the scan limit.  A size is
    surely above delta if its value minus the table's rounding bound for its
    radius is.  The first other size is confirmed on the radius-t table that
    `worst_case_defect` reads, so it is the first size that call finds
    feasible; `achieved_delta_star` and `moments` come from that table.
    """
    epsilon = _check_epsilon(epsilon)
    delta = _check_delta(delta)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    if s_max is None:
        s_max = _default_scan_limit(kernel, epsilon, delta, privacy_range)
    else:
        s_max = _check_int("scan limit", s_max, 1)
        if s_max % 2 == 0:
            raise SpecError(f"scan limit must be odd, got {s_max}")
    start = 1 if delta >= 1.0 else feasibility_min_support(privacy_range)
    hs = np.arange(1, privacy_range + 1)
    rows = max(1, _SCAN_BLOCK // max(privacy_range, 1))
    table, s = None, start
    while s <= s_max:
        sizes = np.arange(s, min(s + 2 * rows, s_max + 2), 2)
        t = sizes[:, None] // 2
        if table is None or table.t_max < t[-1, 0]:
            table = _WindowTable(kernel, min(max(int(t[-1, 0]), 2 * table.t_max if table else 0), s_max // 2))
        leakage, excess, k = table.breakdown(t, hs, epsilon)
        total = (leakage + excess).max(axis=1, initial=0.0)
        surely_above = total - table.error_bound(t[:, 0], k, epsilon) > delta
        if surely_above.all():
            s = int(sizes[-1]) + 2
            continue
        s = int(sizes[surely_above.argmin()])
        delta_star, _, confirming = _worst_case(kernel, s, epsilon, privacy_range)
        if delta_star <= delta:
            return DesignResult(True, s, delta_star, _window_moments(confirming.weights), s)
        s += 2
    return DesignResult(False, None, None, None, s_max if start <= s_max else 0)


def _sweep(points, epsilon: float, privacy_range: int, empty_message: str) -> list[SweepRow]:
    # one row per (varied value, kernel, support size) point
    points = list(points)
    if not points:
        raise SpecError(empty_message)
    rows = []
    for varied, kernel, s in points:
        delta_star, _, table = _worst_case(kernel, s, epsilon, privacy_range)
        m = _window_moments(table.weights)
        rows.append(SweepRow(float(varied), delta_star, m.r1, m.r2))
    return rows


def sweep_support(kernel: Kernel, epsilon: float, privacy_range: int, s_list) -> list[SweepRow]:
    """One row (s, worst-case defect, r1, r2) per support size."""
    points = ((s, kernel, s) for s in s_list)
    return _sweep(points, epsilon, privacy_range, "support sweep needs at least one size")


def sweep_param(family: str, param_list, epsilon: float, privacy_range: int, s: int) -> list[SweepRow]:
    """One row per kernel parameter value at a fixed support size."""
    points = ((p, Kernel(family, p), s) for p in param_list)
    return _sweep(points, epsilon, privacy_range, "parameter sweep needs at least one value")
