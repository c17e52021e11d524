"""Support-size calibration for the window families.

Covers the disjointness feasibility threshold, the leakage-only regime where
the overlap excess provably vanishes (`clean_bound` reports it with its tail
bound, `sufficient_support` gives the sizes that bound certifies), the
minimum-support design search, and sweep drivers that tabulate the
privacy/distortion tradeoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import (
    LAPLACE,
    DistortionMoments,
    Kernel,
    SpecError,
    TruncatedParams,
    _check_delta,
    _check_epsilon,
    _check_instance,
    _check_int,
    _check_list,
    _check_real,
    _window_moments,
)
from .privacy import _overlap_threshold, _WindowTable, _worst_case, separation_breakdown

__all__ = [
    "CleanBoundReport",
    "DesignResult",
    "SweepRow",
    "clean_bound",
    "feasibility_min_support",
    "min_feasible_support",
    "sufficient_support",
    "sweep_param",
    "sweep_support",
]


@dataclass(frozen=True)
class CleanBoundReport:
    """`clean_bound`'s leakage-only evaluation, valid when the overlap excess provably vanishes.

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


def clean_bound(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> CleanBoundReport:
    """Leakage-only defect of the size-s window, when the overlap excess provably vanishes.

    It applies when no overlap term up to the range is positive (ties as
    `_clean_radius` rules): lam * range <= epsilon for Laplace,
    range * (2t - range) / (2 sigma^2) <= epsilon for the Gaussian; and
    s >= 2 * range + 1.  The exact defect is then the leakage at the range,
    bounded by range * W(t - range + 1).
    """
    params = TruncatedParams(kernel, s)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    epsilon = _check_epsilon(epsilon)
    condition_overlap = params.t <= _clean_radius(kernel, epsilon, min(privacy_range, params.t))
    condition_size = params.s >= 2 * privacy_range + 1
    if not (condition_overlap and condition_size):
        return CleanBoundReport(False, condition_overlap, condition_size)
    exact = separation_breakdown(kernel, epsilon, params.t, privacy_range).support_leakage
    bound = privacy_range * math.exp(kernel.log_weight(params.t - privacy_range + 1))
    return CleanBoundReport(True, condition_overlap, condition_size, exact, bound)


_MAX_SIZE = 2**53 - 1  # the largest odd size `_check_int` accepts


def _next_odd_at_least(value: float) -> int:
    """Smallest odd integer >= value; a value past float range (inf or NaN) raises SpecError."""
    s = math.ceil(_check_real("support size bound", value, "be within float range", lambda v: True))
    return s if s % 2 == 1 else s + 1


def _clean_radius(kernel: Kernel, epsilon: float, r: int) -> int | float:
    """Largest radius with no positive overlap term at separations <= r (the engine's rule); below r if none from r up.

    Radius t is clean for range R exactly when t <= _clean_radius(kernel, epsilon, min(R, t)).  From
    `_overlap_threshold`'s n or m: Laplace gives inf when r < n, else r - 1; the Gaussian's largest term
    r (2t - r) is < m up to (m - 1 + r^2) // (2r), inf at r = 0 and at least 2^52 - 1 when m is capped.
    """
    if kernel.family == LAPLACE:
        return math.inf if r < _overlap_threshold(kernel, epsilon, r) else r - 1
    return (_overlap_threshold(kernel, epsilon, _MAX_SIZE // 2) - 1 + r * r) // (2 * r) if r else math.inf


def _tail_size(kernel: Kernel, delta: float, privacy_range: int) -> int:
    """Least odd size >= 2R + 1 with R * W(t - R + 1) <= delta, uncapped; R >= 1 >= delta keeps the log >= 0."""
    log = math.log(privacy_range / delta)
    reach = log / kernel.param if kernel.family == LAPLACE else kernel.param * math.sqrt(2.0 * log)
    return max(_next_odd_at_least(2 * privacy_range - 1 + 2.0 * reach), 2 * privacy_range + 1)


def sufficient_support(kernel: Kernel, epsilon: float, delta: float, privacy_range: int) -> tuple[int, int] | None:
    """Odd support sizes (lo, hi) certified by the leakage tail bound, or None if there are none.

    Every odd size from lo to hi meets the target: lo is the least with
    range * W(t - range + 1) <= delta, a bound on the exact defect, and hi the
    largest with no positive overlap term up to the range (ties within 8
    roundings clean, the engine's rule).  For Laplace (lam * range <= epsilon)
    no size is too large, so hi is 2**53 - 1, the largest size accepted.
    """
    kernel = _check_instance("kernel", kernel, Kernel)
    epsilon = _check_epsilon(epsilon)
    delta = _check_delta(delta)
    privacy_range = _check_int("privacy range", privacy_range, 1)
    sizes = _certified_sizes(kernel, epsilon, delta, privacy_range)
    return None if sizes is None or sizes[0] > _MAX_SIZE else (sizes[0], min(sizes[1], _MAX_SIZE))


def _certified_sizes(kernel: Kernel, epsilon: float, delta: float, privacy_range: int) -> tuple[int, float] | None:
    """(tail size, 2 * clean radius + 1), uncapped, or None if no odd size lies between them; range >= 1.

    The tail size, which can be past float range, is formed only where some size from 2 range + 1 up is clean."""
    radius = _clean_radius(kernel, epsilon, privacy_range)
    if privacy_range > radius:
        return None
    size = _tail_size(kernel, delta, privacy_range)
    return None if size > 2 * radius + 1 else (size, 2 * radius + 1)


def _default_scan_limit(kernel: Kernel, epsilon: float, delta: float, privacy_range: int) -> int:
    # the cap covers the leakage tail for moderate delta and rises to the certified tail size.  It stops
    # at 2^53 - 1, the largest size `_check_int` accepts; a cap already there (lam < 4.4e-15,
    # sigma > 3.3e7) needs no tail bound, which could be past float range.
    if kernel.family == LAPLACE:
        cap = 2 * privacy_range + 1 + math.ceil(min(40.0 / kernel.param, 2.0**53))
    else:
        cap = 4 * privacy_range + 1 + math.ceil(min(8.0 * kernel.param * kernel.param, 2.0**53))
    sizes = _certified_sizes(kernel, epsilon, delta, privacy_range) if privacy_range and cap < _MAX_SIZE else None
    if sizes is not None:
        cap = max(cap, sizes[0])
    return _next_odd_at_least(min(cap, _MAX_SIZE))


# grid entries (sizes x separations) evaluated per step of the design scan
_SCAN_BLOCK = 1024
# largest radius whose table confirms a closed-form Laplace size (about 2 MB per
# prefix array); past it the closed form answers
_CONFIRM_RADIUS = 2**17
_TINY = 2.0**-1022  # the smallest normal float


def min_feasible_support(
    kernel: Kernel,
    epsilon: float,
    delta: float,
    privacy_range: int,
    s_max: int | None = None,
) -> DesignResult:
    """Smallest window size meeting the defect target, by closed form or ascending exact scan.

    Size 1 meets delta = 1, and every delta at range 0: it is confirmed before
    any scan.  Otherwise sizes below the disjointness threshold are skipped
    (their defect is exactly 1).  The default scan limit reaches the low end of
    `sufficient_support`, the least size the tail bound certifies.

    In the Laplace clean regime (lam * range <= epsilon, ties within 8
    roundings counting as clean, the engine's rule; range >= 1, delta < 1)
    the overlap excess is exactly 0, so the defect is the leakage at the
    range, which strictly decreases in s: going from radius t to t + 1 swaps
    the innermost leaking weight for a smaller outer one and grows the
    normalizer.  Bisection on the closed form (`_laplace_clean_radius`) then
    locates the least radius that the closed form's rounding bound does not
    certify above delta, and every smaller size is above delta by that
    monotonicity.  Otherwise blocks of sizes x separations are evaluated at
    once from one window prefix table, which grows by doubling up to the scan
    limit; a size is surely above delta if its value minus the table's
    rounding bound for its radius is.

    One loop confirms the sizes not surely above delta in ascending order,
    so minimality comes from the scan order.  It reads the radius-t table
    that `worst_case_defect` reads, so the answer is the first size that call
    finds feasible, with `achieved_delta_star` and `moments` from that table.
    When the located radius is past `_CONFIRM_RADIUS`, the closed forms
    confirm every size instead, and a size counts only when its closed form
    plus its bound is within delta.  So where delta lies within that bound of
    the closed form, the answer may be the next odd size after the smallest
    whose exact defect is within delta.
    """
    kernel = _check_instance("kernel", kernel, Kernel)
    epsilon = _check_epsilon(epsilon)
    delta = _check_delta(delta)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    if s_max is None:
        s_max = _default_scan_limit(kernel, epsilon, delta, privacy_range)
    else:
        s_max = _check_int("scan limit", s_max, 1)
        if s_max % 2 == 0:
            raise SpecError(f"scan limit must be odd, got {s_max}")
    start, lam = feasibility_min_support(privacy_range), kernel.param
    clean = kernel.family == LAPLACE and privacy_range <= _clean_radius(kernel, epsilon, privacy_range)
    trivial = delta == 1.0 or privacy_range == 0  # radius 0 meets the target: no defect is above 1, none at range 0
    located = 0 if trivial else _laplace_clean_radius(lam, delta, privacy_range, start, s_max) if clean else None
    s = start if located is None else 2 * located + 1
    closed = located is not None and _CONFIRM_RADIUS < located  # fixed here, so a search on tables stays on them
    hs = np.arange(1, privacy_range + 1)
    rows = max(1, _SCAN_BLOCK // max(privacy_range, 1))
    table = None
    while s <= s_max:
        if located is None:  # delta < 1 and range >= 1, so every row reads a separation
            sizes = np.arange(s, min(s + 2 * rows, s_max + 2), 2)
            t = sizes // 2
            if table is None or table.t_max < t[-1]:
                table = _WindowTable(kernel, min(max(int(t[-1]), 2 * table.t_max if table else 0), s_max // 2))
            totals, bound = table.breakdown(t, hs, epsilon)
            surely_above = totals.max(axis=1) - bound > delta
            if surely_above.all():
                s = int(sizes[-1]) + 2
                continue
            s = int(sizes[surely_above.argmin()])
        if closed:
            delta_star, bound = _laplace_leakage(lam, s // 2, privacy_range)
        else:
            (delta_star, _, confirming), bound = _worst_case(kernel, s, epsilon, privacy_range), 0.0
        if delta_star + bound <= delta:  # a closed form answers only a size surely within delta
            moments = _laplace_moments(lam, s // 2) if closed else _window_moments(confirming.ring[1:])
            return DesignResult(True, s, delta_star, moments, s)
        s += 2
    return DesignResult(False, None, None, None, s_max if start <= s_max else 0)


def _laplace_clean_radius(lam: float, delta: float, privacy_range: int, start: int, s_max: int) -> int | None:
    """Least radius whose Laplace clean-regime leakage is not certified above delta, or None.

    Bisects on "the closed-form leakage at the range minus its rounding bound exceeds delta" over
    radii t >= max(range - 1, start // 2), where the closed form holds, up to radius s_max // 2 + 1,
    which counts as not certified: a returned size past s_max means no size up to it qualifies.
    Every size from `start` up to 2t - 1 is then certified above delta (see `min_feasible_support`).
    That needs lam, delta and the weights up to radius t - 1 to be normal floats, and no size from
    `start` below radius range - 1, where the closed form does not reach; otherwise the answer is None.
    """
    h, t_first, t_last = privacy_range, max(privacy_range - 1, start // 2), s_max // 2
    lo, hi = t_first - 1, t_last + 1  # lo counts as certified above delta and hi does not; neither is read
    while hi - lo > 1:
        mid = (lo + hi) // 2
        leakage, bound = _laplace_leakage(lam, mid, h)
        lo, hi = (mid, hi) if leakage - bound > delta else (lo, mid)
    if hi <= t_first:
        return hi if 2 * hi + 1 == start else None
    return hi if lam >= _TINY and delta >= _TINY and lam * lo <= 700.0 else None


def _laplace_leakage(lam: float, t: int, h: int) -> tuple[float, float]:
    """Closed-form leakage of the radius-t Laplace window at separation h <= t + 1, and its rounding bound.

    With r = e^-lam the h outermost weights sum to r^(t-h+1) (1 - r^h) / (1 - r)
    and the window to 1 + 2 r (1 - r^t) / (1 - r), so the leakage is
    r^(t-h+1) (1 - r^h) / ((1 - r) + 2 r (1 - r^t)), each 1 - r^k formed as
    -expm1(-lam k).

    The bound, 2^-51 (lam t + 12) times the value, holds while lam, the
    value and every weight exp(-lam j), j <= t, are normal floats (lam t <=
    700 for the weights).  It covers the distance to the exact leakage plus
    that from the exact leakage to what a radius-t table gives (`_worst_case`'s;
    its prefix at the window's low end is exactly 0).  To first order, with
    u = 2^-53: rounding lam k shifts exp(-lam k) by lam k u and each libm exp
    or expm1 errs by under an ulp (2u), so the closed form is within
    u (lam t + 14) of the exact leakage; each table weight is within
    u (lam t + 8) of exact (numpy's exp budgeted at four ulps), its
    compensated prefixes within 2u and its quotient within u, so a table is
    within u (2 lam t + 21).  The bound leaves u (lam t + 13) for
    second-order terms and the caller's comparison.
    """
    core = -math.expm1(-lam * h) / (-math.expm1(-lam) + 2.0 * math.exp(-lam) * -math.expm1(-lam * t))
    leakage = math.exp(-lam * (t - h + 1)) * core
    return leakage, leakage * (2.0**-51 * (lam * t + 12.0))


def _laplace_moments(lam: float, t: int) -> DistortionMoments:
    """`distortion_moments` of the radius-t Laplace window in closed form.

    The distance j of an off-centre output is j = 1..t with weights r^j,
    r = e^-lam; minus the lam-derivatives of log sum_j r^j give its mean,
    1 - g(lam) + t g(lam t), and variance, f(lam) - t^2 f(lam t), with
    g(x) = 1/x - 1/expm1(x) and f = g' (`_mean_terms`), so neither cancels
    however small lam t is.  The moments are the mean and mean square times
    the off-centre mass 2 r (1 - r^t) / ((1 - r) + 2 r (1 - r^t)).
    """
    y = lam * t
    g_lam, f_lam = _mean_terms(lam)
    g_y, f_y = _mean_terms(y)
    mean = 1.0 - g_lam + t * g_y
    off = 2.0 * math.exp(-lam) * -math.expm1(-y)
    off /= -math.expm1(-lam) + off
    return DistortionMoments(off * mean, off * (mean * mean + (f_lam - t * (t * f_y))))


# Taylor coefficients of expm1(x) / x, (expm1(x) - x) / x^2 and
# (x^2 e^x - expm1(x)^2) / x^4; 30 terms reach full precision for x < 2
_SERIES = tuple(
    tuple(num(m) / math.factorial(m) for m in range(k, k + 30))
    for k, num in ((1, lambda m: 1), (2, lambda m: 1), (4, lambda m: m * (m - 1) + 2 - 2**m))
)


def _mean_terms(x: float) -> tuple[float, float]:
    """g(x) = 1/x - 1/expm1(x) and its derivative f(x) = e^x / expm1(x)^2 - 1/x^2 for x >= 0.

    Below 2 both come from Taylor series, which have no cancellation for
    x >= 0 (g(0) = 1/2, f(0) = -1/12); from 2 up the direct forms lose at
    most two bits.  Past 700 the e^-x terms, below 1e-304, are dropped.
    """
    if x < 2.0:
        e, g, f = (functools.reduce(lambda acc, c: acc * x + c, reversed(coef)) for coef in _SERIES)
        return g / e, f / (e * e)
    em1 = math.expm1(min(x, 700.0))
    return 1.0 / x - 1.0 / em1, 1.0 / (em1 * -math.expm1(-x)) - 1.0 / (x * x)


def _sweep(points: list, epsilon: float, privacy_range: int, empty_message: str) -> list[SweepRow]:
    # one row per (varied value, kernel, support size) point
    if not points:
        raise SpecError(empty_message)
    rows = []
    for varied, kernel, s in points:
        delta_star, _, table = _worst_case(kernel, s, epsilon, privacy_range)
        m = _window_moments(table.ring[1:])
        rows.append(SweepRow(float(varied), delta_star, m.r1, m.r2))
    return rows


def sweep_support(kernel: Kernel, epsilon: float, privacy_range: int, s_list) -> list[SweepRow]:
    """One row (s, worst-case defect, r1, r2) per support size."""
    points = [(s, kernel, s) for s in _check_list("support sizes", s_list, "sizes")]
    return _sweep(points, epsilon, privacy_range, "support sweep needs at least one size")


def sweep_param(family: str, param_list, epsilon: float, privacy_range: int, s: int) -> list[SweepRow]:
    """One row per kernel parameter value at a fixed support size."""
    points = [(p, Kernel(family, p), s) for p in _check_list("kernel parameters", param_list, "numbers")]
    return _sweep(points, epsilon, privacy_range, "parameter sweep needs at least one value")
