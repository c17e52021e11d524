"""Exact privacy guarantees for sparse channels.

A pure guarantee exists only when every input shares the same support;
otherwise the guarantee is approximate and the per-pair defect splits into
mass on outputs the reference input cannot produce (support leakage) plus
the positive-part excess on shared outputs (overlap excess).  For the
translation-invariant window families, the defect depends only on the input
separation and has a two-sum closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import (
    LAPLACE,
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    _check_epsilon,
    _check_instance,
    _check_int,
)


@dataclass(frozen=True)
class DefectBreakdown:
    """Per-pair privacy defect split by failure mode; total is the sum."""

    support_leakage: float
    overlap_excess: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.support_leakage + self.overlap_excess)


@dataclass(frozen=True)
class PureLdpResult:
    """Outcome of the exact pure-guarantee computation.

    `finite` is False when some ordered input pair has a support-mismatch
    output, in which case `witness` is one such (x, x_prime, y) and
    `epsilon_star` is None.  When finite, `epsilon_star` is the exact
    smallest level and `witness` attains it (None for single-input channels).
    """

    finite: bool
    epsilon_star: float | None
    witness: tuple[int, int, int] | None


def _log_normalizer(row: np.ndarray) -> float:
    """log sum exp(row), shifted by the row's max so it is finite however small the weights."""
    m = float(row.max())
    return m + math.log(float(np.exp(row - m).sum()))


def pure_ldp_epsilon(spec: MechanismSpec) -> PureLdpResult:
    """Exact smallest pure level, or a support-mismatch witness.

    Any output possible under x but impossible under x_prime makes the
    likelihood ratio infinite, so the level is finite iff all supports
    coincide; it is then the max pointwise loss over ordered pairs and
    shared outputs.  Either witness is the first found in the order x, then
    x_prime (inputs as declared), then y ascending: the first mismatch
    output, or the first strict maximum of the loss.
    """
    inputs = _check_instance("channel", spec, MechanismSpec).inputs
    common = spec.support(inputs[0])
    if any(spec.support(x) != common for x in inputs):
        member = np.zeros((len(inputs), len(spec.outputs)), dtype=bool)  # row input, column output
        for i, x in enumerate(inputs):
            member[i, spec._rows[x][0]] = True
        for i, x in enumerate(inputs):
            missing = member[i] & ~member  # row x_prime: outputs of x that x_prime cannot produce
            if missing.any():
                j = int(np.argmax(missing.any(axis=1)))
                return PureLdpResult(False, None, (x, inputs[j], min(y for y, m in zip(spec.outputs, missing[j]) if m)))
    lw = np.array([spec._rows[x][1] for x in inputs])
    log_z = np.array([_log_normalizer(row) for row in lw])
    best = 0.0
    witness = None
    for i, x in enumerate(inputs):
        loss = (lw[i] - lw) + log_z[:, None] - log_z[i]  # row x_prime, column y
        j = int(np.argmax(loss))
        if loss.flat[j] > best:
            best, witness = float(loss.flat[j]), (x, inputs[j // len(common)], common[j % len(common)])
    return PureLdpResult(True, best, witness)


def ordered_defect(spec: MechanismSpec, x: int, x_prime: int, epsilon: float) -> DefectBreakdown:
    """Exact defect of x against x_prime at level epsilon, split by failure mode.

    Support leakage is the mass of S(x) \\ S(x_prime) under x; overlap excess
    is the positive-part sum over shared outputs.  Positive parts use exact
    comparison, so a term that is exactly zero contributes nothing.  Every
    finite epsilon >= 0 is answered; from 709 up, e^eps q is exp(min(eps + log q, 700)).
    """
    epsilon = _check_epsilon(epsilon)
    p = _check_instance("channel", spec, MechanismSpec).pmf(x)
    q = spec.pmf(x_prime)
    shifted = dict(zip(q, _times_exp(np.array(list(q.values())), epsilon).tolist()))
    leakage = excess = 0.0
    for y, py in p.items():
        qy = q.get(y)
        if qy is None:
            leakage += py
        else:  # qy can underflow to 0.0, where the whole py is excess
            excess += max(0.0, py - shifted[y]) if qy > 0.0 else py
    return DefectBreakdown(leakage, excess)


def _gap(p, q, epsilon: float) -> np.ndarray:
    """p_y - e^eps q_y per output (p_y where q_y is 0), after checking that p and q are probability vectors."""
    epsilon = _check_epsilon(epsilon)
    try:
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SpecError("p and q must be vectors of real numbers within float range") from None
    if p.ndim != 1 or p.shape != q.shape:
        raise SpecError("p and q must be one-dimensional vectors of equal length")
    for name, v in (("p", p), ("q", q)):
        if not (np.all(v >= 0) and abs(float(v.sum()) - 1.0) <= 1e-9):  # NaN fails both
            raise SpecError(f"{name} is not a probability vector (nonnegative, summing to 1)")
    return np.where(q > 0.0, p - _times_exp(q, epsilon), p)


def brute_force_defect(p, q, epsilon: float) -> float:
    """Positive-part divergence sum over a common output list.

    Independent of the support-based decomposition: takes two plain
    probability vectors and sums max(0, p_y - e^eps q_y).  Every finite
    epsilon >= 0 is answered; from 709 up, e^eps q is exp(min(eps + log q, 700)).
    """
    return float(np.sum(np.maximum(_gap(p, q, epsilon), 0.0)))


def exhaustive_event_defect(p, q, epsilon: float) -> float:
    """Max over all output events of p(A) - e^eps q(A), by full enumeration.

    Third route to the same quantity as `brute_force_defect`, kept separate
    so each can check the other.  Exponential in the alphabet size.  Every
    finite epsilon >= 0 is answered; from 709 up, e^eps q is exp(min(eps + log q, 700)).
    """
    gap = _gap(p, q, epsilon)
    if gap.size > 16:
        raise SpecError(f"event enumeration is limited to 16 outputs, got {gap.size}")
    masks = (np.arange(1 << gap.size, dtype=np.int64)[:, None] >> np.arange(gap.size)) & 1
    return float(np.max(masks @ gap))


def _times_exp(mass: np.ndarray, epsilon: float) -> np.ndarray:
    """e^eps * mass: the plain product below eps = 709, else exp(min(eps + log mass, 700)), 0 where mass is 0."""
    if epsilon < _EXP_LIMIT:
        return mass * math.exp(epsilon)
    with np.errstate(divide="ignore"):  # e^700 = 1e304 exceeds every mass, and 16 of them still sum finitely
        return np.exp(np.minimum(epsilon + np.log(mass), 700.0))


_EXP_LIMIT = 709.0  # e^eps overflows past 709.78
# a log-ratio must beat epsilon after shrinking by 8 roundings to count as positive
_UNTIED = 1.0 - 2.0**-50
_NO_TERMS = (np.arange(0), np.arange(0))  # `positive_terms` of an empty interval


class _WindowTable:
    """Prefix masses of every window of radius <= t_max for one kernel.

    `ring` is 0 and then the radius-t_max window W(t_max), ..., W(0), ..., W(t_max), the kernel
    weights at each offset, the same floats `window_weights` gives.  `prefix[i]` is the mass
    of the i outermost offsets -t_max..-t_max+i-1, summed from the tail inwards, so the first
    m entries of the radius-t window weigh G_t(m) = prefix[t_max-t+m] - prefix[t_max-t] and
    its normalizer is C_t = G_t(2t+1).  Leakage and overlap excess then follow the paper's split
    of the two-sum closed form: `separations` reads every separation at t = t_max from one slice,
    and `breakdown` reads the design scan's blocks of smaller radii, each row with its rounding
    bound; both take K from `positive_terms`.
    """

    def __init__(self, kernel: Kernel, t_max: int):
        self.kernel, self.t_max = kernel, t_max
        self.ring = ring = np.zeros(2 * t_max + 2)
        np.exp(kernel.log_weight(np.arange(t_max + 1, dtype=float)), out=ring[t_max + 1 :])
        ring[1 : t_max + 1] = ring[: t_max + 1 : -1]
        prefix, added = ring.cumsum(), np.zeros(ring.size)
        # TwoSum: each addition's exact rounding error, (prev - (prefix - added)) + (ring - added) with
        # added = prefix - prev and prev the prefix one place back (0 at entry 0), is added back
        np.subtract(prefix[1:], prefix[:-1], out=added[1:])
        err = prefix - added
        np.subtract(prefix[:-1], err[1:], out=err[1:])
        err += np.subtract(ring, added, out=added)
        self.prefix = np.add(prefix, err.cumsum(out=err), out=prefix)
        # Every prefix is within u (1 + n u) of its exact sum, n = len(prefix),
        # so each difference errs by at most that much of both its ends;
        # doubling covers the same quantity on any other table.
        self.rounding = 4.0 * 2.0**-53 * (1.0 + self.prefix.size * 2.0**-53)

    def positive_terms(self, t: int, top: int, epsilon: float):
        """(h, K): the separations h = lo..hi <= top where the radius-t window has K(h) > 0, and K(h) there.

        K(h) counts the leading overlap terms w[h+k] - e^eps w[k] that are positive.  Term k
        compares distances |h+k-t| and |k-t|.  With j = 2t - h - 2k its log-ratio is
        lam * min(h, j) (Laplace) or h * j / (2 sigma^2) (Gaussian): an exact integer times one
        float, so the comparison with epsilon is monotone in k and the positive terms are a prefix.
        A log-ratio within 8 roundings of itself above epsilon, such as 0.05 * 6 against 0.3, is a
        tie: its term is zero to the precision of the float weights, and counting it would only add
        rounding dust.  The threshold is `_overlap_threshold`'s n or m, which the clean-regime tests
        of `calibration` also read, so K is exactly 0 wherever they hold.  K > 0 exactly for
        |h - t| <= d, with d = t - n (h in [n, 2t - n], Laplace) or d = isqrt(t^2 - m)
        (h (2t - h) >= m, Gaussian), and there K(h) = t + 1 - (h + j_min + 1) // 2 for j_min = n
        or ceil(m / h).  A radius t' < t has K lower by t - t', on a sub-interval.
        """
        threshold, laplace = _overlap_threshold(self.kernel, epsilon, t), self.kernel.family == LAPLACE
        d = t - threshold if laplace else math.isqrt(t * t - threshold) if threshold <= t * t else -1
        lo, hi = t - d, min(t + d, top)
        if hi < lo:
            return _NO_TERMS
        h = np.arange(lo, hi + 1)
        j_min = threshold if laplace else -np.floor_divide(-threshold, h)  # n, or ceil(m / h)
        return h, (t + 1) - (h + (j_min + 1)) // 2

    def separations(self, top: int, epsilon: float):
        """(leakage, excess, lo) of the radius-t_max window at separations 0..top <= 2 t_max + 1.

        prefix[0] is exactly 0, so the leakage G_t(h) / C_t is one slice prefix[:top+1] / C_t.  The excess,
        (G_t(h+K) - G_t(h) - e^eps G_t(K)) / C_t, is formed only where K(h) > 0 (`positive_terms`) and returned
        as excess[i] at separation lo + i; it is exactly 0 elsewhere.  Every finite eps >= 0 is answered:
        e^eps G_t(K) is formed by `_times_exp`.
        """
        p, c = self.prefix, self.prefix[2 * self.t_max + 1]
        leakage = p[: top + 1] / c
        h, k = self.positive_terms(self.t_max, top, epsilon)
        if not k.size:
            return leakage, leakage[:0], 0
        lo, hi = int(h[0]), int(h[-1])
        shifted = _times_exp(p[k], epsilon)  # e^eps G_t(K)
        excess = np.maximum(p[h + k] - p[lo : hi + 1] - shifted, 0.0) / c
        np.minimum(excess, np.subtract(1.0, leakage[lo : hi + 1], out=shifted), out=excess)  # leakage + excess <= 1
        return leakage, excess, lo

    def breakdown(self, t: np.ndarray, hs: np.ndarray, epsilon: float):
        """The design scan's block read: (totals, bounds) of ascending radii t over separations hs = 1..top.

        2 t[0] >= top, so no separation passes a window end.  Row i holds the leakage + excess of radius t[i],
        as `separations` forms them, from this table's prefixes.  The excess is formed only on t[-1]'s K > 0
        interval, where row i's K is t[-1]'s less t[-1] - t[i], clamped at 0.  bounds[i] is how far row i can
        be from the same quantity on any table of this kernel: `rounding` times six prefixes, none past the
        window end, plus e^eps (p[a+K] + p[a]) where K > 0, over C_t (a = t_max - t).  The prefix is monotone,
        so a row's largest K covers it.  Where K > 0 and `_times_exp` takes logs (eps >= 709), it is inf.
        """
        p, a = self.prefix, self.t_max - t[:, None]
        p_a, p_end = p[a], p[self.t_max + 1 + t[:, None]]
        c = p_end - p_a
        totals, ends = (p[a + hs] - p_a) / c, (6.0 * self.rounding) * p_end
        h, k = self.positive_terms(int(t[-1]), hs.size, epsilon)
        if k.size:
            rows = np.maximum(k - (t[-1] - t[:, None]), 0)
            cols = slice(h[0] - 1, h[-1])  # hs[cols] is h
            p_h = p[a + h]
            excess = np.maximum(p[a + h + rows] - p_h - _times_exp(p[a + rows] - p_a, epsilon), 0.0) / c
            totals[:, cols] += np.minimum(excess, 1.0 - totals[:, cols], out=excess)  # so a total cannot round above 1
            q = t[-1] - k.max()  # row i's largest K is t[i] - q, so rows i.. have K > 0; p[a + t - q] = p[t_max - q]
            i = t.searchsorted(q, "right")
            if epsilon < _EXP_LIMIT:  # finite: rounding * e^eps < 4e292 and no table holds 1e15 weights
                ends[i:] += (self.rounding * math.exp(epsilon)) * (p[self.t_max - q] + p_a[i:])
            else:
                ends[i:] = math.inf
        return totals, (ends / c).ravel()


def _overlap_threshold(kernel: Kernel, epsilon: float, t_max: int) -> int:
    """`positive_terms`' threshold: the least n with lam * n, or m with m / (2 sigma^2), above epsilon untied.

    Capped at t_max + 1 or t_max^2 + 1.  On windows of radius t >= R, no term up to separation R
    is positive exactly when R < n (for R <= t_max) or R (2t - R) < m (for t <= t_max).
    """
    param = kernel.param
    if kernel.family == LAPLACE:
        return _least_integer_above(lambda n: param * n * _UNTIED, epsilon, epsilon / param, t_max + 1)
    two_var = 2.0 * param * param
    return _least_integer_above(lambda m: m / two_var * _UNTIED, epsilon, epsilon * two_var, t_max**2 + 1)


def _least_integer_above(ratio, epsilon: float, guess: float, cap: int) -> int:
    """Smallest integer n >= 1 with ratio(n) > epsilon, or `cap` if none is below it.

    `ratio` is nondecreasing and `guess` is epsilon solved in real numbers.
    Each carries at most about 3 roundings and `_UNTIED` shrinks the ratio by
    8, so ratio(floor(guess) - 1) <= epsilon and the search only steps up,
    in doubling strides and then by bisection, since near guess = 2^100 the
    answer is some 2^50 integers up; ratio(0) = 0 <= epsilon, so it is >= 1.
    """
    if not guess < cap:
        return cap
    below, n, step = math.floor(guess) - 1, math.floor(guess), 1  # ratio(below) <= epsilon throughout
    while not ratio(n) > epsilon:
        below, n, step = n, n + step, 2 * step
    while n - below > 1:
        mid = (below + n) // 2
        below, n = (below, mid) if ratio(mid) > epsilon else (mid, n)
    return n


def separation_breakdown(kernel: Kernel, epsilon: float, radius: int, separation: int) -> DefectBreakdown:
    """Defect between window-family inputs `separation` apart, split by mode.

    Separations beyond twice the radius make the windows disjoint and leak
    everything, returning exactly (1, 0).  Otherwise the leakage is the
    window's low tail G_t(h) / C_t and the overlap excess is the sum of the
    K(h) positive terms, (G_t(h+K) - G_t(h) - e^eps G_t(K)) / C_t, read from
    the prefix sums of one radius-t table.  K(h) comes from an exact integer
    comparison, so the excess is exactly 0 whenever no term is positive.
    Gives the same floats as `worst_case_defect` at every separation.
    """
    epsilon = _check_epsilon(epsilon)
    t = _check_int("radius", radius, 0)
    top = min(_check_int("separation", separation, 0), 2 * t + 1)  # disjoint past 2t + 1, as at 2t + 1: (1, 0)
    leakage, excess, lo = _WindowTable(_check_instance("kernel", kernel, Kernel), t).separations(top, epsilon)
    return DefectBreakdown(float(leakage[top]), float(excess[top - lo]) if top - lo < excess.size else 0.0)


def separation_profile(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[np.ndarray, np.ndarray]:
    """Leakage and overlap excess arrays over separations 0..privacy_range: `separation_breakdown`'s floats."""
    t = TruncatedParams(kernel, s).t
    epsilon = _check_epsilon(epsilon)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    top = min(privacy_range, 2 * t + 1)  # separations past 2t + 1 are disjoint: (1, 0), as at 2t + 1
    part, segment, lo = _WindowTable(kernel, t).separations(top, epsilon)
    leakage, excess = np.ones(privacy_range + 1), np.zeros(privacy_range + 1)
    leakage[: top + 1], excess[lo : lo + segment.size] = part, segment
    return leakage, excess


def worst_case_defect(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[float, int]:
    """Max separation defect over separations 0..privacy_range, with argmax.

    Every separation is read at once from one radius-t prefix table (no monotonicity in the separation is
    assumed): the leakage as one prefix slice over C_t, the overlap excess only on the interval of
    separations with a positive term (`_WindowTable.separations`).  Separation 0 contributes 0, ties break
    toward the smallest separation, and the values are those of `separation_breakdown`.  Separations past
    2t + 1 repeat its exact total of 1, so they are not evaluated.
    """
    return _worst_case(kernel, s, epsilon, privacy_range)[:2]


def _worst_case(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[float, int, _WindowTable]:
    """`worst_case_defect`'s value and argmax, with the radius-t table they were read from."""
    t = TruncatedParams(kernel, s).t
    epsilon = _check_epsilon(epsilon)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    table = _WindowTable(kernel, t)
    total, excess, lo = table.separations(min(privacy_range, 2 * t + 1), epsilon)
    total[lo : lo + excess.size] += excess  # exactly 0 at separation 0, so the first argmax is 0 when nothing leaks
    return float(total.max()), int(total.argmax()), table
