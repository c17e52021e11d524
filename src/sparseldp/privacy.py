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
    _check_int,
    _check_real,
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


def pointwise_loss(spec: MechanismSpec, x: int, x_prime: int, y: int) -> float:
    """Log-likelihood ratio log Q(y|x) / Q(y|x_prime) on the support overlap."""
    sup, sup_prime = spec.support(x), spec.support(x_prime)
    if _check_int("output symbol", y) not in sup or y not in sup_prime:
        raise SpecError(f"output {y} is outside the support overlap of inputs {x} and {x_prime}")
    lw, lw_prime = spec._rows[x][1], spec._rows[x_prime][1]
    gap = float(lw[sup.index(y)] - lw_prime[sup_prime.index(y)])
    return gap + _log_normalizer(lw_prime) - _log_normalizer(lw)


def pure_ldp_epsilon(spec: MechanismSpec) -> PureLdpResult:
    """Exact smallest pure level, or a support-mismatch witness.

    Any output possible under x but impossible under x_prime makes the
    likelihood ratio infinite, so the level is finite iff all supports
    coincide; it is then the max pointwise loss over ordered pairs and
    shared outputs.  Either witness is the first found in the order x, then
    x_prime (inputs as declared), then y ascending: the first mismatch
    output, or the first strict maximum of the loss.
    """
    inputs = spec.inputs
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


def pure_ldp_bound(lam: float, diameter: float, log_normalizer_ratio: float = 0.0) -> float:
    """Upper bound lam * diameter + log-normalizer term on the exact pure level."""
    diameter = _check_real("diameter", diameter, "be >= 0")
    ratio = _check_real("log-normalizer ratio", log_normalizer_ratio, "be a finite number", lambda v: True)
    return Kernel.laplace(lam).param * diameter + ratio


def ordered_defect(spec: MechanismSpec, x: int, x_prime: int, epsilon: float) -> DefectBreakdown:
    """Exact defect of x against x_prime at level epsilon, split by failure mode.

    Support leakage is the mass of S(x) \\ S(x_prime) under x; overlap excess
    is the positive-part sum over shared outputs.  Positive parts use exact
    comparison, so a term that is exactly zero contributes nothing.  Every
    finite epsilon >= 0 is answered; from 709 up, e^eps q is exp(min(eps + log q, 700)).
    """
    epsilon = _check_epsilon(epsilon)
    p = spec.pmf(x)
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


class _WindowTable:
    """Prefix masses of every window of radius <= t_max for one kernel.

    `weights[j]` is the kernel weight W(j) at distance j = 0..t_max, the same
    floats `window_weights` gives.  `prefix[i]` is the mass of the i
    outermost offsets -t_max..-t_max+i-1, summed from the tail inwards, so
    the first m entries of the radius-t window weigh
    G_t(m) = prefix[t_max-t+m] - prefix[t_max-t] and its normalizer is
    C_t = G_t(2t+1).  Leakage and overlap excess at any (t, h) are then a
    few lookups, following the paper's split of the two-sum closed form.
    """

    def __init__(self, kernel: Kernel, t_max: int):
        self.kernel = kernel
        self.t_max = t_max
        self.weights = np.exp(kernel.log_weight(np.arange(t_max + 1, dtype=float)))
        ring = np.concatenate(([0.0], self.weights[:0:-1], self.weights))
        prefix = ring.cumsum()
        # each addition's rounding error, recovered exactly (TwoSum), is added
        # back, so every prefix is within about one rounding of its exact sum
        prev = np.concatenate(([0.0], prefix[:-1]))
        added = prefix - prev
        self.prefix = prefix + ((prev - (prefix - added)) + (ring - added)).cumsum()
        # Every prefix is within u (1 + n u) of its exact sum, n = len(prefix),
        # so each difference errs by at most that much of both its ends;
        # doubling covers the same quantity on any other table.
        self.rounding = 4.0 * 2.0**-53 * (1.0 + self.prefix.size * 2.0**-53)

    def positive_terms(self, t, h, epsilon: float):
        """K(h): the number of leading overlap terms w[h+k] - e^eps w[k] that are positive.

        Term k compares distances |h+k-t| and |k-t|.  With j = 2t - h - 2k its
        log-ratio is lam * min(h, j) (Laplace) or h * j / (2 sigma^2)
        (Gaussian): an exact integer times one float, so the comparison with
        epsilon is monotone in k and the positive terms are a prefix.  A
        log-ratio within 8 roundings of itself above epsilon, such as
        0.05 * 6 against 0.3, is a tie: its term is zero to the precision of
        the float weights, and counting it would only add rounding dust.  The
        comparison is never looser than the clean-regime tests of
        `calibration`, so there K is exactly 0.
        """
        t, h = np.asarray(t), np.asarray(h)
        param = self.kernel.param
        if self.kernel.family == LAPLACE:
            n = _least_integer_above(lambda n: param * n * _UNTIED, epsilon, epsilon / param, self.t_max + 1)
            if h.max(initial=0) < n:  # every separation is in the clean regime
                return np.zeros(np.broadcast(t, h).shape, dtype=int)
            j_min = np.where(h >= n, n, 2 * self.t_max + 2)
        else:
            two_var = 2.0 * param * param
            m = _least_integer_above(lambda m: m / two_var * _UNTIED, epsilon, epsilon * two_var, self.t_max**2 + 1)
            j_min = np.where(h > 0, -(-m // np.maximum(h, 1)), 2 * self.t_max + 2)
        # (2t - h - j_min) // 2 + 1 = t - ((h + j_min + 1) // 2 - 1); j_min = 2 t_max + 2: no term at any t
        return np.maximum(t - ((h + j_min + 1) // 2 - 1), 0)

    def breakdown(self, t, h, epsilon: float):
        """Leakage, overlap excess and K(h) of radius-t windows h apart, broadcast over arrays.

        Leakage is G_t(h) / C_t; the excess is (G_t(h+K) - G_t(h) - e^eps G_t(K)) / C_t,
        exactly 0 when K = 0 (and not computed when K is 0 at every (t, h)).  Every
        finite eps >= 0 is answered: e^eps G_t(K) is formed by `_times_exp`.  Separations
        beyond 2t read the window end, G_t(2t+1) = C_t, so they give exactly (1, 0), and
        K = 0 there because j_min >= 1.  K is what `error_bound` reads; others drop it.
        """
        t, h = np.asarray(t), np.asarray(h)
        p, a, end = self.prefix, self.t_max - t, self.t_max + 1 + t
        ah = np.minimum(a + h, end)  # the window end past 2t
        p_a, p_h, p_c = p[a], p[ah], p[end]
        c = p_c - p_a
        leakage = (p_h - p_a) / c
        k = self.positive_terms(t, h, epsilon)
        excess = np.zeros(leakage.shape)
        if k.any():
            excess = np.maximum(p[ah + k] - p_h - _times_exp(p[a + k] - p_a, epsilon), 0.0) / c  # 0 where k = 0
            excess = np.minimum(excess, 1.0 - leakage)  # so leakage + excess cannot round above 1
        return leakage, excess, k

    def error_bound(self, t, k, epsilon: float):
        """Per radius, how far a total `breakdown` gave can be from the same quantity on any table of this kernel.

        `t` holds ascending radii and `k` their rows of K(h) from `breakdown`.
        A total rounds by at most `rounding` times six prefixes, none past the
        window end, plus e^eps (p[a+K] + p[a]) where K > 0, over C_t
        (a = t_max - t).  The prefix is monotone, so a row's largest K covers
        it.  Where K > 0 and `_times_exp` takes logs (eps >= 709), it is inf.
        """
        p_a, p_end = self.prefix[self.t_max - t], self.prefix[self.t_max + 1 + t]
        ends = (6.0 * self.rounding) * p_end
        q = t[-1] - k[-1].max(initial=0)  # K = max(t - q(h), 0): the least q(h), so t - q is a row's largest K
        if q < t[-1]:
            i = t.searchsorted(q, "right")  # rows i.. have K > 0; p[a + t - q] = p[t_max - q]
            if epsilon < _EXP_LIMIT:  # finite: rounding * e^eps < 4e292 and no table holds 1e15 weights
                ends[i:] += (self.rounding * math.exp(epsilon)) * (self.prefix[self.t_max - q] + p_a[i:])
            else:
                ends[i:] = math.inf
        return ends / (p_end - p_a)


def _least_integer_above(ratio, epsilon: float, guess: float, cap: int) -> int:
    """Smallest integer n >= 1 with ratio(n) > epsilon, or `cap` if none is below it.

    `ratio` is nondecreasing and `guess` is epsilon solved in real numbers.
    Each carries at most about 3 roundings and `_UNTIED` shrinks the ratio by
    8, so ratio(floor(guess) - 1) <= epsilon and the search only steps up;
    ratio(0) = 0 <= epsilon, so the answer is at least 1.
    """
    if not guess < cap:
        return cap
    n = math.floor(guess)
    while not ratio(n) > epsilon:
        n += 1
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
    h = _check_int("separation", separation, 0)
    leakage, excess, _ = _WindowTable(kernel, t).breakdown(t, h, epsilon)
    return DefectBreakdown(float(leakage), float(excess))


def separation_profile(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[np.ndarray, np.ndarray]:
    """Leakage and overlap excess arrays over separations 0..privacy_range: `separation_breakdown`'s floats."""
    t = TruncatedParams(kernel, s).t
    epsilon = _check_epsilon(epsilon)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    return _WindowTable(kernel, t).breakdown(t, np.arange(privacy_range + 1), epsilon)[:2]


def worst_case_defect(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[float, int]:
    """Max separation defect over separations 0..privacy_range, with argmax.

    Every separation is evaluated at once from one radius-t prefix table
    (no monotonicity in the separation is assumed); separation 0
    contributes 0, ties break toward the smallest separation, and the
    values are those of `separation_breakdown`.  Separations past 2t + 1
    repeat its exact total of 1, so they are not evaluated.
    """
    return _worst_case(kernel, s, epsilon, privacy_range)[:2]


def _worst_case(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[float, int, _WindowTable]:
    """`worst_case_defect`'s value and argmax, with the radius-t table they were read from."""
    t = TruncatedParams(kernel, s).t
    epsilon = _check_epsilon(epsilon)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    table = _WindowTable(kernel, t)
    leakage, excess, _ = table.breakdown(t, np.arange(min(privacy_range, 2 * t + 1) + 1), epsilon)
    total = leakage + excess  # exactly 0 at separation 0, so the first argmax is 0 when nothing leaks
    return float(total.max()), int(total.argmax()), table


def gaussian_overlap_threshold(separation: int, sigma: float, epsilon: float) -> float:
    """Index threshold below which Gaussian overlap excess terms are positive.

    For window inputs `separation` = h apart, the overlap term at offset k is
    strictly positive exactly when k < h/2 - sigma^2 epsilon / h; a term that
    is exactly zero is classified as non-positive.
    """
    h = _check_int("separation", separation, 1)
    sigma = Kernel.gaussian(sigma).param
    epsilon = _check_epsilon(epsilon)
    return h / 2.0 - sigma * (sigma * epsilon) / h  # sigma * sigma alone can overflow
