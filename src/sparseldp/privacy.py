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
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    _check_epsilon,
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


def pointwise_loss(spec: MechanismSpec, x: int, x_prime: int, y: int) -> float:
    """Log-likelihood ratio log Q(y|x) / Q(y|x_prime) on the support overlap."""
    if y not in spec.support(x) or y not in spec.support(x_prime):
        raise SpecError(f"output {y} is outside the support overlap of inputs {x} and {x_prime}")
    lw = spec.kernel.log_weight
    return (
        lw(spec.dist(x, y))
        - lw(spec.dist(x_prime, y))
        + math.log(spec.normalizer(x_prime) / spec.normalizer(x))
    )


def pure_ldp_epsilon(spec: MechanismSpec) -> PureLdpResult:
    """Exact smallest pure level, or a support-mismatch witness.

    Any output possible under x but impossible under x_prime makes the
    likelihood ratio infinite, so the level is finite iff all supports
    coincide; it is then the max pointwise loss over ordered pairs and
    shared outputs.
    """
    for x in spec.inputs:
        sup_x = spec.support(x)
        for x_prime in spec.inputs:
            if x == x_prime:
                continue
            sup_xp = set(spec.support(x_prime))
            for y in sup_x:
                if y not in sup_xp:
                    return PureLdpResult(False, None, (x, x_prime, y))
    log_z = {x: math.log(spec.normalizer(x)) for x in spec.inputs}
    lw = spec.kernel.log_weight
    best = 0.0
    witness = None
    for x in spec.inputs:
        for x_prime in spec.inputs:
            if x == x_prime:
                continue
            for y in spec.support(x):
                loss = lw(spec.dist(x, y)) - lw(spec.dist(x_prime, y)) + log_z[x_prime] - log_z[x]
                if loss > best:
                    best, witness = loss, (x, x_prime, y)
    return PureLdpResult(True, best, witness)


def pure_ldp_bound(lam: float, diameter: float, log_normalizer_ratio: float = 0.0) -> float:
    """Upper bound lam * diameter + log-normalizer term on the exact pure level."""
    if diameter < 0:
        raise SpecError(f"diameter must be >= 0, got {diameter}")
    return lam * diameter + log_normalizer_ratio


def ordered_defect(spec: MechanismSpec, x: int, x_prime: int, epsilon: float) -> DefectBreakdown:
    """Exact defect of x against x_prime at level epsilon, split by failure mode.

    Support leakage is the mass of S(x) \\ S(x_prime) under x; overlap excess
    is the positive-part sum over shared outputs.  Positive parts use exact
    comparison, so a term that is exactly zero contributes nothing.
    """
    epsilon = _check_epsilon(epsilon)
    p = spec.pmf(x)
    q = spec.pmf(x_prime)
    e_eps = math.exp(epsilon)
    leakage = 0.0
    excess = 0.0
    for y, py in p.items():
        qy = q.get(y)
        if qy is None:
            leakage += py
        else:
            # qy can underflow to 0.0; e^eps * 0 is exactly 0 for finite eps
            excess += max(0.0, py - e_eps * qy) if qy > 0.0 else py
    return DefectBreakdown(leakage, excess)


def _check_prob_vectors(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise SpecError("p and q must be one-dimensional vectors of equal length")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0) or abs(float(v.sum()) - 1.0) > 1e-9:
            raise SpecError(f"{name} is not a probability vector (nonnegative, summing to 1)")
    return p, q


def brute_force_defect(p, q, epsilon: float) -> float:
    """Positive-part divergence sum over a common output list.

    Independent of the support-based decomposition: takes two plain
    probability vectors and sums max(0, p_y - e^eps q_y).
    """
    epsilon = _check_epsilon(epsilon)
    p, q = _check_prob_vectors(p, q)
    gap = np.where(q > 0.0, p - math.exp(epsilon) * q, p)
    return float(np.sum(np.maximum(gap, 0.0)))


def exhaustive_event_defect(p, q, epsilon: float) -> float:
    """Max over all output events of p(A) - e^eps q(A), by full enumeration.

    Third route to the same quantity as `brute_force_defect`, kept separate
    so each can check the other.  Exponential in the alphabet size.
    """
    epsilon = _check_epsilon(epsilon)
    p, q = _check_prob_vectors(p, q)
    m = p.shape[0]
    if m > 16:
        raise SpecError(f"event enumeration is limited to 16 outputs, got {m}")
    gap = np.where(q > 0.0, p - math.exp(epsilon) * q, p)
    masks = (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)) & 1
    return float(np.max(masks @ gap))


def separation_breakdown(kernel: Kernel, epsilon: float, radius: int, separation: int) -> DefectBreakdown:
    """Defect between window-family inputs `separation` apart, split by mode.

    Separations beyond twice the radius make the windows disjoint and leak
    everything, returning exactly (1, 0).  Otherwise the leakage is the low
    tail of the window and the excess terms are evaluated in log domain so a
    mathematically zero term cannot round up to a positive one.
    """
    epsilon = _check_epsilon(epsilon)
    t = _check_int("radius", radius, 0)
    h = _check_int("separation", separation, 0)
    if h > 2 * t:
        return DefectBreakdown(1.0, 0.0)
    log_w = kernel.log_weight(np.abs(np.arange(-t, t + 1)).astype(float))
    w = np.exp(log_w)
    c = float(w.sum())
    leakage = float(w[:h].sum()) / c
    shifted = np.exp(epsilon + log_w[: 2 * t + 1 - h])
    excess = float(np.sum(np.maximum(w[h:] - shifted, 0.0))) / c
    return DefectBreakdown(leakage, excess)


def worst_case_defect(kernel: Kernel, s: int, epsilon: float, privacy_range: int) -> tuple[float, int]:
    """Max separation defect over separations 0..privacy_range, with argmax.

    Full scan (no monotonicity in the separation is assumed); separation 0
    contributes 0 and ties break toward the smallest separation.
    """
    params = TruncatedParams(kernel, s)
    epsilon = _check_epsilon(epsilon)
    privacy_range = _check_int("privacy range", privacy_range, 0)
    best, best_h = 0.0, 0
    for h in range(1, privacy_range + 1):
        value = separation_breakdown(kernel, epsilon, params.t, h).total
        if value > best:
            best, best_h = value, h
    return best, best_h


def gaussian_overlap_threshold(separation: int, sigma: float, epsilon: float) -> float:
    """Index threshold below which Gaussian overlap excess terms are positive.

    For window inputs `separation` = h apart, the overlap term at offset k is
    strictly positive exactly when k < h/2 - sigma^2 epsilon / h; a term that
    is exactly zero is classified as non-positive.
    """
    h = _check_int("separation", separation, 1)
    return h / 2.0 - (sigma * sigma * epsilon) / h
