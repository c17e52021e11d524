"""Shared randomized-spec generators for the test suite."""

import numpy as np

from sparseldp import Kernel, MechanismSpec

SYMBOLS = np.arange(-10, 11)


def random_kernel(rng):
    if rng.random() < 0.5:
        return Kernel.laplace(float(rng.uniform(0.1, 2.0)))
    return Kernel.gaussian(float(rng.uniform(0.5, 3.0)))


def random_spec(rng, max_outputs=12, allow_matrix=True):
    """A small random channel: random alphabets, supports, kernel, distance."""
    n_out = int(rng.integers(2, max_outputs + 1))
    outputs = sorted(int(v) for v in rng.choice(SYMBOLS, size=n_out, replace=False))
    n_in = int(rng.integers(2, 5))
    inputs = sorted(int(v) for v in rng.choice(SYMBOLS, size=n_in, replace=False))
    supports = {}
    for x in inputs:
        k = int(rng.integers(1, n_out + 1))
        supports[x] = sorted(int(v) for v in rng.choice(outputs, size=k, replace=False))
    distance = None
    if allow_matrix and rng.random() < 0.3:
        m = rng.uniform(0.0, 4.0, size=(n_in, n_out))
        for i, x in enumerate(inputs):
            if x in outputs:
                m[i][outputs.index(x)] = 0.0
        distance = tuple(tuple(float(v) for v in row) for row in m)
    return MechanismSpec(random_kernel(rng), tuple(inputs), tuple(outputs), supports, distance)


def random_common_support_spec(rng, max_outputs=10):
    """A random channel whose inputs all share one support set."""
    n_out = int(rng.integers(2, max_outputs + 1))
    outputs = sorted(int(v) for v in rng.choice(SYMBOLS, size=n_out, replace=False))
    n_in = int(rng.integers(2, 5))
    inputs = sorted(int(v) for v in rng.choice(SYMBOLS, size=n_in, replace=False))
    k = int(rng.integers(1, n_out + 1))
    common = sorted(int(v) for v in rng.choice(outputs, size=k, replace=False))
    supports = {x: common for x in inputs}
    return MechanismSpec(random_kernel(rng), tuple(inputs), tuple(outputs), supports)


def direct_breakdown(kernel, epsilon, radius, separation):
    """Window defect split (leakage, excess) by the direct per-separation formula.

    Builds the radius-t window from scratch and sums every overlap term in
    log domain; the library's prefix-sum engine must agree with it.
    """
    t, h = radius, separation
    if h > 2 * t:
        return 1.0, 0.0
    log_w = kernel.log_weight(np.abs(np.arange(-t, t + 1)).astype(float))
    w = np.exp(log_w)
    c = float(w.sum())
    leakage = float(w[:h].sum()) / c
    with np.errstate(over="ignore"):
        shifted = np.exp(epsilon + log_w[: 2 * t + 1 - h])
    excess = float(np.sum(np.maximum(w[h:] - shifted, 0.0))) / c
    return leakage, excess


def direct_worst_case(kernel, s, epsilon, privacy_range):
    """(max total, first argmax) over separations 1..range, one window per separation."""
    best, best_h = 0.0, 0
    for h in range(1, privacy_range + 1):
        leakage, excess = direct_breakdown(kernel, epsilon, (s - 1) // 2, h)
        if leakage + excess > best:
            best, best_h = leakage + excess, h
    return best, best_h


def direct_design(kernel, epsilon, delta, privacy_range, s_max):
    """(first odd size meeting delta or None, last size scanned), scanning one size at a time."""
    start = 1 if delta >= 1.0 else privacy_range + 1 + privacy_range % 2
    scanned = 0
    for s in range(start, s_max + 1, 2):
        scanned = s
        if direct_worst_case(kernel, s, epsilon, privacy_range)[0] <= delta:
            return s, scanned
    return None, scanned
