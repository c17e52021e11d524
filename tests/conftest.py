"""Shared randomized-spec generators and reference oracles for the test suite."""

import math

import numpy as np

from sparseldp import Kernel, MechanismSpec, TruncatedParams, truncated_pmf
from sparseldp.privacy import _UNTIED

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


def distance(spec, x, y):
    """Distance from input x to output y, read from the spec's fields: |x - y| or the matrix entry."""
    if spec.distance is None:
        return float(abs(x - y))
    return spec.distance[spec.inputs.index(x)][spec.outputs.index(y)]


def log_weights(spec, x):
    """Input x's log kernel weights over S(x), one scalar `Kernel.log_weight(distance(...))` call each."""
    return np.array([spec.kernel.log_weight(distance(spec, x, y)) for y in spec.support(x)])


def log_normalizer(spec, x):
    """log of the sum of input x's kernel weights, shifted by its largest log-weight so it cannot underflow."""
    lw = log_weights(spec, x)
    return float(lw.max()) + math.log(float(np.exp(lw - lw.max()).sum()))


def log_ratio(spec, x, x_prime, y):
    """The pointwise loss log Q(y|x) / Q(y|x') at an output y of both supports, in `pure_ldp_epsilon`'s float steps."""
    gap = log_weights(spec, x)[spec.support(x).index(y)] - log_weights(spec, x_prime)[spec.support(x_prime).index(y)]
    return float(gap) + log_normalizer(spec, x_prime) - log_normalizer(spec, x)


def direct_pure_level(spec):
    """(finite, level, witness) by the scalar loop over ordered triples (x, x', y).

    Every log-weight is one scalar `Kernel.log_weight(distance(spec, x, y))`
    call, each log normalizer is shifted by its input's largest log-weight,
    and the first strict maximum in the order x, x', y wins.  The library's
    `pure_ldp_epsilon` must give the same floats from its per-input rows.
    """
    def log_w(x, y):
        return spec.kernel.log_weight(distance(spec, x, y))

    for x in spec.inputs:
        sup_x = spec.support(x)
        for x_prime in spec.inputs:
            if x == x_prime:
                continue
            sup_xp = set(spec.support(x_prime))
            for y in sup_x:
                if y not in sup_xp:
                    return False, None, (x, x_prime, y)
    log_z = {x: log_normalizer(spec, x) for x in spec.inputs}
    best, witness = 0.0, None
    for x in spec.inputs:
        for x_prime in spec.inputs:
            if x == x_prime:
                continue
            for y in spec.support(x):
                loss = log_w(x, y) - log_w(x_prime, y) + log_z[x_prime] - log_z[x]
                if loss > best:
                    best, witness = loss, (x, x_prime, y)
    return True, best, witness


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


def tie_rule_counts(kernel, epsilon, t, hs):
    """K(h) of the radius-t window at each separation in `hs`, by the engine's tie rule, term by term.

    Term k = 0..2t - h at separation h compares offsets h + k - t and k - t.
    With j = 2t - h - 2k its log-ratio is lam * min(h, j) (Laplace) or
    h * j / (2 sigma^2) (Gaussian), formed in the engine's float steps, and
    the term counts when that log-ratio times `_UNTIED` exceeds epsilon.
    Every term is evaluated: no prefix, interval or threshold is assumed.
    """
    h, k = np.asarray(hs)[:, None], np.arange(2 * t + 1)
    j = 2 * t - h - 2 * k
    if kernel.family == "laplace":
        ratio = kernel.param * np.minimum(h, j)
    else:
        ratio = h * j / (2.0 * kernel.param * kernel.param)
    return ((ratio * _UNTIED > epsilon) & (k <= 2 * t - h)).sum(axis=1)


def per_cell_error_bound(table, t, top, epsilon):
    """The exact per-cell rounding bound of the block totals of radius t at separations 1..top <= 2t.

    Each total rounds by at most `table.rounding` times the prefixes it
    reads, p[a+h] + p[a] + total (p[e] + p[a]), plus p[a+h+K] + p[a+h] +
    e^eps (p[a+K] + p[a]) where K > 0, over C_t; the table's per-radius
    `error_bound` must never be below it.  K comes from `tie_rule_counts`.
    """
    hs = np.arange(1, top + 1)
    total = table.breakdown(np.array([t]), hs, epsilon)[0][0]
    k = tie_rule_counts(table.kernel, epsilon, t, hs)
    p, a = table.prefix, table.t_max - t
    p_a, p_h, p_e = p[a], p[a + hs], p[table.t_max + 1 + t]
    e_eps = math.exp(epsilon) if epsilon < 709.0 else math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        ends = p_h + p_a + total * (p_e + p_a)
        ends += np.where(k > 0, p[a + hs + k] + p_h + e_eps * (p[a + k] + p_a), 0.0)
        return table.rounding * ends / (p_e - p_a)


def error_cap(table, t, epsilon):
    """rounding (6 + 2 e^eps) p[e] / C_t: the per-radius bound with every prefix at the window end."""
    p, end = table.prefix, table.t_max + 1 + t
    e_eps = math.exp(epsilon) if epsilon < 709.0 else math.inf
    return table.rounding * (6.0 + 2.0 * e_eps) * p[end] / (p[end] - p[table.t_max - t])


def plain_gap(p, q, epsilon):
    """p_y - e^eps q_y per output, p_y where q_y is 0, with e^eps from `math.exp`.

    The vector defect routes must give exactly these floats below eps = 709,
    where `math.exp` cannot overflow.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return np.where(q > 0.0, p - math.exp(epsilon) * q, p)


def one_shot_sample(mechanism, x, seed, n):
    """Seeded draws from one `rng.random(n)` and one `searchsorted` over all of them.

    The chunked `sample` must give exactly these draws: `Generator.random`
    continues one stream across calls.
    """
    masses = truncated_pmf(mechanism, x) if isinstance(mechanism, TruncatedParams) else mechanism.pmf(x)
    ys = np.array(sorted(masses), dtype=np.int64)
    cum = np.cumsum([masses[int(y)] for y in ys])
    idx = np.searchsorted(cum, np.random.default_rng(seed).random(n), side="right")
    return ys[np.minimum(idx, ys.size - 1)]
