"""Seeded query pools for the three benchmark workloads.

A pool is a list of rounds.  Every round has the same skeleton: the same
number of queries of each kind, and within a kind the same sizes drawn from
the same ranges.  Those draws are stratified across each block of rounds
(see `Draws`), so a run of a few blocks covers every range evenly and the
work per round, hence every end-to-end figure, hardly depends on the seed.
The seed picks the values within the strata, families, kernel parameters,
epsilon, delta, alphabets, supports and distances, and the order of the
queries inside each round.

Queries are plain dicts of JSON values.  The benchmark builds the same pool
from the same seed twice: once in the worker that feeds it to sparseldp, and
once in the checker that recomputes every answer with its own reference.
Nothing here imports sparseldp.
"""

from __future__ import annotations

import math
import random

LAPLACE = "laplace"
GAUSSIAN = "gaussian"
FAMILIES = (LAPLACE, GAUSSIAN)

# Rounds per pool; a traced run that gets through the whole pool starts it
# again.  A measured run takes the first RUN_ROUNDS rounds: whole blocks of
# stratified rounds, at least 100 queries.
POOL_ROUNDS = {"window-scan": 120, "spec-audit": 48, "cli-session": 20}
RUN_ROUNDS = {"window-scan": 6, "spec-audit": 12, "cli-session": 10}
BLOCK_ROUNDS = {"window-scan": 6, "spec-audit": 6, "cli-session": 5}


class Draws:
    """Uniform draws stratified across each block of `block` rounds.

    Over a block, the i-th stratified draw of a round takes each of the
    `block` equal parts of [0, 1) once, in a seeded order (a Latin
    hypercube over rounds).  Each query takes one such draw for the size
    that sets its cost; `rng` serves every other draw.
    """

    def __init__(self, rng: random.Random, block: int):
        self.rng = rng
        self.block = block
        self.rounds = -1
        self.perms: list[list[int]] = []
        self.i = 0

    def start_round(self) -> None:
        self.rounds += 1
        self.i = 0
        if self.rounds % self.block == 0:
            self.perms = []

    def u(self) -> float:
        if self.i == len(self.perms):
            self.perms.append(self.rng.sample(range(self.block), self.block))
        part = self.perms[self.i][self.rounds % self.block]
        self.i += 1
        return (part + self.rng.random()) / self.block

    def part(self, lo: float, hi: float, k: int, n: int) -> float:
        """Stratified uniform on the k-th of n equal parts of [lo, hi]."""
        return lo + (hi - lo) * (k + self.u()) / n


def _odd(x: float) -> int:
    n = int(round(x))
    return n if n % 2 else n + 1


def _window_kernel(rng: random.Random, t: int, r: int, eps: float) -> tuple[str, float]:
    """A kernel for a radius-t window with range r, in or out of the clean regime.

    Laplace: lam * r spans [0.3, 3] times eps.  Gaussian: sigma spans half to
    twice the width at which the overlap condition eps >= r(2t - r)/(2 sigma^2)
    holds with equality.  Both keep the per-separation defects well apart, so
    the argmax separation is not decided by rounding.
    """
    family = rng.choice(FAMILIES)
    if family == LAPLACE:
        return family, eps * _log_uniform(rng, 0.3, 3.0) / r
    edge = math.sqrt(r * (2 * t - r) / (2.0 * eps))
    return family, edge * _log_uniform(rng, 0.5, 2.0)


# -- window-scan -------------------------------------------------------------

WORST_PER_ROUND = 4


def _worst(d: Draws, k: int) -> dict:
    """Worst-case query with s in the k-th stratum of [501, 4001] and range (s - 1) / 2."""
    s = min(_odd(d.part(501, 4001, k, WORST_PER_ROUND)), 4001)
    r = (s - 1) // 2
    eps = d.rng.uniform(0.5, 2.0)
    family, param = _window_kernel(d.rng, (s - 1) // 2, r, eps)
    return {"op": "worst", "family": family, "param": param, "s": s, "eps": eps, "range": r}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _design(d: Draws, kind: str) -> dict:
    """One design query of the given class; the outcome depends on the draw.

    One stratified draw `u` sets the scan length, and so the cost, of each
    class; the other parameters come from the plain generator.
    """
    rng, u, s_max = d.rng, d.u(), None
    if kind == "laplace-clean-small":
        family, param, r = LAPLACE, 0.2 * 5.0 ** (1.0 - u), rng.randint(1, 4)
        eps, delta = param * r * rng.uniform(1.0, 2.5), _log_uniform(rng, 1e-12, 1e-2)
    elif kind == "laplace-clean-wide":
        # lam from the Laplace tail bound, so the search ends near size `target`
        # whatever delta is; delta below about 1e-9 meets the scan limit.
        target, r = 150 + 500 * u, 4 + round(6 * u)
        delta = _log_uniform(rng, 1e-12, 1e-2)
        family, param = LAPLACE, 2.0 * math.log(r / delta) / (target - 2 * r + 1)
        eps = param * r * rng.uniform(1.0, 2.5)
    elif kind == "laplace-overlap":
        family, param, r = LAPLACE, 0.1 * 5.0 ** (1.0 - u), rng.randint(2, 8)
        eps, delta = param * r * rng.uniform(0.5, 0.9), _log_uniform(rng, 0.1, 0.6)
    elif kind == "gaussian-wide":
        r, eps = rng.randint(1, 4), rng.uniform(1.0, 3.0)
        family, param = GAUSSIAN, r * (3.0 + 5.0 * u) / eps
        delta = _log_uniform(rng, 1e-8, 1e-2)
    elif kind == "gaussian-plateau":
        family, param, r = GAUSSIAN, 3.0 + 2.0 * u, 4 + round(4 * u)
        eps, delta = rng.uniform(0.3, 1.5), _log_uniform(rng, 1e-6, 1e-2)
    else:  # "disjoint": scan limit below the disjointness threshold
        family, r = rng.choice(FAMILIES), 5 + round(35 * u)
        param = _log_uniform(rng, 0.05, 1.0) if family == LAPLACE else rng.uniform(1.0, 10.0)
        eps, delta = rng.uniform(0.5, 2.0), _log_uniform(rng, 1e-6, 0.1)
        s_max = _odd(rng.uniform(1, r - 2))
    return {"op": "design", "family": family, "param": param, "eps": eps, "delta": delta,
            "range": r, "s_max": s_max}


# Most designs are feasible; the Gaussian plateau and the disjointness
# classes are proven infeasible.  Per round, six designs below about 30 ms,
# five Laplace designs of 10-60 ms and six heavier worst-case and sweep
# queries keep the median latency inside one class.
DESIGN_KINDS = ("disjoint", "laplace-clean-small", "laplace-overlap", "gaussian-wide") \
    + ("gaussian-plateau",) * 2 + ("laplace-clean-wide",) * 5


def _sweep_support(d: Draws, r_range: tuple[int, int], step: int, count: int) -> dict:
    u = d.u()
    r = round(r_range[0] + (r_range[1] - r_range[0]) * u)
    s_list = [_odd(2 * r + 1 + k * step) for k in range(count)]
    eps = d.rng.uniform(0.5, 2.0)
    family, param = _window_kernel(d.rng, (s_list[count // 2] - 1) // 2, r, eps)
    return {"op": "sweep_support", "family": family, "param": param, "eps": eps, "range": r,
            "s_list": s_list}


def _sweep_param(d: Draws, s_range: tuple[int, int], r_range: tuple[int, int], count: int) -> dict:
    u = d.u()
    s = _odd(s_range[0] + (s_range[1] - s_range[0]) * u)
    r = round(r_range[0] + (r_range[1] - r_range[0]) * u)
    eps = d.rng.uniform(0.5, 2.0)
    family, mid = _window_kernel(d.rng, (s - 1) // 2, r, eps)
    params = [mid * 2.0 ** ((k - (count - 1) / 2) / 2) for k in range(count)]
    return {"op": "sweep_param", "family": family, "param_list": params, "eps": eps, "range": r, "s": s}


def _window_scan_round(d: Draws) -> list[dict]:
    queries = [_worst(d, k) for k in range(WORST_PER_ROUND)]
    queries += [_design(d, kind) for kind in DESIGN_KINDS]
    queries.append(_sweep_support(d, (250, 400), 300, 6))
    queries.append(_sweep_param(d, (1201, 2001), (350, 550), 6))
    return queries


# -- spec-audit --------------------------------------------------------------

# Whether each shared-support channel, by stratum of |X| in [8, 48], carries
# a distance matrix; and the number of windowed channels, also stratified.
SHARED_MATRIX = (False, True, False, True, False)
WINDOWED_PER_ROUND = 4


def _spec_kernel(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"family": LAPLACE, "param": math.exp(rng.uniform(math.log(0.05), 0.0))}
    return {"family": GAUSSIAN, "param": math.exp(rng.uniform(0.0, math.log(20.0)))}


def _shared_doc(rng: random.Random, n: int, matrix: bool) -> dict:
    outputs = sorted(rng.sample(range(-3 * n, 3 * n), n + rng.randint(0, 4)))
    inputs = sorted(rng.sample(outputs, n))
    doc = {"kernel": _spec_kernel(rng), "inputs": inputs, "outputs": outputs,
           "supports": {str(x): list(outputs) for x in inputs}}
    if matrix:
        doc["distance"] = {"type": "matrix", "values": [
            [0.0 if x == y else abs(x - y) * rng.uniform(0.5, 1.5) for y in outputs] for x in inputs]}
    return doc


def _windowed_doc(rng: random.Random, n: int) -> dict:
    inputs = sorted(rng.sample(range(0, 3 * n), n))
    supports = {}
    for x in inputs:
        t = rng.randint(2, 6)
        supports[str(x)] = list(range(x - t, x + t + 1))
    outputs = sorted({y for sup in supports.values() for y in sup})
    return {"kernel": _spec_kernel(rng), "inputs": inputs, "outputs": outputs, "supports": supports}


def _spec_audit_round(d: Draws) -> list[dict]:
    n_shared = len(SHARED_MATRIX)
    queries = [{"op": "audit", "doc": _shared_doc(d.rng, int(d.part(8, 49, k, n_shared)), matrix),
                "eps": None} for k, matrix in enumerate(SHARED_MATRIX)]
    queries += [{"op": "audit", "doc": _windowed_doc(d.rng, int(d.part(8, 49, k, WINDOWED_PER_ROUND))),
                 "eps": d.rng.uniform(0.2, 2.0)} for k in range(WINDOWED_PER_ROUND)]
    return queries


# -- cli-session -------------------------------------------------------------

def _window_query(d: Draws, op: str, s_range: tuple[int, int], r_range: tuple[int, int]) -> dict:
    u = d.u()
    s = _odd(s_range[0] + (s_range[1] - s_range[0]) * u)
    r = min(round(r_range[0] + (r_range[1] - r_range[0]) * u), s - 1)
    eps = d.rng.uniform(0.5, 2.0)
    family, param = _window_kernel(d.rng, (s - 1) // 2, r, eps)
    return {"op": op, "family": family, "param": param, "s": s, "eps": eps, "range": r}


def _cli_round(d: Draws) -> list[dict]:
    """README-style subcommands; every query also names its output format."""
    queries = [_window_query(d, "per_h", (7, 201), (1, 40)), _window_query(d, "worst", (201, 601), (20, 100))]
    queries += [_design(d, kind) for kind in ("laplace-clean-small", "gaussian-wide", "disjoint")]
    queries.append(_sweep_support(d, (5, 15), 10, 6))
    queries.append(_sweep_param(d, (31, 91), (5, 15), 7))
    queries.append({"op": "audit", "doc": _shared_doc(d.rng, d.rng.randint(4, 10), d.rng.random() < 0.5),
                    "eps": None})
    queries.append({"op": "audit", "doc": _windowed_doc(d.rng, d.rng.randint(3, 8)), "eps": None})
    family = d.rng.choice(FAMILIES)
    param = _log_uniform(d.rng, 0.1, 1.0) if family == LAPLACE else d.rng.uniform(1.0, 8.0)
    queries.append({"op": "histogram", "family": family, "param": param, "s": _odd(d.rng.uniform(5, 41)),
                    "x": d.rng.randint(-50, 50), "n": round(10_000 + 190_000 * d.u()),
                    "seed": d.rng.randint(0, 2**31 - 1)})
    for q in queries:
        q["format"] = d.rng.choice(("json", "csv"))
    return queries


ROUNDS = {"window-scan": _window_scan_round, "spec-audit": _spec_audit_round, "cli-session": _cli_round}


def build_pool(workload: str, seed: int) -> list[dict]:
    """The workload's queries for this seed, round after round."""
    d = Draws(random.Random(f"{workload}/{seed}"), BLOCK_ROUNDS[workload])
    pool = []
    for _ in range(POOL_ROUNDS[workload]):
        d.start_round()
        queries = ROUNDS[workload](d)
        d.rng.shuffle(queries)
        pool += queries
    return pool
