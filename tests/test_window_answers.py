"""Float-for-float replay of recorded window-family answers.

`golden/window_answers.json` holds the answers of every call below, each
float written with `float.hex`, so a replay passes only when every float is
bit for bit what was recorded.  The calls cover both kernel families, tie
epsilons (lam * n == eps, including 0.05 * 6 against 0.3), epsilons past
709 where e^eps overflows, range 0, ranges past 2t + 1, radius 0, and
single separations at 0, 2t, 2t + 1, 2t + 2 and 2**53.  After
a deliberate change to the numbers, rewrite the recordings with

    PYTHONPATH=src python tests/test_window_answers.py

and review the diff of `golden/window_answers.json` like any other change.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys

import numpy as np
import pytest

from sparseldp import (
    Kernel,
    clean_bound,
    min_feasible_support,
    separation_breakdown,
    separation_profile,
    sweep_param,
    sweep_support,
    worst_case_defect,
)

RECORDINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "window_answers.json")

KERNELS = [("laplace", 0.5), ("laplace", 0.05), ("laplace", 0.01), ("laplace", 2.5), ("laplace", 800.0),
           ("gaussian", 2.0), ("gaussian", 7.0), ("gaussian", 30.0), ("gaussian", 0.4)]
# (s, range): radius 0, range 0, ranges inside, at and past 2t + 1, and a large window
SIZES = [(1, 0), (1, 3), (7, 0), (7, 3), (13, 13), (13, 40), (101, 50), (401, 200), (2001, 1000), (2001, 37)]
EPSILONS = [0.0, 0.3, 1.0, 2.5, 720.0, 1e308]
# (lam, eps) with lam * n == eps in decimal, and (sigma, eps) with m / (2 sigma^2) == eps
LAPLACE_TIES = [(0.05, 0.3), (1 / 3, 1.0), (0.1, 0.3), (0.2, 0.6), (0.25, 0.5), (0.3, 0.9), (0.7, 2.1), (0.01, 0.03)]
GAUSSIAN_TIES = [(1.0, 0.5), (2.0, 0.125), (1 / 3, 4.5), (3.0, 1 / 9), (0.5, 2.0), (1.5, 2 / 9)]
TIES = [("laplace", lam, eps) for lam, eps in LAPLACE_TIES] + [("gaussian", sig, eps) for sig, eps in GAUSSIAN_TIES]
# the single-separation calls also take 709, where `_times_exp` switches to logs
BREAKDOWN_EPSILONS = EPSILONS + [709.0]


def _cases() -> list[tuple[str, tuple]]:
    """(call name, arguments) pairs; a kernel argument is its (family, param)."""
    cases = []
    for i, kernel in enumerate(KERNELS):
        for j, (s, r) in enumerate(SIZES):
            cases.append(("worst_case_defect", (kernel, s, EPSILONS[(i + j) % len(EPSILONS)], r)))
    for family, param, eps in TIES:
        for s, r in ((9, 8), (21, 10), (61, 60)):
            cases.append(("worst_case_defect", ((family, param), s, eps, r)))
    for kernel, s, eps, r in [(("laplace", 800.0), 11, 740.0, 5), (("laplace", 400.0), 11, 730.0, 9),
                              (("gaussian", 0.5), 9, 709.0, 8), (("gaussian", 20.0), 41, 1e308, 20)]:
        cases.append(("worst_case_defect", (kernel, s, eps, r)))
    for i, kernel in enumerate(KERNELS):
        for j, (s, r) in enumerate([(1, 0), (7, 3), (13, 30), (41, 20)]):
            cases.append(("separation_profile", (kernel, s, EPSILONS[(i + 2 * j) % len(EPSILONS)], r)))
    for family, param, eps in TIES[::2]:
        cases.append(("separation_profile", ((family, param), 21, eps, 22)))
    for i, kernel in enumerate(KERNELS):
        for j, t in enumerate((0, 1, 5, 300)):
            for k, h in enumerate(sorted({0, 1, t, 2 * t, 2 * t + 1, 2 * t + 2, 2**53})):
                eps = BREAKDOWN_EPSILONS[(i + j + k) % len(BREAKDOWN_EPSILONS)]
                cases.append(("separation_breakdown", (kernel, eps, t, h)))
    for family, param, eps in TIES:
        for t, h in ((8, 0), (8, 2), (8, 6), (8, 7), (8, 10), (8, 16), (8, 17), (30, 7), (30, 30), (30, 45)):
            cases.append(("separation_breakdown", ((family, param), eps, t, h)))
    for i, kernel in enumerate(KERNELS):
        for j, (s, r) in enumerate(SIZES):
            cases.append(("clean_bound", (kernel, s, BREAKDOWN_EPSILONS[(i + j) % len(BREAKDOWN_EPSILONS)], r)))
    for family, param, eps in TIES:
        for s, r in ((9, 2), (13, 6), (21, 3), (61, 10)):
            cases.append(("clean_bound", ((family, param), s, eps, r)))
    for i, kernel in enumerate(KERNELS):
        sizes = [[1, 3, 5, 7], [13], [101, 201, 401, 801, 1601, 3201]][i % 3]
        for r, eps in ((3, 1.0), (50, EPSILONS[i % len(EPSILONS)])):
            cases.append(("sweep_support", (kernel, eps, r, sizes)))
    for family, params in (("laplace", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0]), ("gaussian", [0.8, 1.0, 2.0, 5.0, 20.0])):
        for s, r, eps in ((1, 0, 1.0), (7, 2, 1.0), (21, 10, 0.3), (401, 150, 2.5), (31, 40, 720.0)):
            cases.append(("sweep_param", (family, params, eps, r, s)))
    cases.append(("sweep_param", ("laplace", [0.05, 0.1], 0.3, 6, 21)))
    designs = [
        (("laplace", 0.5), 1.0, 0.5, 3, None), (("laplace", 0.5), 1.0, 1.0, 3, None),
        (("laplace", 0.5), 1.0, 1e-6, 0, None), (("laplace", 0.01), 1.0, 1e-6, 50, None),
        (("laplace", 0.01), 1.0, 1e-6, 50, 2537), (("laplace", 1e-4), 1.0, 1e-6, 1, None),
        (("laplace", 0.05), 0.3, 1e-3, 6, None), (("laplace", 0.05), 0.3, 1e-3, 7, None),
        (("laplace", 0.5), 40.0, 1e-12, 100, None), (("laplace", 0.5), 1.0, 0.5, 8, 5),
        (("laplace", 300.0), 3000.0, 0.5, 10, 13), (("laplace", 0.2), 0.6, 1e-9, 3, None),
        (("laplace", 800.0), 720.0, 1e-6, 4, None), (("laplace", 0.1), 1e308, 1e-3, 5, None),
        (("gaussian", 2.0), 1.0, 0.3, 3, 15), (("gaussian", 20.0), 1.0, 1e-3, 20, None),
        (("gaussian", 1e4), 1.0, 1e-6, 100, None), (("gaussian", 3.0), 1.0, 1e-4, 5, None),
        (("gaussian", 1.0), 0.5, 1e-2, 1, None), (("gaussian", 7.0), 2.5, 1e-5, 12, None),
        (("gaussian", 0.4), 720.0, 1e-3, 2, None), (("gaussian", 50.0), 0.0, 1e-2, 30, None),
    ]
    for kernel, eps, delta, r, s_max in designs:
        cases.append(("min_feasible_support", (kernel, eps, delta, r, s_max)))
    for kernel in KERNELS:
        for eps, delta, r in ((2.5, 0.1, 2), (5.0, 1e-3, 4), (3.0, 1e-6, 3)):
            cases.append(("min_feasible_support", (kernel, eps, delta, r, 4001)))
    return cases


CASES = _cases()
CALLS = {
    "worst_case_defect": worst_case_defect,
    "separation_breakdown": separation_breakdown,
    "clean_bound": clean_bound,
    "separation_profile": separation_profile,
    "sweep_support": sweep_support,
    "sweep_param": sweep_param,
    "min_feasible_support": min_feasible_support,
}


def _key(name: str, args: tuple) -> str:
    return f"{name}{args!r}"


def _hex(value):
    """`value` with every float as `float.hex`, arrays as lists and dataclasses as dicts, for exact comparison."""
    if dataclasses.is_dataclass(value):
        return _hex(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    if isinstance(value, np.ndarray):
        return _hex(value.tolist())
    if isinstance(value, float):
        return value.hex()
    return value  # int, bool or None


def answer(name: str, args: tuple):
    if name != "sweep_param":
        args = (Kernel(*args[0]),) + args[1:]
    return _hex(CALLS[name](*args))


@functools.lru_cache(maxsize=1)
def _load() -> dict:
    with open(RECORDINGS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_recorded():
    keys = [_key(name, args) for name, args in CASES]
    assert len(set(keys)) == len(keys) and sorted(_load()) == sorted(keys)


@pytest.mark.parametrize("name,args", CASES, ids=[_key(name, args) for name, args in CASES])
def test_answer_replays_bit_for_bit(name, args):
    assert answer(name, args) == _load()[_key(name, args)]


if __name__ == "__main__":
    recorded = {_key(name, args): answer(name, args) for name, args in CASES}
    with open(RECORDINGS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} window answers to {RECORDINGS}", file=sys.stderr)
