"""Self-checks of the benchmark harness.

    python -m pytest -q bench/test_bench.py

Run from the repository root.  The runs take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_measured_runs_repeat_attempted_and_failed_exactly():
    args = ("--workload", "window-scan", "--seed", "3", "--seconds", "1", "--trace", "0")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["attempted"] == 2 * 102


def test_spec_audit_never_touches_the_window_engine():
    res = _result(_run("--workload", "spec-audit", "--seed", "4", "--seconds", "1", "--trace", "1"))
    assert res["metrics"]["privacy.separation_breakdown.calls"]["value"] == 0
    assert res["metrics"]["privacy.pure_ldp_epsilon.calls"]["value"] > 0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "window-scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _first(workload: str, op: str) -> dict:
    return next(q for q in workloads.build_pool(workload, 1) if q["op"] == op)


def test_pools_repeat_for_a_seed_and_differ_across_seeds():
    for workload in workloads.ROUNDS:
        assert workloads.build_pool(workload, 5) == workloads.build_pool(workload, 5)
        assert workloads.build_pool(workload, 5) != workloads.build_pool(workload, 6)


def test_reference_rejects_wrong_window_answers():
    q = _first("window-scan", "worst")
    delta, h = reference._window(q, q["s"]).worst(q["eps"], q["range"])
    assert reference.check(q, {"delta_star": delta, "argmax_h": h}) is None
    assert reference.check(q, {"delta_star": delta, "argmax_h": h + 1})[0] == "mismatch"
    assert reference.check(q, {"delta_star": delta + 1e-9, "argmax_h": h})[0] == "mismatch"


def test_reference_classifies_the_scan_limit_defect():
    # the seed's known case: Laplace lam=0.5, eps=2, delta=1e-10, range 3 is
    # feasible at s=95, but the default scan stops at s=87
    q = {"op": "design", "family": "laplace", "param": 0.5, "eps": 2.0, "delta": 1e-10, "range": 3, "s_max": None}
    wrong = {"feasible": False, "s": None, "delta_star": None, "r1": None, "r2": None, "s_scanned_max": 87}
    assert reference.check(q, wrong)[0] == "scan-limit"
    truncated = dict(q, s_max=87)
    assert reference.check(truncated, wrong) is None


def test_reference_checks_witnesses_by_what_they_prove():
    doc = {"kernel": {"family": "laplace", "param": 0.5}, "inputs": [0, 1], "outputs": [0, 1],
           "supports": {"0": [0, 1], "1": [0, 1]}}
    q = {"op": "audit", "doc": doc, "eps": None}
    assert reference.check(q, {"finite": True, "epsilon_star": 0.5, "witness": [1, 0, 1]}) is None
    assert reference.check(q, {"finite": True, "epsilon_star": 0.5, "witness": [1, 0, 0]})[0] == "mismatch"
    assert reference.check(q, {"finite": False, "epsilon_star": None, "witness": [0, 1, 0]})[0] == "mismatch"
    doc = {"kernel": {"family": "gaussian", "param": 2.0}, "inputs": [0, 5], "outputs": [-1, 0, 1, 4, 5, 6],
           "supports": {"0": [-1, 0, 1], "5": [4, 5, 6]}}
    q = {"op": "audit", "doc": doc, "eps": None}
    assert reference.check(q, {"finite": False, "epsilon_star": None, "witness": [5, 0, 6]}) is None
    assert reference.check(q, {"finite": False, "epsilon_star": None, "witness": [0, 5, 4]})[0] == "mismatch"
