"""The sparseldp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload window-scan --seed 1 --seconds 40 --trace 0

Run it from the repository root; it uses the package under `src/` as is
(nothing is installed).  See bench/README.md for the workloads and metrics.

With `--trace 0` it starts fresh interpreters to time set-up, then one more
that answers a fixed, seed-determined list of queries in closed-loop passes
sized to take about `--seconds`, and reports the end-to-end metrics from each
query's best time.  With `--trace 1` it answers a fixed, seed-determined
list of queries untraced and then traced, and reports the per-layer metrics.
Either way every answer is then checked against `reference.py`, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Lines before it give each metric by name with its unit, the failures by
class, and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7  # fresh interpreters timed to ready, including the measured one
DEADLINE_S = 170

SPAN_METRICS = (
    ("mechanisms.window_weights", ("calls", "self_ms")),
    ("mechanisms.spec_from_dict", ("self_ms",)),
    ("mechanisms.pmf", ("calls", "self_ms")),
    ("mechanisms.distortion_moments", ("self_ms",)),
    ("mechanisms.sample", ("self_ms",)),
    ("privacy.separation_breakdown", ("calls", "self_ms", "total_ms")),
    ("privacy.worst_case_defect", ("calls", "self_ms")),
    ("privacy.pure_ldp_epsilon", ("calls", "self_ms")),
    ("privacy.ordered_defect", ("calls", "self_ms")),
    ("calibration.min_feasible_support", ("calls", "self_ms")),
    ("cli.main", ("self_ms",)),
)


class RunError(Exception):
    """The benchmark could not produce a result."""


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def provenance(spec: dict, workload: str, seed: int, queries: int) -> dict:
    return {
        "git_revision": _git_revision(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == workload), "not in BENCHMARK.json"),
        "seed": seed,
        "queries": queries,
    }


def _benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Worker:
    """A fresh interpreter running worker.py in its own process group.

    `close` kills the group, so CLI subprocesses go with the worker, and
    reaps the worker.
    """

    def __init__(self, args, mode: str, workdir: str, env: dict):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise RunError(f"worker ({mode}) failed during set-up")

    def result(self) -> dict:
        out = self.proc.stdout.read()
        if self.proc.wait() != 0:
            raise RunError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def _check_all(args, answers: list[dict]) -> tuple[int, dict]:
    """Failures by class, checking each answer against the reference.

    Answer j is to query j mod n of the run's n queries; a repeated query
    whose answer equals its first one shares that answer's verdict.
    """
    pool = workloads.build_pool(args.workload, args.seed)
    queries = worker.query_list(pool, args.workload, args.seconds, traced=bool(args.trace))
    failures: dict[str, list[str]] = {}
    verdicts: dict[int, tuple] = {}
    for j, ans in enumerate(answers):
        i = j % len(queries)
        if i in verdicts and verdicts[i][0] == ans:
            problem = verdicts[i][1]
        else:
            problem = reference.check(queries[i], ans)
            verdicts.setdefault(i, (ans, problem))
        if problem is not None:
            kind, detail = problem
            failures.setdefault(kind, []).append(f"query {i}: {detail}")
    return sum(len(v) for v in failures.values()), failures


def measure(args, workdir: str, env: dict) -> tuple[dict, list[dict], dict]:
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker(args, "setup", workdir, env)
        try:
            setup.append(probe.setup_s)
            probe.proc.wait()
        finally:
            probe.close()
    run = Worker(args, "run", workdir, env)
    try:
        setup.append(run.setup_s)
        res = run.result()
    finally:
        run.close()
    lat_ms = np.array(res["latencies_s"]) * 1e3
    n = len(lat_ms)
    p50, p90 = np.percentile(lat_ms, [50, 90])
    metrics = {
        "queries_per_s": n / (lat_ms.sum() / 1e3),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"latency samples (best of passes, one per query)": n,
             "samples beyond p90": int(np.sum(lat_ms > p90)),
             "passes": worker.passes(args.workload, args.seconds), "closed-loop wall (s)": round(res["wall_s"], 4),
             "setup samples (s)": [round(s, 4) for s in setup]}
    return metrics, res["answers"], notes


def measure_traced(args, workdir: str, env: dict) -> tuple[dict, list[dict], dict]:
    traced = Worker(args, "trace", workdir, env)
    try:
        res = traced.result()
    finally:
        traced.close()
    spans = res["aggregates"].get("spans", {})
    counters = res["aggregates"].get("counters", {})
    metrics = {}
    for name, fields in SPAN_METRICS:
        calls, total_ms, self_ms = spans.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "self_ms": self_ms, "total_ms": total_ms}
        for field in fields:
            metrics[f"{name}.{field}"] = values[field]
    metrics["mechanisms.log_weight.calls"] = spans.get("mechanisms.log_weight", (0,))[0]
    metrics["mechanisms.sample.draws"] = counters.get("mechanisms.sample.draws", 0)
    metrics["calibration.sizes_scanned"] = counters.get("calibration.sizes_scanned", 0)
    metrics["calibration.sweep.self_ms"] = sum(
        spans.get(f"calibration.{k}", (0, 0.0, 0.0))[2] for k in ("sweep_support", "sweep_param"))
    startup = res["startup_ms"]
    metrics["cli.startup_ms"] = statistics.median(startup) if startup else 0.0
    metrics["trace.overhead_frac"] = res["traced_s"] / res["untraced_s"] - 1.0
    metrics["trace.wall_ms"] = res["traced_s"] * 1e3
    notes = {"untraced wall (s)": round(res["untraced_s"], 4), "traced wall (s)": round(res["traced_s"], 4)}
    return metrics, res["answers"], notes


def _on_deadline(signum, frame):
    raise RunError(f"no result within {DEADLINE_S} s")


def _on_terminate(signum, frame):
    raise RunError("terminated")  # unwinds through the workers' close()


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one sparseldp benchmark workload.")
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sparseldp", "__init__.py")):
        print("error: run from the repository root; src/sparseldp is missing", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    workdir = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(DEADLINE_S)
    try:
        metrics, answers, notes = (measure_traced if args.trace else measure)(args, workdir, env)
        failed, failures = _check_all(args, answers)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    spec = _benchmark_spec()
    reported = spec["per_layer" if args.trace else "end_to_end"]
    attempted = len(answers)
    print(f"provenance {json.dumps(provenance(spec, args.workload, args.seed, attempted))}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    for m in reported:
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} frac")
    for kind, items in sorted(failures.items()):
        known = "known defect" if kind in reference.KNOWN_CLASSES else "UNEXPECTED"
        print(f"failures [{kind}] ({known}): {len(items)}")
        for item in items[:5]:
            print(f"  {item}")
    correct = all(kind in reference.KNOWN_CLASSES for kind in failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
