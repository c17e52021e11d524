"""One workload process of the benchmark, started fresh by `run.py`.

    python bench/worker.py --workload W --seed N --seconds S --mode M --workdir DIR

It imports sparseldp (from `src/`, via PYTHONPATH), builds the seeded query
pool, writes the CLI spec files, and prints `ready`; that is the end of
set-up.  Mode `setup` then exits.  Mode `run` sends a fixed, seed-determined
list of queries one at a time in a closed loop, the whole list several times
over, and prints one JSON line with each query's best latency, every answer
and the peak RSS.
Mode `trace` answers a fixed, seed-determined list of queries, each once
untraced and once traced, and prints the traced answers, both wall times and
the span aggregates.  Answers are checked by `run.py`, not here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# A run answers the first RUN_ROUNDS rounds of the pool (workloads.py) in
# closed-loop passes over the whole list, and a query's latency is the best
# of its passes.  The host is shared: a query is often stalled for a few
# milliseconds, and the host's speed drifts over seconds to minutes, so the
# passes are spread over the run and the best of them moves less than any
# one time.  Passes per second of --seconds make all passes together take
# about --seconds at the seed commit, but every run makes at least 2, so
# cli-session, 100 interpreter starts a pass, takes about 50 s.  The counts
# depend on nothing else, so a seed and --seconds give the same queries,
# hence the same answers and failures.
PASSES_PER_SECOND = {"window-scan": 0.25, "spec-audit": 0.1, "cli-session": 0.04}


def passes(workload: str, seconds: float) -> int:
    return max(2, round(seconds * PASSES_PER_SECOND[workload]))


# Queries per second of --seconds in trace mode, where each query runs twice
# (untraced and traced): both together take about --seconds at the seed
# commit.  The count depends on nothing else, so traced call counts repeat
# exactly for a given seed.
TRACE_QUERIES_PER_SECOND = {"window-scan": 16.0, "spec-audit": 5.5, "cli-session": 1.9}


def query_list(pool: list[dict], workload: str, seconds: float, traced: bool) -> list[dict]:
    """The distinct queries of a run or a traced run."""
    if not traced:
        return pool[:len(pool) // workloads.POOL_ROUNDS[workload] * workloads.RUN_ROUNDS[workload]]
    count = max(10, round(seconds * TRACE_QUERIES_PER_SECOND[workload]))
    return [pool[i % len(pool)] for i in range(count)]


def _repr(x) -> str:
    return repr(float(x))


def cli_argv(q: dict, spec_path: str | None) -> list[str]:
    """The README-style command line for a query."""
    op = q["op"]
    kernel = ["--family", q["family"], "--param", _repr(q["param"])] if "param" in q else []
    if op in ("worst", "per_h"):
        argv = ["defect", *kernel, "--s", str(q["s"]), "--eps", _repr(q["eps"]), "--range", str(q["range"])]
        if op == "per_h":
            argv.append("--per-h")
    elif op == "design":
        argv = ["design", *kernel, "--eps", _repr(q["eps"]), "--delta", _repr(q["delta"]),
                "--range", str(q["range"])]
        if q["s_max"] is not None:
            argv += ["--s-max", str(q["s_max"])]
    elif op == "sweep_support":
        argv = ["sweep", "--kind", "support", *kernel, "--eps", _repr(q["eps"]), "--range", str(q["range"]),
                "--s-list", ",".join(str(s) for s in q["s_list"])]
    elif op == "sweep_param":
        argv = ["sweep", "--kind", "param", "--family", q["family"], "--s", str(q["s"]), "--eps", _repr(q["eps"]),
                "--range", str(q["range"]), "--param-list", ",".join(_repr(p) for p in q["param_list"])]
    elif op == "audit":
        argv = ["check-pure", "--spec", spec_path]
    else:  # histogram
        argv = ["sample", *kernel, "--s", str(q["s"]), "--x", str(q["x"]), "--n", str(q["n"]),
                "--seed", str(q["seed"]), "--histogram"]
    return argv + ["--format", q["format"]]


class InProcess:
    """Answers queries by calling the library in this process."""

    def __init__(self, sl):
        self.sl = sl

    def __call__(self, q: dict):
        sl = self.sl
        op = q["op"]
        if op == "audit":
            spec = sl.spec_from_dict(q["doc"])
            res = sl.pure_ldp_epsilon(spec)
            out = {"finite": res.finite, "epsilon_star": res.epsilon_star,
                   "witness": list(res.witness) if res.witness is not None else None}
            if q["eps"] is not None:
                best = None
                for x in spec.inputs:
                    for x_prime in spec.inputs:
                        if x != x_prime:
                            b = sl.ordered_defect(spec, x, x_prime, q["eps"])
                            if best is None or b.total > best["total"]:
                                best = {"total": b.total, "pair": [x, x_prime],
                                        "leakage": b.support_leakage, "overlap": b.overlap_excess}
                out["max_defect"] = best
            return out
        if op == "sweep_param":
            rows = sl.sweep_param(q["family"], q["param_list"], q["eps"], q["range"], q["s"])
            return {"rows": [[r.varied, r.delta_star, r.r1, r.r2] for r in rows]}
        kernel = sl.Kernel(q["family"], q["param"])
        if op == "worst":
            delta_star, argmax_h = sl.worst_case_defect(kernel, q["s"], q["eps"], q["range"])
            return {"delta_star": delta_star, "argmax_h": argmax_h}
        if op == "design":
            res = sl.min_feasible_support(kernel, q["eps"], q["delta"], q["range"], q["s_max"])
            m = res.moments
            return {"feasible": res.feasible, "s": res.s_chosen, "delta_star": res.achieved_delta_star,
                    "r1": m.r1 if m else None, "r2": m.r2 if m else None, "s_scanned_max": res.s_scanned_max}
        if op == "sweep_support":
            rows = sl.sweep_support(kernel, q["eps"], q["range"], q["s_list"])
            return {"rows": [[r.varied, r.delta_star, r.r1, r.r2] for r in rows]}
        raise ValueError(f"no in-process form for query op {op!r}")


class Cli:
    """Answers queries by running the CLI as a subprocess, one at a time.

    Untraced it runs `python -m sparseldp.cli`; traced it runs the same
    `main` through `tracing.py`, which reports spans and main's wall time.
    """

    def __init__(self, workdir: str, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.aggregates: dict = {}
        self.startup_ms: list[float] = []

    def __call__(self, q: dict):
        entry = ["-m", "sparseldp.cli"]
        stats_path = os.path.join(self.workdir, "trace.json")
        if self.traced:
            entry = [os.path.join(HERE, "tracing.py"), stats_path]
            if os.path.exists(stats_path):
                os.remove(stats_path)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *entry, *q["argv"]], capture_output=True, text=True, timeout=60)
        wall_ms = (time.perf_counter() - start) * 1e3
        if self.traced:
            with open(stats_path, encoding="utf-8") as fh:
                snap = json.load(fh)
            self.startup_ms.append(wall_ms - snap.pop("main_ms"))
            tracing.merge(self.aggregates, snap)
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}


def _answer(runner, q: dict):
    try:
        return runner(q)
    except Exception as exc:  # a failed query is recorded, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


def best_of_passes(runner, queries: list[dict], repeats: int) -> dict:
    """Answer the whole list `repeats` times over; keep each query's best time."""
    clock = time.perf_counter
    best = [float("inf")] * len(queries)
    answers = []
    start = clock()
    for _ in range(repeats):
        for i, q in enumerate(queries):
            t0 = clock()
            answers.append(_answer(runner, q))
            best[i] = min(best[i], clock() - t0)
    return {"wall_s": clock() - start, "latencies_s": best, "answers": answers}


def paired_passes(queries: list[dict], plain, traced, tracer) -> tuple[list, float, float]:
    """Answer each query untraced and traced, alternating which goes first.

    Returns the traced answers and the two summed wall times; alternating
    keeps warm-up and drift out of the traced/untraced ratio.
    """
    clock = time.perf_counter
    walls = [0.0, 0.0]
    answers = []
    for i, q in enumerate(queries):
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on and tracer is not None:
                tracer.install()
            start = clock()
            ans = _answer(traced if on else plain, q)
            walls[on] += clock() - start
            if on:
                if tracer is not None:
                    tracer.uninstall()
                answers.append(ans)
    return answers, walls[0], walls[1]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import sparseldp

    pool = workloads.build_pool(args.workload, args.seed)
    cli = args.workload == "cli-session"
    if cli:
        for i, q in enumerate(pool):
            path = None
            if q["op"] == "audit":
                path = os.path.join(args.workdir, f"spec_{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(q["doc"], fh)
            q["argv"] = cli_argv(q, path)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        runner = Cli(args.workdir, traced=False) if cli else InProcess(sparseldp)
        queries = query_list(pool, args.workload, args.seconds, traced=False)
        result = best_of_passes(runner, queries, passes(args.workload, args.seconds))
        result["peak_rss_mb"] = _peak_rss_mb(children=cli)
        print(json.dumps(result))
        return 0

    queries = query_list(pool, args.workload, args.seconds, traced=True)
    if cli:
        plain, traced, tracer = Cli(args.workdir, traced=False), Cli(args.workdir, traced=True), None
    else:
        plain = traced = InProcess(sparseldp)
        tracer = tracing.Tracer()
    answers, untraced_s, traced_s = paired_passes(queries, plain, traced, tracer)
    aggregates = traced.aggregates if cli else tracer.snapshot()
    startup_ms = traced.startup_ms if cli else []
    print(json.dumps({"answers": answers, "untraced_s": untraced_s, "traced_s": traced_s,
                      "aggregates": aggregates, "startup_ms": startup_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
