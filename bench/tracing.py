"""Per-function spans around sparseldp's public calls, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper, both on the
module that defines it and under every name another sparseldp module (the
package itself, `calibration`, `privacy`, `cli`) imported it as, so calls
between modules are seen too.  `uninstall()` puts the originals back.  No
file under `src/` changes.

Each span adds its wall time to the function's total and its self time
(total minus the time of wrapped calls nested inside it) to its self time.
`Kernel.log_weight` runs hundreds of thousands of times per spec audit, so it
is only counted; its time stays in the caller's self time.  Aggregates live
in memory until `snapshot()`.

Run as a script, this module is the traced stand-in for
`python -m sparseldp.cli`: `python bench/tracing.py OUT.json ARGS...` runs
the CLI on ARGS with tracing on and writes the aggregates, plus the
in-process wall time of `main`, to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute, kind); "Class.method" patches the class attribute.
TARGETS = (
    ("mechanisms", "Kernel.log_weight", "count"),
    ("mechanisms", "window_weights", "span"),
    ("mechanisms", "spec_from_dict", "span"),
    ("mechanisms", "MechanismSpec.pmf", "span"),
    ("mechanisms", "distortion_moments", "span"),
    ("mechanisms", "sample", "span"),
    ("privacy", "separation_breakdown", "span"),
    ("privacy", "worst_case_defect", "span"),
    ("privacy", "pure_ldp_epsilon", "span"),
    ("privacy", "ordered_defect", "span"),
    ("calibration", "min_feasible_support", "span"),
    ("calibration", "sweep_support", "span"),
    ("calibration", "sweep_param", "span"),
    ("cli", "main", "span"),
)


def _sizes_scanned(bound: inspect.BoundArguments, result) -> int:
    # odd sizes from the scan start (documented: 1 when delta >= 1, else the
    # smallest odd size above the range) through the last size scanned
    args = bound.arguments
    r = args["privacy_range"]
    start = 1 if args["delta"] >= 1 else (r + 1 if r % 2 == 0 else r + 2)
    last = result.s_scanned_max
    return (last - start) // 2 + 1 if last >= start else 0


class Tracer:
    """In-memory call counts, total and self times for the traced functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {"calibration.sizes_scanned": 0, "mechanisms.sample.draws": 0}
        self._child_time: list[float] = []  # one accumulator per open span
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _count(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _with_counter(self, name: str, fn):
        counters = self.counters
        if name == "calibration.min_feasible_support":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters["calibration.sizes_scanned"] += _sizes_scanned(signature.bind(*args, **kwargs), result)
                return result

            return wrapper
        if name == "mechanisms.sample":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters["mechanisms.sample.draws"] += len(result)
                return result

            return wrapper
        return fn

    def install(self) -> None:
        """Wrap every target whose module is already imported."""
        loaded = [m for name, m in sys.modules.items() if name == "sparseldp" or name.startswith("sparseldp.")]
        for module_name, attr, kind in TARGETS:
            module = sys.modules.get(f"sparseldp.{module_name}")
            if module is None:
                continue
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                homes = [(owner, meth)]
            else:
                original = getattr(module, attr)
                homes = [(m, key) for m in loaded for key, value in vars(m).items() if value is original]
            if kind == "count":
                wrapper = self._count(name, original)
            else:
                wrapper = self._span(name, self._with_counter(name, original))
            for owner, key in homes:
                self._restore.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """JSON-ready aggregates: {name: [calls, total_ms, self_ms]} and counters."""
        return {
            "spans": {k: [v[0], v[1] * 1e3, v[2] * 1e3] for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }


def merge(into: dict, snap: dict) -> dict:
    """Add one snapshot's aggregates to another's."""
    for name, (calls, total, self_ms) in snap["spans"].items():
        agg = into.setdefault("spans", {}).setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += self_ms
    for name, value in snap["counters"].items():
        counters = into.setdefault("counters", {})
        counters[name] = counters.get(name, 0) + value
    return into


def _traced_cli(out_path: str, argv: list[str]) -> int:
    cli = importlib.import_module("sparseldp.cli")
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    main_ms = (time.perf_counter() - start) * 1e3
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"main_ms": main_ms, **tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
