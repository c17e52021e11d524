"""Byte-for-byte replay of recorded CLI runs and demo scripts.

`golden/outputs.json` holds the stdout and exit code of every case below,
recorded before the CLI renderer was consolidated.  Each case is replayed in
process and must reproduce both exactly.  After a deliberate output change,
rewrite the recordings with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `golden/outputs.json` like any other change.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import runpy
import sys

import pytest

from sparseldp.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
RECORDINGS = os.path.join(GOLDEN, "outputs.json")
DEMOS = os.path.join(os.path.dirname(HERE), "demos")
FORMATS = ("csv", "json", "table")

# (name, argv); "{golden}" in an argument is replaced by the golden directory
_README = [
    ("defect", ["defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "3"]),
    ("defect-per-h", ["defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "3",
                      "--per-h"]),
    ("design-infeasible", ["design", "--family", "gaussian", "--param", "2", "--eps", "1", "--delta", "0.3",
                           "--range", "3", "--s-max", "15"]),
    ("design-feasible", ["design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "0.5",
                         "--range", "3"]),
    ("sweep-support", ["sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1",
                       "--range", "3", "--s-list", "3,5,7,9,11,13"]),
    ("sweep-param", ["sweep", "--kind", "param", "--family", "gaussian", "--s", "7", "--eps", "1", "--range", "2",
                     "--param-list", "0.8,1.0,1.2,1.5,2.0,2.5,3.0"]),
    ("check-pure", ["check-pure", "--spec", "{golden}/channel.json"]),
    ("sample", ["sample", "--family", "laplace", "--param", "0.5", "--s", "5", "--x", "0", "--n", "10", "--seed", "7"]),
]
_EDGES = [
    ("design-delta-1", ["design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "1",
                        "--range", "3"]),
    ("defect-range-0", ["defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "0"]),
    ("defect-per-h-range-0", ["defect", "--family", "gaussian", "--param", "2", "--s", "3", "--eps", "1",
                              "--range", "0", "--per-h"]),
    ("defect-per-h-disjoint", ["defect", "--family", "gaussian", "--param", "2", "--s", "3", "--eps", "0.5",
                               "--range", "4", "--per-h"]),
    ("sweep-single-size", ["sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1",
                           "--range", "3", "--s-list", "7"]),
    ("sweep-param-laplace", ["sweep", "--kind", "param", "--family", "laplace", "--s", "7", "--eps", "1",
                             "--range", "2", "--param-list", "0.2,0.4,0.6,0.8,1.0,1.2"]),
    ("check-pure-mismatch", ["check-pure", "--spec", "{golden}/mismatch.json"]),
    ("check-pure-single-input", ["check-pure", "--spec", "{golden}/single_input.json"]),
    ("sample-n-0", ["sample", "--family", "laplace", "--param", "0.5", "--s", "5", "--x", "0", "--n", "0"]),
    ("sample-histogram", ["sample", "--family", "gaussian", "--param", "1", "--s", "5", "--x", "2", "--n", "1000",
                          "--seed", "1", "--histogram"]),
    ("sample-histogram-n-0", ["sample", "--family", "gaussian", "--param", "1", "--s", "5", "--x", "2", "--n", "0",
                              "--histogram"]),
    ("sample-negative-x", ["sample", "--family", "laplace", "--param", "1", "--s", "3", "--x", "-2", "--n", "10",
                           "--seed", "7"]),
]
CLI_CASES = [(f"{name}.{fmt}", argv + ["--format", fmt]) for name, argv in _README + _EDGES for fmt in FORMATS] + [
    ("defect-even-s", ["defect", "--family", "laplace", "--param", "0.5", "--s", "6", "--eps", "1", "--range", "3"]),
    ("design-bad-delta", ["design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "0",
                          "--range", "3"]),
    ("sweep-empty-list", ["sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1",
                          "--range", "3", "--s-list", ","]),
    ("sweep-missing-size", ["sweep", "--kind", "param", "--family", "laplace", "--eps", "1", "--range", "2",
                            "--param-list", "0.5"]),
    ("check-pure-missing-file", ["check-pure", "--spec", "{golden}/absent.json"]),
    ("sample-negative-n", ["sample", "--family", "laplace", "--param", "1", "--s", "3", "--x", "0", "--n", "-1"]),
    ("unknown-flag", ["defect", "--family", "laplace", "--bogus", "1"]),
]
# --out cases also record the file they write (relative to a fresh directory)
OUT_CASES = [
    ("out-sweep.csv", ["sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1",
                       "--range", "3", "--s-list", "3,5", "--format", "csv", "--out", "rows.csv"]),
    ("out-defect.json", ["defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "3",
                         "--format", "json", "--out", "rows.json"]),
    ("out-check-pure.table", ["check-pure", "--spec", "{golden}/mismatch.json", "--out", "rows.txt"]),
]
DEMO_CASES = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def _capture(fn) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fn()
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return (0 if code is None else code), buf.getvalue()


def run_cli(argv: list[str], workdir: str) -> dict:
    argv = [a.replace("{golden}", GOLDEN) for a in argv]
    out_path = os.path.join(workdir, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path:
        argv[argv.index("--out") + 1] = out_path
    code, stdout = _capture(lambda: main(argv))
    record = {"exit": code, "stdout": stdout}
    if out_path:
        with open(out_path, encoding="utf-8") as fh:
            record["file"] = fh.read()
    return record


def run_demo(name: str) -> dict:
    def demo():
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
        return 0

    code, stdout = _capture(demo)
    return {"exit": code, "stdout": stdout}


@functools.lru_cache(maxsize=1)
def _load() -> dict:
    with open(RECORDINGS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_recorded():
    recorded = _load()
    assert sorted(recorded["cli"]) == sorted(name for name, _ in CLI_CASES + OUT_CASES)
    assert sorted(recorded["demos"]) == DEMO_CASES


@pytest.mark.parametrize("name,argv", CLI_CASES + OUT_CASES, ids=[n for n, _ in CLI_CASES + OUT_CASES])
def test_cli_replays_byte_for_byte(name, argv, tmp_path):
    assert run_cli(argv, str(tmp_path)) == _load()["cli"][name]


@pytest.mark.parametrize("name", DEMO_CASES)
def test_demo_replays_byte_for_byte(name):
    assert run_demo(name) == _load()["demos"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        cli = {name: run_cli(argv, workdir) for name, argv in CLI_CASES + OUT_CASES}
    demos = {name: run_demo(name) for name in DEMO_CASES}
    with open(RECORDINGS, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "demos": demos}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cli)} CLI and {len(demos)} demo recordings to {RECORDINGS}", file=sys.stderr)
