import json
import math
import os
import subprocess
import sys

import pytest

from sparseldp import Kernel, min_feasible_support, sweep_support, worst_case_defect
from sparseldp.cli import main

from conftest import DUPLICATE_KEY_SPECS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMON_SPEC = {
    "kernel": {"family": "laplace", "param": 0.5},
    "inputs": [0, 1],
    "outputs": [0, 1],
    "supports": {"0": [0, 1], "1": [0, 1]},
}

MISMATCH_SPEC = {
    "kernel": {"family": "laplace", "param": 0.5},
    "inputs": [0, 3],
    "outputs": [-1, 0, 1, 2, 3, 4],
    "supports": {"0": [-1, 0, 1], "3": [2, 3, 4]},
}


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # every subcommand but `sample` would otherwise pay for numpy.random's import time and memory
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, numpy\n"
        "by_numpy = 'numpy.random' in sys.modules\n"
        "import sparseldp.cli\n"
        "print(by_numpy, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    if out.split()[0] == "True":
        pytest.skip("this numpy imports numpy.random itself")
    assert out.split() == ["False", "False"]


class TestDefect:
    def test_table_headline(self, capsys):
        code, out, _ = run(
            capsys, "defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "3"
        )
        assert code == 0
        assert "0.4686" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "defect", "--family", "gaussian", "--param", "2", "--s", "3", "--eps", "1", "--range", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        expected, argmax_h = worst_case_defect(Kernel.gaussian(2.0), 3, 1.0, 3)
        assert doc == {"delta_star": expected, "argmax_h": argmax_h}
        assert doc["delta_star"] == 1.0

    def test_zero_range(self, capsys):
        code, out, _ = run(
            capsys,
            "defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "0",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"delta_star": 0.0, "argmax_h": 0}

    def test_per_h_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "3",
            "--per-h", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,delta_h,leakage,overlap"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first == ["0", "0.0", "0.0", "0.0"]
        for line in lines[1:]:
            h, total, leak, over = line.split(",")
            assert float(total) == float(leak) + float(over)

    def test_even_size_exits_2(self, capsys):
        code, _, err = run(
            capsys, "defect", "--family", "laplace", "--param", "0.5", "--s", "6", "--eps", "1", "--range", "3"
        )
        assert code == 2
        assert "odd" in err

    def test_underflowing_sigma_exits_2(self, capsys):
        code, out, err = run(
            capsys, "defect", "--family", "gaussian", "--param", "1e-200", "--s", "7", "--eps", "1", "--range", "3"
        )
        assert code == 2 and out == ""
        assert "underflows" in err

    def test_per_h_negative_range_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "-1", "--per-h",
        )
        assert code == 2 and out == ""
        assert "privacy range" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["defect", "--family", "laplace", "--bogus", "1"])
        assert exc.value.code == 2


class TestOversizedRequests:
    # 2^53 passes validation and fails at once as MemoryError (64 PiB is past
    # any address space); 2^64 + 1 is rejected as a size.  Both exit 2.
    @pytest.mark.parametrize("n", [2**53, 2**64 + 1])
    @pytest.mark.parametrize(
        "argv",
        [
            ["defect", "--family", "laplace", "--param", "0.5", "--s", "7", "--eps", "1", "--range", "{n}", "--per-h"],
            ["design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "0.1", "--range", "{n}"],
            ["sample", "--family", "laplace", "--param", "0.5", "--s", "7", "--x", "0", "--n", "{n}"],
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, argv, n):
        code, out, err = run(capsys, *(a.format(n=n) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_support_size_past_2_to_53_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "defect", "--family", "laplace", "--param", "0.5", "--s", str(2**64 + 1), "--eps", "1", "--range", "3",
        )
        assert code == 2 and out == ""
        assert "support size" in err and "2**53" in err


class TestDesign:
    def test_feasible(self, capsys):
        code, out, _ = run(
            capsys,
            "design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "0.5", "--range", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True and doc["s"] == 7
        res = min_feasible_support(Kernel.laplace(0.5), 1.0, 0.5, 3)
        assert doc["delta_star"] == res.achieved_delta_star
        assert doc["r1"] == res.moments.r1

    def test_infeasible_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "design", "--family", "gaussian", "--param", "2", "--eps", "1", "--delta", "0.3", "--range", "3",
            "--s-max", "15", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc == {"feasible": False, "s": None, "delta_star": None, "r1": None, "r2": None, "s_scanned_max": 15}

    def test_trivial_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "1", "--range", "3",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["s"] == 1

    @pytest.mark.parametrize("family, param", [("gaussian", "1e200"), ("laplace", "1e-320")])
    def test_kernels_with_flat_windows(self, capsys, family, param):
        # every window weight is 1, and the size formulas are past float range
        code, out, _ = run(
            capsys, "design", "--family", family, "--param", param, "--eps", "1", "--delta", "0.1", "--range", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["s"] == 21

    def test_bad_delta_exits_2(self, capsys):
        code, _, err = run(
            capsys, "design", "--family", "laplace", "--param", "0.5", "--eps", "1", "--delta", "0", "--range", "3"
        )
        assert code == 2
        assert "delta" in err


class TestSweep:
    def test_support_csv_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1", "--range", "3",
            "--s-list", "3,5,7,9,11,13", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "varied,delta_star,r1,r2"
        assert len(lines) == 7
        rows = sweep_support(Kernel.laplace(0.5), 1.0, 3, [3, 5, 7, 9, 11, 13])
        for line, row in zip(lines[1:], rows):
            varied, d, r1, r2 = (float(v) for v in line.split(","))
            # csv carries full precision and round-trips exactly
            assert (varied, d, r1, r2) == (row.varied, row.delta_star, row.r1, row.r2)

    def test_param_table_digits(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--kind", "param", "--family", "gaussian", "--s", "7", "--eps", "1", "--range", "2",
            "--param-list", "0.8,1.0,1.2,1.5,2.0,2.5,3.0",
        )
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("2 "))
        assert row.split() == ["2", "0.2012", "1.3267", "2.6929"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--kind", "param", "--family", "laplace", "--s", "7", "--eps", "1", "--range", "2",
            "--param-list", "0.2,0.4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[1]["delta_star"] == pytest.approx(0.1954, abs=5e-5)

    def test_single_element_list(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1", "--range", "3",
            "--s-list", "7", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "varied, message",
        [
            (["--kind", "support", "--param", "0.5", "--s-list", ","], "--s-list"),
            (
                ["--kind", "support", "--param", "0.5", "--s-list", "3,x"],
                "--s-list must be a comma-separated list of integers",
            ),
            (
                ["--kind", "param", "--s", "7", "--param-list", "0.5,x"],
                "--param-list must be a comma-separated list of numbers",
            ),
        ],
        ids=["empty", "s-list-not-integers", "param-list-not-numbers"],
    )
    def test_empty_list_exits_2(self, capsys, varied, message):
        code, _, err = run(
            capsys, "sweep", *varied, "--family", "laplace", "--eps", "1", "--range", "3", "--format", "csv"
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "varied, flag",
        [(["--kind", "param", "--param-list", "0.5"], "--s"), (["--kind", "support", "--s-list", "7"], "--param")],
        ids=["param", "support"],
    )
    def test_kind_requires_matching_flags(self, capsys, varied, flag):
        code, _, err = run(capsys, "sweep", *varied, "--family", "laplace", "--eps", "1", "--range", "2")
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize(
        "varied",
        [
            ["--kind", "support", "--param", "0.5", "--s-list", "7"],
            ["--kind", "param", "--s", "7", "--param-list", "0.5"],
        ],
        ids=["support", "param"],
    )
    def test_bad_epsilon_at_range_0_exits_2(self, capsys, varied):
        code, out, err = run(capsys, "sweep", "--family", "laplace", "--eps", "-1", "--range", "0", *varied)
        assert code == 2 and out == ""
        assert "epsilon" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep", "--kind", "support", "--family", "laplace", "--param", "0.5", "--eps", "1", "--range", "3",
            "--s-list", "3,5", "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("varied,delta_star,r1,r2\n")


class TestCheckPure:
    def write(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_common_support_is_pure(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-pure", "--spec", self.write(tmp_path, COMMON_SPEC), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["finite"] is True
        assert doc["epsilon_star"] == pytest.approx(0.5, abs=1e-12)
        assert len(doc["witness"]) == 3

    def test_mismatch_exits_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-pure", "--spec", self.write(tmp_path, MISMATCH_SPEC), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["finite"] is False and doc["epsilon_star"] is None

    def test_single_input(self, capsys, tmp_path):
        doc = {
            "kernel": {"family": "gaussian", "param": 1.0},
            "inputs": [5],
            "outputs": [4, 5, 6],
            "supports": {"5": [4, 5, 6]},
        }
        code, out, _ = run(capsys, "check-pure", "--spec", self.write(tmp_path, doc), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"finite": True, "epsilon_star": 0.0, "witness": None}

    def test_invalid_schema_exits_2(self, capsys, tmp_path):
        bad = dict(COMMON_SPEC, supports={"0": [0, 9], "1": [0, 1]})
        code, _, err = run(capsys, "check-pure", "--spec", self.write(tmp_path, bad))
        assert code == 2
        assert "not an output" in err

    @pytest.mark.parametrize("values", [[["0", "1"], ["1", "0"]], [[False, True], [True, False]]])
    def test_non_numeric_distance_exits_2(self, capsys, tmp_path, values):
        bad = dict(COMMON_SPEC, distance={"type": "matrix", "values": values})
        code, _, err = run(capsys, "check-pure", "--spec", self.write(tmp_path, bad))
        assert code == 2
        assert "distance[0][0]" in err

    @pytest.mark.parametrize("where", sorted(DUPLICATE_KEY_SPECS))
    def test_duplicate_key_exits_2(self, capsys, tmp_path, where):
        text, key = DUPLICATE_KEY_SPECS[where]
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, err = run(capsys, "check-pure", "--spec", str(path))
        assert code == 2 and out == ""
        assert f"duplicate key '{key}'" in err

    @pytest.mark.parametrize(
        "doc, key",
        [
            # read as the absolute distance, where the matrix gives a level of 2.5 instead of 0.5
            (dict(COMMON_SPEC, distnace={"type": "matrix", "values": [[0, 5], [5, 0]]}), "distnace"),
            (dict(COMMON_SPEC, kernel={"family": "laplace", "param": 0.5, "sigma": 1.0}), "sigma"),
            (dict(COMMON_SPEC, distance={"type": "abs", "values": [[0, 1], [1, 0]]}), "values"),
            (dict(COMMON_SPEC, distance={"type": "matrix", "values": [[0, 1], [1, 0]], "scale": 2}), "scale"),
        ],
        ids=["top-level", "kernel", "abs-distance", "matrix-distance"],
    )
    def test_unknown_key_exits_2(self, capsys, tmp_path, doc, key):
        code, out, err = run(capsys, "check-pure", "--spec", self.write(tmp_path, doc))
        assert code == 2 and out == ""
        assert f"unknown key '{key}'" in err

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "check-pure", "--spec", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-pure", "--spec", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            dict(COMMON_SPEC, kernel={"family": "laplace", "param": 10**400}),
            dict(COMMON_SPEC, distance={"type": "matrix", "values": [[0, 10**400], [1, 0]]}),
        ],
        ids=["kernel-param", "matrix-entry"],
    )
    def test_integer_past_float_range_exits_2(self, capsys, tmp_path, doc):
        code, out, err = run(capsys, "check-pure", "--spec", self.write(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 200_000, b'{"kernel": {"family": "laplace", "param": ' + b"1" * 5000 + b"}}"],
        ids=["undecodable", "too-deep", "too-many-digits"],
    )
    def test_unreadable_json_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "check-pure", "--spec", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestSample:
    def test_degenerate_draws(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--family", "laplace", "--param", "0.5", "--s", "1", "--x", "4", "--n", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == "sample\n4\n4\n4\n"

    def test_seed_makes_output_identical(self, capsys):
        argv = [
            "sample", "--family", "laplace", "--param", "0.5", "--s", "5", "--x", "0", "--n", "200",
            "--seed", "99", "--format", "csv",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_histogram_counts(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--family", "gaussian", "--param", "1", "--s", "5", "--x", "2", "--n", "1000",
            "--seed", "1", "--histogram", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,count"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 1000
        values = [int(line.split(",")[0]) for line in lines[1:]]
        assert set(values) <= {0, 1, 2, 3, 4}

    def test_json_samples(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--family", "laplace", "--param", "1", "--s", "3", "--x", "-2", "--n", "10",
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["samples"]) == 10
        assert set(doc["samples"]) <= {-3, -2, -1}

    def test_negative_count_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sample", "--family", "laplace", "--param", "1", "--s", "3", "--x", "0", "--n", "-1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--x", "0", "--seed", "-1"], "seed"), (["--x", str(2**63 - 1)], "64-bit")],
        ids=["negative-seed", "symbol-past-int64"],
    )
    def test_bad_seed_or_symbol_exits_2(self, capsys, flags, message):
        code, out, err = run(capsys, "sample", "--family", "laplace", "--param", "0.5", "--s", "3", "--n", "2", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
