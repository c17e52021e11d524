"""The test configuration: a failing property is reported and the session goes on."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_session_running(tmp_path):
    # reporting the failing example imports libcst, whose DeprecationWarning the filters must not turn
    # into an error: that would end the session with an INTERNALERROR before test_passes runs
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), str(probe)]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in output and "INTERNALERROR" not in output
