"""The suite's own pytest settings: a failing test must be reported as a
failure and the run must go on, whatever the failure makes pytest import."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    # Printing a failing example's patch makes hypothesis import libcst,
    # which warns about a deprecation; under filterwarnings = error that
    # warning must not stop the run.
    probe = tmp_path / "test_probe.py"
    probe.write_text(_FAILING_HYPOTHESIS_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
