"""The suite's pytest configuration reports a failing property test as a failure.

pyproject.toml turns every warning into an error.  When a Hypothesis test
fails, Hypothesis's report hook imports libcst where it is installed, and
that import warns; unfiltered, the warning ends the whole session with an
INTERNALERROR, so no later test runs.  Here pytest runs, under a copy of the
repository's configuration, one failing property test and one passing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_property_test_fails_and_the_session_runs_on(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
