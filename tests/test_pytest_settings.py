"""The test suite's own settings, run on a throwaway test file.

``pyproject.toml`` makes every warning an error.  A failing Hypothesis
property must still be reported as one failed test, with its falsifying
example, and the session must go on to the tests after it: the warnings
Hypothesis's failure report raises must not end pytest with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(n):
    assert n != n


def test_after_the_failure():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert run.returncode == 1, output
