"""The suite's pytest settings still report a failing Hypothesis property.

``pyproject.toml`` turns every warning into an error. When a property
fails, the Hypothesis plugin imports a module that warns while pytest is
writing its report, so each warning filter it needs must be there, or
the run ends in an internal error and names no failed test.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PROPERTIES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test():
    pass
"""


def test_a_failing_property_is_reported_as_failed(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_property.py").write_text(PROPERTIES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED tests/test_property.py::test_a_failing_property" in output
    assert "1 failed, 1 passed" in output
