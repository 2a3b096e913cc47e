"""The test configuration itself: a failing property reports its example."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers())
def test_integers_stay_small(x):
    assert x < 10
'''


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # warnings are errors under this configuration; one raised while the
    # hypothesis plugin reports a failure used to end the run in INTERNALERROR
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode != 0
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
