"""The test suite's own settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_like_any_other(tmp_path):
    """Under the repository's warning filters, a failing `@given` test is one
    failure among the others, not an INTERNALERROR that ends the run."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
