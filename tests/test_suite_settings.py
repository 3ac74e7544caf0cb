"""The suite's own pytest settings report every test, a failing property too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_A_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    # The warnings-as-errors filter once turned a deprecation warning, raised
    # as the hypothesis plugin reported a failure, into an INTERNALERROR that
    # ended the run there.
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY_THEN_A_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
