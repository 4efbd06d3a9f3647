"""The suite's own pytest settings, checked by running pytest with them on
a probe file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis explains a failing example through libcst, whose import
    # warns from mypy_extensions with a DeprecationWarning; the warning
    # filters, which make the package's own DeprecationWarnings errors,
    # must still let the run go on to the next test
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    summary = result.stdout.strip().splitlines()[-1]
    assert "1 failed" in summary and "1 passed" in summary, result.stdout
