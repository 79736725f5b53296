import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_failing_property_is_reported_as_one_failure(tmp_path):
    # hypothesis reports a failing property through imports that warn; under
    # this repo's warning filters the run must still report that one failure
    # and go on to the next test, not stop with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
