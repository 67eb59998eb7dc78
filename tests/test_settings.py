"""The test settings themselves: a failing property must be reported as
one failed test, and the session must go on to run the rest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # On failure Hypothesis imports libcst to suggest a patch, and that
    # import raises a third-party DeprecationWarning, which the repo's
    # warning filters must not turn into an INTERNALERROR.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in run.stdout, out
