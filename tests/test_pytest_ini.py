"""The suite's own configuration: a failing property reports, not crashes.

``pytest.ini`` turns every warning into an error.  Hypothesis's report
hook imports ``mypy_extensions.TypedDict``, which warns on this
toolchain, so without the ini's one ``ignore`` line a failing ``@given``
test ended the session in ``INTERNALERROR``: no falsifying example was
printed and the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parent.parent / "pytest.ini"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_planted_failing_property(x):
    assert x < 10


def test_the_next_test_still_runs():
    assert True
'''


def test_a_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1
