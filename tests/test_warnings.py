"""The project's warning filter and the conftest.py that keeps failures reported."""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

FAILING_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_deprecation_warning_is_an_error():
    # conftest.py ignores DeprecationWarning for one import only: inside a test,
    # pyproject.toml's filter still turns the warning into an exception
    with pytest.raises(DeprecationWarning):
        warnings.warn("deprecated", DeprecationWarning)


def test_failing_property_is_reported_beside_the_rest(tmp_path):
    # a suite of one failing property and one passing test, under the same
    # filter and conftest.py: both results come out, with no INTERNALERROR
    # (where libcst is installed, it is what the conftest guards against)
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error::DeprecationWarning\n")
    (tmp_path / "test_suite.py").write_text(FAILING_SUITE)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
