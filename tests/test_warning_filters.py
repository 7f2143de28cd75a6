"""The suite's warning filters: deprecations are errors, except the one that
hypothesis's failure report raises, which would abort the whole session."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def run_pytest(tmp_path, source):
    test_file = tmp_path / "test_inner.py"
    test_file.write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", PYPROJECT, "--rootdir", str(tmp_path), str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.stdout + proc.stderr


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    output = run_pytest(
        tmp_path,
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n",
    )
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_any_other_deprecation_is_still_an_error(tmp_path):
    output = run_pytest(
        tmp_path,
        "import warnings\n"
        "\n"
        "def test_warns():\n"
        "    warnings.warn('old', DeprecationWarning)\n",
    )
    assert "1 failed" in output
