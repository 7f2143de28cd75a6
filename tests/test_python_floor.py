"""Every module of the package, and every script, parses as the oldest
Python that ``pyproject.toml`` declares in ``requires-python``, whichever
interpreter runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_the_floor_is_the_one_pyproject_declares():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "fundflow").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda path: path.name,
)
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
