"""Every module of the package parses under the grammar of the oldest Python
that ``pyproject.toml`` admits (its ``requires-python`` floor).

This checks syntax only, as far as ``ast.parse``'s ``feature_version``
tells: a library API that the floor lacks (a function added to the standard
library or to numpy later) still passes here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "simpop").glob("*.py"))


def python_floor() -> tuple[int, int]:
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_floor_is_read():
    assert python_floor() >= (3, 10)
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())
