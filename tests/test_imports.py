"""No module of the package imports a name it never uses.

Neither pyflakes nor ruff is a dependency, so the check walks each module's
syntax tree: a name bound by an import counts as used when it appears as a
name anywhere in the module, annotations included, string annotations
parsed.
"""

import ast
from pathlib import Path

import pytest

import simpop

MODULES = sorted(
    path
    for path in Path(simpop.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # its imports are the exports
)


def imported_names(tree):
    """Each name an import binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def used_names(tree):
    """Every name the module reads, with those inside string annotations."""
    trees = [tree]
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_the_check_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse(
        "import numpy as np\nfrom typing import Mapping, Sequence\n"
        "def f(x: 'Mapping[str, int]') -> None: ...\n"
    )
    assert set(imported_names(tree)) - used_names(tree) == {"np", "Sequence"}
