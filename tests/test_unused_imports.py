"""Every name a filmhom module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import filmhom

SRC = Path(filmhom.__file__).resolve().parent
# perfbench/spans.py wraps homogenize.torus_components and film.thresholds by
# name, so each stays importable from its module although nothing there calls it
USED_ELSEWHERE = {("homogenize", "torus_components"), ("film", "thresholds")}


def _imported_names(tree):
    """The names that the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in set(_imported_names(tree))
                    if name not in used and (path.stem, name) not in USED_ELSEWHERE)
    assert not unused, f"{path.name} imports {unused} without using them"
