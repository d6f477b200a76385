"""The runtime needs numpy alone: every import in src/farecast is from the
standard library, numpy or farecast itself, and pyproject.toml says so."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "farecast"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "farecast"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside farecast
            roots.add(node.module.split(".")[0] if node.level == 0 else "farecast")
    return roots


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_source_imports_only_stdlib_numpy_and_farecast(path):
    assert _imported_roots(path) - ALLOWED == set()


def test_declared_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]


def _defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of the
    classes, as "name" or "Class.method"."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read as a variable, an attribute or an import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def test_every_definition_in_src_is_used_by_the_package_or_perfbench():
    """Code that only tests call belongs with the tests (tests/oracles.py):
    each function, class and method in src/farecast needs a use in
    src/farecast or perfbench."""
    sources = sorted(SRC.rglob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sources}
    used = set().union(*map(_used_names, trees.values()))
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path, tree in trees.items() if path.is_relative_to(SRC)
              for name in _defined_names(tree) if name.rsplit(".", 1)[-1] not in used]
    assert unused == []
