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
