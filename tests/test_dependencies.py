"""The runtime needs numpy alone: every import in src/farecast is from the
standard library, numpy or farecast itself, and pyproject.toml says so."""

from __future__ import annotations

import ast
import os
import re
import subprocess
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


def _used_names(tree: ast.Module, own: frozenset[str] = frozenset()) -> set[str]:
    """Every name read as a variable, an attribute or an import, but a bare
    name in `own`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in own:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def test_every_definition_in_src_is_used_by_the_package_or_perfbench():
    """Code that only tests call belongs with the tests (tests/oracles.py):
    each function, class and method in src/farecast needs a use in
    src/farecast or perfbench. A perfbench module's bare name for one of its
    own definitions is no use of a src definition of that name."""
    sources = sorted(SRC.rglob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sources}
    used = set().union(*(
        _used_names(tree, frozenset() if path.is_relative_to(SRC) else frozenset(_defined_names(tree)))
        for path, tree in trees.items()))
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path, tree in trees.items() if path.is_relative_to(SRC)
              for name in _defined_names(tree) if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports but never reads: a name is read where it
    is loaded as a name (an attribute's base included), named in an
    annotation (a quoted one too) or listed in __all__."""
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    read = {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_every_import_in_src_is_used():
    unused = {str(path.relative_to(SRC)): names for path in sorted(SRC.rglob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def test_features_and_holdout_split_leave_numpy_ma_unimported():
    # A flagless np.unique imports numpy.ma (numpy 2.4: about 1 MiB and 11 ms
    # in every features, train or evaluate process), so src/farecast avoids it.
    code = """
import sys
from farecast import features, gbt, ingest, sentiment, synth
data = synth.generate_market(synth.ArchetypeSpec(*synth.FIXTURE_ODS[0]), 1042)
aggs = features.build_airline_aggregates(
    data.reviews, ingest.filter_tweets(data.tweets), data.safety, data.fleet,
    sentiment.load_default_lexicon())
table = features.assemble_feature_vectors(
    data.bookings, data.fares, aggs, widebody=features.airline_widebody_flags(data.fleet))
assert gbt.holdout_split_by_day(table.column("dep_day_id"), 0.2).any()
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
