"""The benchmark's traced run patches farecast names; they must all exist.

The benchmark's own self-tests (`PYTHONPATH=src python -m pytest -q
perfbench`) take tens of seconds and run apart from this suite, so this fast
check catches a deletion or rename that would break the traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from farecast import gbt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported without writing bytecode beside it."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return workloads


def test_every_instrumented_name_exists(workloads):
    absent = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in workloads.INSTRUMENTED
        if attr not in vars(owner)
    ]
    assert absent == []


def test_count_splits_runs_on_a_trained_model(workloads):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    model = gbt.train(X, y, gbt.GbtParams(n_trees=3, max_depth=2))
    splits = workloads._count_splits(model)
    assert splits > 0
    assert splits == sum(tree.n_leaves() - 1 for tree in model.trees)
