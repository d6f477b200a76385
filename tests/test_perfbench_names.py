"""The benchmark's traced run patches farecast names; they must all exist.

The benchmark's own self-tests (`PYTHONPATH=src python -m pytest -q
perfbench`) take tens of seconds and run apart from this suite, so this fast
check catches a deletion or rename that would break the traced run.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from farecast import gbt, simulate, synth
from oracles import assert_markets_equal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextmanager
def _perfbench_importable():
    """perfbench's modules importable, without writing bytecode beside them."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


@pytest.fixture(scope="module")
def workloads():
    with _perfbench_importable():
        import workloads
    return workloads


@pytest.fixture(scope="module")
def tracing():
    with _perfbench_importable():
        import tracing
    return tracing


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


def test_each_traced_predict_call_records_one_span(workloads, tracing):
    """A label call and a probability call record one gbt.predict span each:
    neither reaches the other through its traced module attribute."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    model = gbt.train(X, (X[:, 0] > 0).astype(float), gbt.GbtParams(n_trees=2, max_depth=2))
    tracer = tracing.Tracer()
    with tracer.instrument(workloads.INSTRUMENTED), tracer.span("pass"):
        gbt.predict_label(model, X)
        gbt.predict_proba(model, X)
    assert [s.name for s in tracer.spans].count("gbt.predict") == 2


def test_compare_policies_traces_one_span_per_stream_and_replay(workloads, tracing):
    """perfbench counts `simulate.arrivals` spans as replications and takes
    its accept ratio from each `simulate.replay` span's bookings over the
    stream's requests. That contract is why `replay` stays one call per
    stream and policy, made through the module attribute: n_reps arrival
    spans and 2 * n_reps replay spans, each with bookings <= requests."""
    n_reps = 3
    _, scenario = synth.standard_fixture(1)
    scenario = replace(scenario, n_reps=n_reps)
    policy = simulate.Policy(limits=tuple([float(scenario.capacity)] * simulate.N_CLASSES),
                             protections=tuple([0.0] * (simulate.N_CLASSES - 1)))
    tracer = tracing.Tracer()
    with tracer.instrument(workloads.INSTRUMENTED), tracer.span("pass"):
        simulate.compare_policies(scenario, policy, policy)
    names = [s.name for s in tracer.spans]
    assert names.count("simulate.arrivals") == n_reps
    replays = [s for s in tracer.spans if s.name == "simulate.replay"]
    assert len(replays) == 2 * n_reps
    assert all(0 < s.counts["bookings"] <= s.counts["requests"] for s in replays)


@pytest.mark.parametrize("od", ["AMS-DXB", "KUL-SIN"])
def test_fixture_market_is_the_market_synth_generates(workloads, od):
    """perfbench builds one market alone with its own copy of the fixture's
    seed rule; it must be the market synth.fixture_market draws."""
    i = [name for name, _, _ in synth.FIXTURE_ODS].index(od)
    assert_markets_equal(workloads.fixture_market(od, 7), synth.fixture_market(i, 7)[1])
