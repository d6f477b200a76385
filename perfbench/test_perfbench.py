"""Self-tests for the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that every declared metric is emitted with its declared unit, and
that a deliberately broken program output is counted as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from farecast import cli, gbt, simulate
from tracing import Tracer
from workloads import WORKLOADS, Sizes

TINY = Sizes(
    e2e_ods=("LHR-JFK",),
    e2e_reps=4,
    sim_reps=4,
    score_ods=("LHR-JFK",),
)

def run_tiny(name: str, trace: int, tmp_path: Path) -> dict:
    return worker.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                        "--trace", str(trace), "--work", str(tmp_path)], sizes=TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_are_declared_and_checked(name, tmp_path):
    result = run_tiny(name, 0, tmp_path)
    units = worker.declared_metrics()["end_to_end"]
    assert set(result["metrics"]) == set(units) - worker.FROM_OUTSIDE
    for metric, value in result["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = run_tiny(name, 1, tmp_path)
    units = worker.declared_metrics()["per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert metrics["failed_share"] == 0
    # Exact within each pass; these are medians over the passes of a run.
    assert metrics["trace.layer_self_s"] + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.pass_s"], rel=0.1)


def test_fixture_e2e_traced_layers(tmp_path):
    metrics = {m: v["value"] for m, v in run_tiny("fixture_e2e", 1, tmp_path)["metrics"].items()}
    for stage in ("features", "train", "evaluate", "explain", "simulate"):
        assert metrics[f"cli.{stage}_s"] > 0
    assert metrics["gbt.trees"] == gbt.GbtParams().n_trees
    assert metrics["gbt.splits"] > 0 and metrics["logit.iterations"] > 0
    assert metrics["ingest.rows"] > 0 and metrics["explain.samples"] == 1
    assert metrics["simulate.reps"] == TINY.e2e_reps


def test_calls_inside_compare_policies_are_traced(tmp_path):
    sim = {m: v["value"] for m, v in run_tiny("sim_mc", 1, tmp_path)["metrics"].items()}
    assert sim["simulate.reps"] == TINY.sim_reps
    assert sim["simulate.requests_per_rep"] > 0 and 0 < sim["simulate.accept_ratio"] <= 1
    assert 0 < sim["simulate.arrivals_s"] + sim["simulate.replay_s"] <= sim["simulate.compare_s"]


def _broken_compare(*args, **kwargs):
    report = _real_compare(*args, **kwargs)
    report.per_rep[(True, "xgb")][0] = -1.0
    return report


_real_compare = simulate.compare_policies

BREAKAGES = {
    "fixture_e2e": (cli, "cmd_explain", lambda args, cfg: 1),
    "sim_mc": (simulate, "compare_policies", _broken_compare),
    "score_explain": (gbt, "predict_proba", lambda model, X, missing=None: X[:, 0] * 0 + 1.0),
}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_broken_output_counts_as_failed(name, trace, tmp_path, monkeypatch):
    owner, attr, broken = BREAKAGES[name]
    monkeypatch.setattr(owner, attr, broken)
    result = run_tiny(name, trace, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    if trace:
        share = result["metrics"]["failed_share"]["value"]
        assert share == pytest.approx(result["failed"] / result["attempted"])


def test_self_time_excludes_children_and_patches_are_undone():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.__dict__["work"]
    tracer = Tracer()
    with tracer.instrument([(Owner, "work", "owner.work", lambda r, x: {"n": r})]):
        assert Owner.work(1) == 2  # no root span open: not recorded
        with tracer.span("pass"):
            with tracer.span("outer"):
                Owner.work(2)
    assert Owner.__dict__["work"] is original
    assert [s.name for s in tracer.spans] == ["pass", "outer", "owner.work"]
    totals = tracer.layer_totals(tracer.roots("pass")[0])
    inner = tracer.spans[2].seconds
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["total_s"] - inner)
    assert totals["owner.work"]["n"] == 3


def test_run_fails_without_sources(tmp_path):
    root = Path(worker.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last[0])
