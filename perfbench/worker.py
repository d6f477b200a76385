"""Run one workload in this process and print its result as the last line.

run.py starts this file in a fresh process with PYTHONPATH=src and the
BLAS/OpenMP thread count pinned; see run.py for the command line. With
--trace 0 the result carries every end-to-end metric except peak_rss_mb,
which run.py adds from outside; with --trace 1 every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import farecast
from farecast import gbt

from clock import Stopwatch
from tracing import Tracer, median_or_zero
from workloads import INSTRUMENTED, WORKLOADS, Pass, Sizes, Workload

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5
# End-to-end metrics measured outside the worker, by run.py.
FROM_OUTSIDE = {"peak_rss_mb"}

# Span names whose total and self seconds are per-layer metrics.
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in INSTRUMENTED))


def declared_metrics() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": gbt.numba_enabled(),
        "pythonpath": os.environ.get("PYTHONPATH", ""),
        "blas_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


class Ledger:
    """Operations attempted and failed over a run, with the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages += failures[: MAX_REPORTED_FAILURES - len(self.messages)]


def rounded(values) -> list[float]:
    return [round(v, 4) for v in values]


def timed_pass(workload: Workload, state, index: int, calibrate: bool = True) -> Pass:
    watch = Stopwatch(calibrate)
    output = workload.run_pass(state, index, watch)
    return Pass(seconds=dict(watch.scaled), raw=dict(watch.raw), output=output)


def untraced_run(workload: Workload, seed: int, seconds: float, work: Path,
                 ledger: Ledger) -> dict[str, float]:
    setup_s, setup_raw = [], []
    for k in range(SETUP_REPEATS):
        state = None  # let the previous set-up's memory go before the next
        watch = Stopwatch()
        with watch.part("setup"):
            state = workload.setup(seed, work / f"setup{k}")
        setup_s.append(watch.scaled["setup"])
        setup_raw.append(watch.raw["setup"])
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(work / f"setup{k}", ignore_errors=True)
    print(f"info setup_s {rounded(setup_s)} raw {rounded(setup_raw)}")
    ledger.add(1, workload.check_setup(state))

    passes = []
    start = perf_counter()
    while len(passes) < workload.min_passes or perf_counter() - start < seconds:
        done = timed_pass(workload, state, len(passes))
        ledger.add(*workload.check(state, done))
        if not passes:
            for name, digest in workload.digests(state).items():
                print(f"info sha256 {name} {digest}")
        done.output = None
        passes.append(done)
    for part in passes[0].seconds:
        print(f"info {part} {len(passes)} passes: s {rounded(p.seconds[part] for p in passes)} "
              f"raw {rounded(p.raw[part] for p in passes)}")
    return {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(sum(p.seconds.values()) for p in passes),
    }


def traced_run(workload: Workload, seed: int, seconds: float, work: Path,
               ledger: Ledger) -> dict[str, float]:
    """Pairs of an untraced and a traced pass on the same inputs; the
    difference of their medians is the tracing overhead. No reference task
    runs here (see clock.py), so a traced pass holds only program work."""
    tracer = Tracer()
    with tracer.instrument(INSTRUMENTED), tracer.span("setup"):
        state = workload.setup(seed, work / "setup0")
    ledger.add(1, workload.check_setup(state))

    untraced_s = []
    start = perf_counter()
    index = 0
    while index < workload.min_passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        done = timed_pass(workload, state, index, calibrate=False)
        untraced_s.append(perf_counter() - t0)
        ledger.add(*workload.check(state, done))
        with tracer.instrument(INSTRUMENTED), tracer.span("pass"):
            done = timed_pass(workload, state, index, calibrate=False)
        ledger.add(*workload.check(state, done))
        index += 1
    return layer_metrics(tracer, untraced_s, ledger)


def layer_metrics(tracer: Tracer, untraced_s: list[float], ledger: Ledger) -> dict[str, float]:
    passes = tracer.roots("pass")
    roots = tracer.roots("setup") + passes
    totals = [tracer.layer_totals(r) for r in roots]

    def med(layer: str, key: str) -> float:
        return median_or_zero(t[layer].get(key, 0) for t in totals if layer in t)

    def rate(layer: str, key: str) -> float:
        return median_or_zero(t[layer][key] / t[layer]["total_s"] for t in totals if layer in t)

    def ratio(layer: str, num: str, den: str) -> float:
        pairs = [(t[layer][num], t[layer][den]) for t in totals if layer in t]
        return median_or_zero(n / d for n, d in pairs if d)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = med(layer, "total_s")
        out[f"{layer}_self_s"] = med(layer, "self_s")
    explain_ms = np.array(tracer.durations("explain.explain", passes)) * 1e3
    own = tracer.self_seconds()
    traced_s = [tracer.spans[r].seconds for r in passes]
    out.update({
        "ingest.rows": med("ingest.parse", "rows"),
        "ingest.rejected_rows": med("ingest.parse", "rejected_rows"),
        "features.rows_per_s": rate("features.assemble", "rows"),
        "gbt.trees": med("gbt.train", "trees"),
        "gbt.splits": med("gbt.train", "splits"),
        "logit.iterations": med("logit.fit", "iterations"),
        "gbt.predict_rows_per_s": rate("gbt.predict", "rows"),
        "explain.p50_ms": float(np.percentile(explain_ms, 50)) if explain_ms.size else 0.0,
        "explain.p99_ms": float(np.percentile(explain_ms, 99)) if explain_ms.size else 0.0,
        "explain.samples": int(explain_ms.size),
        "simulate.requests_per_rep": ratio("simulate.arrivals", "requests", "calls"),
        "simulate.accept_ratio": ratio("simulate.replay", "bookings", "requests"),
        "simulate.reps": med("simulate.arrivals", "calls"),
        "trace.pass_s": median_or_zero(traced_s),
        "trace.untraced_pass_s": median_or_zero(untraced_s),
        "trace.overhead_s": median_or_zero(traced_s) - median_or_zero(untraced_s),
        "trace.layer_self_s": median_or_zero(
            sum(v["self_s"] for v in tracer.layer_totals(r).values()) for r in passes),
        "trace.unattributed_s": median_or_zero(own[r] for r in passes),
        "failed_share": ledger.failed / ledger.attempted if ledger.attempted else 0.0,
    })
    return out


def main(argv: list[str] | None = None, sizes: Sizes | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = (ROOT / "src").resolve()
    if src not in Path(farecast.__file__).resolve().parents:
        raise SystemExit(f"farecast imported from {farecast.__file__}, not from {src}")

    env = environment()
    print(f"info env {json.dumps(env, sort_keys=True)}")
    workload = WORKLOADS[args.workload](sizes)
    ledger = Ledger()
    run = traced_run if args.trace else untraced_run
    values = run(workload, args.seed, args.seconds, args.work, ledger)
    for message in ledger.messages:
        print(f"failed {message}", file=sys.stderr)

    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - set(units)
    missing = set(units) - set(values) - (set() if args.trace else FROM_OUTSIDE)
    if unknown or missing:
        raise SystemExit(f"metrics not as declared: unknown {sorted(unknown)}, missing {sorted(missing)}")
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
