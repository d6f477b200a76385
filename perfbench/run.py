"""farecast benchmark: run one workload once and print its result.

From the root of a source checkout:

    python3 perfbench/run.py --workload fixture_e2e --seed 1 --seconds 10 --trace 0

Workloads: fixture_e2e, sim_mc, score_explain (see README.md).
The workload runs in a fresh worker process with PYTHONPATH=src and the
BLAS/OpenMP thread count pinned, inside a scratch directory under the
checkout that is removed afterwards. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The exit
status is not 0 when the workload could not run or printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
BENCH_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.update({var: str(BENCH_THREADS) for var in THREAD_VARS})
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="see README.md")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "farecast" / "__init__.py").is_file():
        print(f"error: no farecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if BENCH_THREADS > len(os.sched_getaffinity(0)):
        print("error: more pinned threads than available cores", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: worker ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(out, end="")
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the worker is this process's only child.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
