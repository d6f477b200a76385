"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload sim_mc --seeds 1-10 [--trace 0] [--json out.json]

Spread is the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median; compare it with the
metric's bound in BENCHMARK.json. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:34s} median {s['median']:.6g} {s['unit']:<16s} spread {s['spread']:.3f}{note}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
