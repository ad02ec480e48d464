"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 45 --out summary.json \
        [--workloads infer_single,train_recipe] [--trace 0]

Runs one at a time from the checkout root; the workloads default to those in
BENCHMARK.json. For each workload and metric it
reports the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread: (q3 - q1) / median. The summary JSON also keeps every run's
result line and wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", help="comma-separated; default: those in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.workloads:
        names = args.workloads.split(",")
    else:
        with open("BENCHMARK.json") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "env": json.loads(lines[-2].removeprefix("env ")),
                         "result": json.loads(lines[-1])})
            print(workload, seed, f"{runs[-1]['wall_s']:.1f} s", lines[-1], flush=True)
        names = runs[0]["result"]["metrics"]
        metrics = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values) if len(values) > 1 else {"values": values},
                                 unit=names[name]["unit"])
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
        for name, m in metrics.items():
            if "spread" in m:
                print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                      f"spread {m['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
