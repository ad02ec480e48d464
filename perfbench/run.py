"""The touch-audition benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload infer_single --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The package is imported from `./src`. The
workload's inputs (synthetic WAVs, manifest and, for `infer_single`, an
untrained checkpoint) are generated from `--seed` under
`perfbench/.work/`, then timed child processes run the workload through the
package's public API with one BLAS thread:

- `--trace 0` prints the end-to-end metrics, measured with tracing off;
- `--trace 1` prints the per-layer metrics from a traced run, and keeps its
  spans in `perfbench/.work/trace-<workload>-seed<seed>.json`.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the environment block. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

# One BLAS thread of load, fixed before numpy loads here and in every child.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 21

# (name, unit, better); the metrics of a run with tracing off.
END_TO_END = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("clips_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

NOTES = (
    "no bandwidth ratio is reported: the host's shared last-level cache is large enough "
    "that a streaming array of 4x its size would not fit beside train_recipe's resident set",
    "no wait metric is reported: no layer queues work in these workloads",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(args: list[str], env: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {args[0]} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_state(root: str) -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def environment(root: str, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha, dirty = git_state(root)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="touch-audition benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", required=True,
                    choices=("infer_single", "train_recipe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "touch_audition", "__init__.py")):
        fail(f"no package source at {src}/touch_audition: run from the root of a checkout")
    os.environ.update(BLAS_THREADS)
    os.environ.pop("TOUCH_AUDITION_THREADS", None)
    sys.path.insert(0, src)
    import touch_audition
    import workloads

    if not os.path.abspath(touch_audition.__file__).startswith(src + os.sep):
        fail(f"touch_audition imported from {touch_audition.__file__}, not {src}")

    work_root = os.path.join(HERE, ".work")
    work = os.path.join(work_root, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workloads.prepare(args.workload, args.seed, work)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
        # A timeout only catches a hung child: the run itself takes the
        # warm-up plus about --seconds.
        timeout = 2 * args.seconds + 120
        setup_s = [child(["setup", "--work-dir", work], env, timeout)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        res = child(["run", "--work-dir", work, "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], env, timeout)
        info = environment(root, args)
        if args.trace:
            import tracing

            spans = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json")
            os.replace(os.path.join(work, "spans.json"), spans)
            values = res["per_layer"]
            info["machine.gemm_gflops"] = values["machine.gemm_gflops"]
            info.update(res["trace_phases"])
            info["spans"] = os.path.relpath(spans, root)
            specs = tracing.PER_LAYER_METRICS
        else:
            lat_ms = [t * 1e3 for t in res["latencies"]]
            values = {
                "latency_p50_ms": statistics.median(lat_ms),
                "latency_p90_ms": percentile(lat_ms, 90),
                "clips_per_s": res["units"] / res["wall"],
                "peak_rss_mb": res["peak_rss_mb"],
                "setup_s": statistics.median(setup_s),
            }
            info["operations_timed"] = len(lat_ms)
            specs = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["failure_reasons"] = res["reasons"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    if args.trace:
        for note in NOTES:
            print(f"note: {note}")
    print("env " + json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
