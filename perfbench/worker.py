"""One benchmark child process: a timed set-up probe, or one workload run.

    python3 perfbench/worker.py setup --work-dir DIR
    python3 perfbench/worker.py run --work-dir DIR --seconds S --trace 0|1

`run.py` starts these with the BLAS thread count fixed and `src/` on the
path, after writing the workload's inputs to DIR. The last stdout line is a
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def timed_setup(work_dir: str):
    """Package import plus the workload's set-up, timed from a cold import."""
    t0 = time.perf_counter()
    import touch_audition  # noqa: F401
    import workloads

    state = workloads.setup(workloads.read_spec(work_dir))
    return time.perf_counter() - t0, state


def closed_loop(op, state: dict, seconds: float, min_ops: int, first: int = 0, tracer=None) -> dict:
    """Run operations back to back, one client, for about `seconds`.

    No operation starts once the median operation would end past the budget;
    `min_ops` are run regardless.
    """
    latencies, responses, units = [], [], 0
    start = time.perf_counter()
    while True:
        i = first + len(latencies)
        t0 = time.perf_counter()
        if tracer is None:
            done, response = op(state, i)
        else:
            tracer.run = i
            done, response = tracer.call("op", op, state, i)
        latencies.append(time.perf_counter() - t0)
        responses.append((i, response))
        units += done
        elapsed = time.perf_counter() - start
        if len(latencies) >= min_ops and elapsed + statistics.median(latencies) > seconds:
            break
    return {"latencies": latencies, "responses": responses, "units": units,
            "wall": time.perf_counter() - start}


def check(workload: str, state: dict, responses: list, tally, unreconciled=frozenset()) -> None:
    """Check every response, outside any timed region.

    `unreconciled` holds the operations whose live conv MACs did not match
    `analysis.count_flops` in the traced run.
    """
    import workloads
    from oracle import reference_probs

    reasons = {}
    if workload == "infer_single":
        from touch_audition import dsp

        model = state["model"]
        n = len(responses)
        sampled = {responses[j][0] for j in range(0, n, max(1, n // workloads.ORACLE_SAMPLES))}
        for i, probs in responses:
            reason = workloads.check_probs(probs, model.config.n_classes)
            if reason is None and i in sampled:
                wav = state["wavs"][i % len(state["wavs"])]
                features = model.normalize(dsp.log_mel_spectrogram(dsp.load_wav(wav)))
                reason = workloads.check_oracle(probs, reference_probs(model, features))
            reasons[i] = reason
    else:
        first = None
        for i, (model, history) in responses:
            reasons[i], digest = workloads.check_train(model, history, first)
            first = first or digest
    for i, reason in reasons.items():
        if reason is None and i in unreconciled:
            reason = "per-branch conv MACs differ from analysis.count_flops"
        tally.record(reason)


def run(work_dir: str, seconds: float, trace: bool) -> dict:
    _, state = timed_setup(work_dir)
    import workloads

    workload = workloads.read_spec(work_dir)["workload"]
    op = workloads.OPS[workload]
    # Warm-up, outside the timed loop: first-call allocation (on train_recipe,
    # the first touch of its ~1.8 GB working set) and the file cache.
    op(state, 0)
    tally = workloads.Tally()
    out = {}
    if not trace:
        loop = closed_loop(op, state, seconds, min_ops=2 if workload == "train_recipe" else 1)
        check(workload, state, loop["responses"], tally)
        out.update(latencies=loop["latencies"], units=loop["units"], wall=loop["wall"])
    else:
        from tracing import Tracer, gemm_gflops

        plain = closed_loop(op, state, seconds / 2, min_ops=1)
        tracer = Tracer()
        tracer.install()
        try:
            traced_state = dict(state, **workloads.setup(workloads.read_spec(work_dir)))
            traced = closed_loop(op, traced_state, seconds / 2, min_ops=1,
                                 first=len(plain["latencies"]), tracer=tracer)
        finally:
            tracer.uninstall()
        check(workload, state, plain["responses"] + traced["responses"], tally,
              tracer.mismatched_runs)
        plain_cps = plain["units"] / plain["wall"]
        traced_cps = traced["units"] / traced["wall"]
        runs = [i for i, _ in traced["responses"]]
        out["per_layer"] = tracer.per_layer(runs, gemm_gflops(), traced_cps - plain_cps)
        out["trace_phases"] = {"untraced_clips_per_s": plain_cps, "traced_clips_per_s": traced_cps}
        tracer.dump(os.path.join(work_dir, "spans.json"))
    out.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.role == "run" and args.seconds is None:
        ap.error("run needs --seconds")
    if args.role == "setup":
        result = {"setup_s": timed_setup(args.work_dir)[0]}
    else:
        result = run(args.work_dir, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
