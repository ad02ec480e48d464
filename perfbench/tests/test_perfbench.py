"""Tests of the benchmark's own code: oracle, output checks, tracer, spec.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from oracle import reference_probs  # noqa: E402
from touch_audition import synth, training  # noqa: E402
from touch_audition.autograd import Tensor  # noqa: E402
from touch_audition.model import ModelConfig, Mtrcnn  # noqa: E402
from touch_audition.optim import Adam  # noqa: E402


def _model(seed: int = 3) -> Mtrcnn:
    """An untrained model with non-trivial batch-norm buffers and feature stats."""
    rng = np.random.default_rng(seed)
    model = Mtrcnn(ModelConfig(), rng)
    for branch in model.branches:
        for bn in branch.bns:
            bn.running_mean[...] = rng.normal(0.0, 0.1, bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, bn.gamma.data.shape)
    return model


def test_oracle_matches_forward_in_float64_on_a_short_clip():
    model = _model()
    features = np.random.default_rng(0).standard_normal((model.min_frames + 17, 64))
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    for branch in model.branches:
        for bn in branch.bns:
            bn.running_mean = bn.running_mean.astype(np.float64)
            bn.running_var = bn.running_var.astype(np.float64)
    logits = model.forward(Tensor(features[None, None])).data
    assert logits.dtype == np.float64
    e = np.exp(logits - logits.max())
    expected = e / e.sum()
    np.testing.assert_allclose(reference_probs(model, features), expected, rtol=0, atol=1e-12)


def test_float32_predict_is_within_the_oracle_tolerance():
    model = _model()
    features = np.random.default_rng(1).standard_normal((300, 64)).astype(np.float32)
    _, probs = model.predict(features[None, None])
    assert workloads.check_oracle(probs, reference_probs(model, features)) is None


def _tally(reasons) -> workloads.Tally:
    tally = workloads.Tally()
    for reason in reasons:
        tally.record(reason)
    return tally


def test_corrupted_probabilities_are_counted_as_failed():
    good = np.full((1, 6), 1 / 6, dtype=np.float32)
    corrupted = [good * 1.01, np.where(np.arange(6) == 2, np.nan, good), good[:, :5], -good]
    tally = _tally([workloads.check_probs(good, 6)] + [workloads.check_probs(p, 6) for p in corrupted])
    assert (tally.attempted, tally.failed) == (5, 4)
    assert workloads.check_oracle(good, good.astype(np.float64)) is None
    assert workloads.check_oracle(good + [[2e-3, -2e-3, 0, 0, 0, 0]], good) is not None


def test_corrupted_training_results_are_counted_as_failed():
    model = _model()
    history = [{"train_loss": 1.5}]
    ok, digest = workloads.check_train(model, history, None)
    assert ok is None
    assert workloads.check_train(model, history, digest)[0] is None
    assert workloads.check_train(model, [{"train_loss": float("nan")}], digest)[0] is not None
    model.head.bias.data[0] += 1e-7
    assert workloads.check_train(model, history, digest)[0] is not None


def test_worker_counts_a_corrupted_inference_response_as_failed(tmp_path):
    manifest = synth.synth_corpus(str(tmp_path), "gesture", 1, seed=5, seconds=2.0)
    state = {"model": _model(), "wavs": sorted(str(p) for p in tmp_path.glob("*.wav"))}
    responses = [(i, workloads.infer_op(state, i)[1]) for i in range(3)]
    assert os.path.exists(manifest)

    tally = workloads.Tally()
    worker.check("infer_single", state, responses, tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    # A response that is a valid distribution but not this model's answer is
    # caught only by the float64 reference.
    probs = responses[0][1]
    swapped = [(0, np.eye(6, dtype=np.float32)[[probs.argmin()]])] + responses[1:]
    tally = workloads.Tally()
    worker.check("infer_single", state, swapped, tally)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_tracer_reconciles_macs_and_times_backward_per_op():
    from touch_audition.autograd import Tensor as T

    original = T.__dict__["conv2d"]
    model = _model()
    x = np.random.default_rng(2).standard_normal((2, 1, 120, 64)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run = 0
        opt = Adam(list(model.parameters().values()))
        logits = model.forward(x, training=True, dropout_rng=np.random.default_rng(0))
        # Looked up where the training loop looks it up, so the wrapper runs.
        loss = training.cross_entropy(logits, np.array([0, 1]))
        opt.zero_grad()
        loss.backward()
        opt.step()
    finally:
        tracer.uninstall()
    assert T.__dict__["conv2d"] is original
    assert not tracer.mismatched_runs
    m = tracer.per_layer([0], 100.0, -1.0)
    assert m["autograd.conv2d.macs"] == m["analysis.conv2d.macs"] > 0
    assert m["model.forward_clips_per_call"] == 2
    assert m["autograd.graph_peak_mb"] > 0
    assert m["trace.clips_per_s_delta"] == -1.0
    for tag in tracing.CONV_TAGS:
        assert m[f"autograd.conv2d_fwd.{tag}_ms"] > 0
        assert m[f"autograd.conv2d_bwd.{tag}_gmacs_per_s"] > 0
    for op in ("batch_norm", "relu", "avg_pool2d", "mean_pool", "matmul", "add", "concat",
               "dropout", "cross_entropy"):
        assert m[f"autograd.{op}.bwd_ms"] > 0
    assert m["autograd.backward_self_ms"] > 0
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER_METRICS}


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.OPS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER_METRICS
