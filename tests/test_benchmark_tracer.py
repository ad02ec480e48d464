"""The benchmark's tracer (perfbench/tracing.py) patches this package's
functions and methods by name. A rename or deletion here would break
`perfbench/run.py --trace 1` without failing anything under tests/, so this
installs the unchanged tracer against the package and takes it off again."""

from __future__ import annotations

import importlib.util
import os

import numpy as np

from touch_audition import dsp, model, optim, training
from touch_audition.autograd import Tensor

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    owners = (dsp, model, training, model.Mtrcnn, optim.Adam, Tensor)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert vars(Tensor)["conv2d"] is not before[-1]["conv2d"]
        assert training.evaluate is not before[2]["evaluate"]
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in names.items()), owner


def test_benchmark_tracer_times_one_crop_per_evaluated_clip():
    # The benchmark's data.crop_frames_ms comes from the patched
    # training.crop_frames; a crop taken through any other name reads 0.
    rng = np.random.default_rng(2)
    net = model.Mtrcnn(model.ModelConfig(), rng)
    feats = [rng.standard_normal((t, dsp.N_MELS)).astype(np.float32) for t in (250, 230, 198)]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        training.evaluate(net, feats, np.array([0, 1, 0]), length_s=2.0)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans].count("data.crop_frames") == len(feats)


def test_benchmark_tracer_sees_every_conv_of_a_prediction_and_a_training_step():
    # perfbench marks a run failed when the conv MACs it sees through
    # Tensor.conv2d differ from analysis.count_flops, so a conv kernel that
    # bypassed Tensor.conv2d, or handed it copies of the model's weights,
    # fails here first. It counts a conv's backward MACs when the output's
    # `_backward` runs, once per gradient it gives: block 1's input needs
    # none, so its backward MACs equal its training forward's exactly, and
    # a fused op that skipped or repeated conv's backward fails here too.
    rng = np.random.default_rng(3)
    net = model.Mtrcnn(model.ModelConfig(), rng)
    x = rng.standard_normal((2, 1, 150, dsp.N_MELS)).astype(np.float32)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.run = "predict"
        net.predict(x[:1])
        predict_macs = dict(tracer.counts)
        tracer.run = "train"
        logits = net.forward(x, training=True, dropout_rng=np.random.default_rng(4))
        training.cross_entropy(logits, np.array([0, 1])).backward()
    finally:
        tracer.uninstall()
    assert tracer.mismatched_runs == set()
    for k in (3, 5, 7):
        train_fwd = tracer.counts[f"macs.fwd.k{k}b1"] - predict_macs[f"macs.fwd.k{k}b1"]
        assert predict_macs[f"macs.fwd.k{k}b1"] > 0 and train_fwd > 0
        assert tracer.counts[f"macs.bwd.k{k}b1"] == train_fwd
