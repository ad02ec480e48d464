"""Release acceptance gate: one test per numbered shipping criterion.

``pytest tests/test_acceptance.py -v`` gives a one-line verdict per
criterion; each test additionally prints a ``[PASS]``/``[FAIL]`` line with
the measured values (visible with ``-s`` or in the captured output of a
failure). Tolerances are pinned in the asserts, not configurable.

Criterion 9 (reproducing accuracy figures on the recorded-gesture dataset)
is conditional on data that is not distributed with this package, so it
reports as skipped; criteria 1-8 constitute acceptance in its absence.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest
from conftest import (
    check_grads,
    dependency_footprint,
    kink_free_bn_input,
    live_mac_count,
    naive_conv2d,
    rel_err,
)

from touch_audition.analysis import (
    branch_time_specs,
    build_report,
    count_flops,
    count_params,
    frames_for_seconds,
    min_input_frames,
    receptive_field,
)
from touch_audition.autograd import Tensor, concat, cross_entropy, no_grad
from touch_audition.cli import main
from touch_audition.errors import InputTooShortError
from touch_audition.model import ModelConfig, Mtrcnn
from touch_audition.stats import paired_t_test, shapiro_wilk
from touch_audition.training import TrainSettings, run_training

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "stats_fixtures.json")


def _verdict(n: int, ok: bool, detail: str) -> None:
    """Print exactly one verdict line for criterion n, then enforce it."""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_receptive_field_widest_branch():
    """Per-layer receptive field of the k=7 branch, pooling ignored."""
    specs = branch_time_specs(ModelConfig(), 7, pooled=False)
    rf = receptive_field(specs, convention="reference")
    _verdict(1, rf == [7, 20, 38], f"k=7 unpooled receptive field {rf}, want [7, 20, 38]")


def test_criterion_02_minimum_input_length():
    """110 frames (1.10 s of 10 ms hops) is the exact forward-pass minimum."""
    cfg = ModelConfig()
    mf = min_input_frames(cfg)
    model = Mtrcnn(cfg, np.random.default_rng(0))

    with no_grad():
        out = model.forward(np.zeros((1, 1, mf, cfg.n_mels), dtype=np.float32))
    ok_fwd = out.data.shape == (1, cfg.n_classes)

    try:
        with no_grad():
            model.forward(np.zeros((1, 1, mf - 1, cfg.n_mels), dtype=np.float32))
        ok_short = False
    except InputTooShortError:
        ok_short = True

    # Independent oracle: feed the widest pooled chain an impulse-sized input
    # and measure how many input frames the first output element actually
    # depends on. At the true minimum every frame participates.
    widest = cfg.kernel_sizes[-1]
    chain = []
    for rt, _ in cfg.dilations:
        chain += [("conv", widest, rt), ("pool",)]
    footprint = dependency_footprint(chain, t_in=mf, f_in=cfg.n_mels)

    ok = mf == 110 and ok_fwd and ok_short and footprint == mf
    _verdict(
        2,
        ok,
        f"min_input_frames={mf} (want 110 = 1.10 s), forward at {mf} ok={ok_fwd}, "
        f"at {mf - 1} rejected={ok_short}, impulse footprint {footprint}",
    )


def test_criterion_03_parameter_count_and_model_size():
    """Analytic parameter count matches the live model and the size budget."""
    cfg = ModelConfig()
    breakdown = count_params(cfg)
    analytic = breakdown["total"]
    model = Mtrcnn(cfg, np.random.default_rng(0))
    live = sum(p.data.size for p in model.parameters().values())
    model_bytes = 4 * analytic

    ok = (
        230_000 <= analytic <= 250_000
        and analytic == live
        and abs(analytic - 240_000) <= 10_000
        and model_bytes == 4 * live
    )
    _verdict(
        3,
        ok,
        f"analytic total {analytic:,} (live enumeration {live:,}), "
        f"model size {model_bytes:,} B = 4 x params, within 0.24M +/- 0.01M",
    )


def test_criterion_04_flop_counts_and_reconciliation():
    """count_flops is exact against a per-output-element oracle; the report
    grid flags at least one (convention, length) cell near 0.708 GFLOPs."""
    cfg = ModelConfig()
    lengths = [min_input_frames(cfg), frames_for_seconds(6.0), frames_for_seconds(10.0)]
    exact = []
    for t in lengths:
        oracle = live_mac_count(cfg, t)
        exact.append(
            count_flops(cfg, t, convention="mac")["total"] == oracle
            and count_flops(cfg, t, convention="two_mac")["total"] == 2 * oracle
        )

    report = build_report(cfg)
    hits = [f"{c.length_s:g}s:{c.reconciles}" for c in report.flops_grid if c.reconciles]

    ok = all(exact) and len(hits) >= 1
    _verdict(
        4,
        ok,
        f"exact at frames {lengths} -> {exact}; "
        f"grid cells within 10% of 0.708G: {hits or 'none'}",
    )


def test_criterion_05_gradients_and_conv_oracle():
    """Finite-difference checks over every differentiable op (64-bit,
    rel err < 1e-4) plus an exhaustive dilated-conv sweep against a naive
    seven-loop oracle (rel err < 1e-6), all inside the five-minute budget."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    def conv_case(dilation):
        rt, rf = dilation
        t, f = (3 - 1) * rt + 3, (3 - 1) * rf + 2
        return {
            "x": rng.standard_normal((2, 2, t, f)),
            "w": rng.standard_normal((3, 2, 3, 3)),
            "b": rng.standard_normal(3),
            "c": rng.standard_normal((2, 3, t - (3 - 1) * rt, f - (3 - 1) * rf)),
        }

    relu_in = rng.standard_normal((4, 5))
    relu_in += np.sign(relu_in) * 0.25  # keep samples away from the kink
    # Its own generator, so the other cases draw the same data as before.
    bn_rng = np.random.default_rng(43)

    cases = [
        ("add", lambda ts: (ts["a"] + ts["b"]).sum(),
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}),
        ("mul", lambda ts: (ts["a"] * ts["b"]).sum(),
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}),
        ("matmul", lambda ts: ts["a"].matmul(ts["b"]).sum(),
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 5))}),
        ("relu", lambda ts: (ts["x"].relu() * ts["c"]).sum(),
         {"x": relu_in, "c": rng.standard_normal((4, 5))}),
        ("reshape", lambda ts: (ts["x"].reshape(6, 2) * ts["c"]).sum(),
         {"x": rng.standard_normal((3, 4)), "c": rng.standard_normal((6, 2))}),
        ("sum", lambda ts: ts["x"].sum(),
         {"x": rng.standard_normal((3, 4))}),
        ("mean_pool", lambda ts: (ts["x"].mean_pool() * ts["c"]).sum(),
         {"x": rng.standard_normal((2, 3, 4, 5)), "c": rng.standard_normal((2, 3))}),
        ("avg_pool2d", lambda ts: (ts["x"].avg_pool2d() * ts["c"]).sum(),
         {"x": rng.standard_normal((2, 2, 5, 7)), "c": rng.standard_normal((2, 2, 2, 3))}),
        ("conv2d d=(1,1)",
         lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], (1, 1)) * ts["c"]).sum(),
         conv_case((1, 1))),
        ("conv2d d=(2,1)",
         lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], (2, 1)) * ts["c"]).sum(),
         conv_case((2, 1))),
        ("conv2d d=(3,2)",
         lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], (3, 2)) * ts["c"]).sum(),
         conv_case((3, 2))),
        ("batch_norm train",
         lambda ts: (ts["x"].batch_norm(ts["g"], ts["be"], np.zeros(2), np.ones(2),
                                        training=True) * ts["c"]).sum(),
         {"x": rng.standard_normal((3, 2, 4, 5)), "g": rng.uniform(0.5, 1.5, 2),
          "be": rng.standard_normal(2), "c": rng.standard_normal((3, 2, 4, 5))}),
        ("batch_norm eval",
         lambda ts: (ts["x"].batch_norm(ts["g"], ts["be"],
                                        np.array([0.3, -0.2]), np.array([1.4, 0.6]),
                                        training=False) * ts["c"]).sum(),
         {"x": rng.standard_normal((2, 2, 3, 4)), "g": rng.uniform(0.5, 1.5, 2),
          "be": rng.standard_normal(2), "c": rng.standard_normal((2, 2, 3, 4))}),
        ("dropout",
         lambda ts: (ts["x"].dropout(0.4, np.random.default_rng(99), training=True)
                     * ts["c"]).sum(),
         {"x": rng.standard_normal((6, 8)), "c": rng.standard_normal((6, 8))}),
        ("concat",
         lambda ts: (concat([ts["a"], ts["b"], ts["d"]], axis=1) * ts["c"]).sum(),
         {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 4)),
          "d": rng.standard_normal((2, 2)), "c": rng.standard_normal((2, 9))}),
        ("cross_entropy",
         lambda ts: cross_entropy(ts["x"], np.array([1, 4, 0, 2])),
         {"x": rng.standard_normal((4, 6))}),
        ("bn_relu_pool train",
         lambda ts: (ts["x"].bn_relu_pool(ts["g"], ts["be"], np.zeros(2), np.ones(2),
                                          training=True) * ts["c"]).sum(),
         {"x": kink_free_bn_input(bn_rng, (4, 2, 5, 7), np.array([0.4, -1.1]),
                                  np.array([1.3, 0.7])),
          "g": bn_rng.uniform(0.5, 1.5, 2), "be": bn_rng.uniform(-0.1, 0.1, 2),
          "c": bn_rng.standard_normal((4, 2, 2, 3))}),
    ]

    failures = []
    for name, build, arrays in cases:
        try:
            check_grads(build, arrays, tol=1e-4)
        except AssertionError:
            failures.append(name)

    # Exhaustive small-shape dilated-conv sweep against the naive oracle.
    worst = 0.0
    for kt in (1, 2, 3):
        for kf in (1, 2, 3):
            for rt in (1, 2, 3):
                for rf in (1, 2):
                    for cin, cout in ((1, 1), (2, 3)):
                        t = (kt - 1) * rt + 3
                        f = (kf - 1) * rf + 2
                        x = rng.standard_normal((2, cin, t, f))
                        w = rng.standard_normal((cout, cin, kt, kf))
                        b = rng.standard_normal(cout)
                        got = Tensor(x).conv2d(Tensor(w), Tensor(b), (rt, rf)).data
                        worst = max(worst, rel_err(got, naive_conv2d(x, w, b, (rt, rf))))

    elapsed = time.perf_counter() - start
    ok = not failures and worst < 1e-6 and elapsed < 300.0
    _verdict(
        5,
        ok,
        f"{len(cases)} op gradchecks, failures={failures or 'none'}; "
        f"conv sweep worst rel err {worst:.2e} (<1e-6); {elapsed:.1f}s (<300s)",
    )


def test_criterion_06_synthetic_training_reaches_90(gesture_corpus, tmp_path):
    """Batch 32 / Adam 1e-3 training on the six-class synthetic gesture
    corpus (20 clips per class) reaches 90% validation accuracy within
    30 epochs, within the 15-minute budget."""
    settings = TrainSettings(
        task="gesture",
        epochs=30,
        batch_size=32,
        lr=1e-3,
        crop_s=2.0,
        seed=0,
        runs=1,
        splits=(84, 24, 12),
        out_dir=str(tmp_path / "runs"),
    )
    start = time.perf_counter()
    summary = run_training(gesture_corpus, settings)
    elapsed = time.perf_counter() - start

    history = summary.runs[0].history
    best = max(e["val_acc"] for e in history)
    hit = next((e["epoch"] for e in history if e["val_acc"] >= 0.90), None)

    ok = best >= 0.90 and hit is not None and hit <= 30 and elapsed < 900.0
    _verdict(
        6,
        ok,
        f"val accuracy {best:.4f} (>=0.90 first reached at epoch {hit}), "
        f"{len(history)} epochs in {elapsed:.0f}s (<900s)",
    )


def test_criterion_07_statistics_against_references():
    """Paired t-test on a hand-checkable sample and Shapiro-Wilk W against
    pre-computed reference fixtures."""
    res = paired_t_test([3.0, -1.0, 2.0, 0.0, 1.0, 1.0], [0.0] * 6)
    ok_t = abs(res.t - math.sqrt(3.0)) < 1e-9
    ok_df = res.df == 5
    ok_p = abs(res.p - 0.1438) <= 1e-3

    with open(FIXTURES) as fh:
        fixtures = json.load(fh)["shapiro"]
    worst_dw = max(abs(shapiro_wilk(case["x"]).w - case["w"]) for case in fixtures)
    ok_w = worst_dw < 1e-2

    ok = ok_t and ok_df and ok_p and ok_w
    _verdict(
        7,
        ok,
        f"t={res.t:.6f} (want sqrt(3)), df={res.df}, p={res.p:.4f} "
        f"(want 0.1438 +/- 1e-3); Shapiro-Wilk worst |dW|={worst_dw:.2e} "
        f"over {len(fixtures)} fixtures (<1e-2)",
    )


def test_criterion_08_training_is_bitwise_deterministic(tiny_corpus, tmp_path):
    """Two identical command-line train runs produce byte-identical
    checkpoints and loss logs."""
    artifacts = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        rc = main([
            "train", "--manifest", tiny_corpus, "--task", "gesture",
            "--out", out, "--epochs", "2", "--batch-size", "8",
            "--crop-s", "1.2", "--splits", "12,3,3", "--seed", "3",
        ])
        assert rc == 0
        run_dir = os.path.join(out, "run0")
        with open(os.path.join(run_dir, "model.ckpt"), "rb") as fh:
            ckpt = fh.read()
        with open(os.path.join(run_dir, "loss_log.csv"), "rb") as fh:
            log = fh.read()
        artifacts.append((ckpt, log))

    same_ckpt = artifacts[0][0] == artifacts[1][0]
    same_log = artifacts[0][1] == artifacts[1][1]
    ok = same_ckpt and same_log
    _verdict(
        8,
        ok,
        f"checkpoint bytes identical={same_ckpt} "
        f"({len(artifacts[0][0]):,} B), loss log identical={same_log}",
    )


def test_criterion_09_recorded_dataset_reproduction():
    """Reproducing the published accuracy figures needs the original
    recorded-gesture dataset, which is not distributed with this package."""
    pytest.skip(
        "conditional criterion: the recorded-gesture dataset is not "
        "distributed with this package, so criteria 1-8 constitute "
        "acceptance; rerun against a manifest of the recordings when present"
    )


def test_criterion_10_full_clip_inference_latency():
    """A full 10 s clip runs through single-example inference in under
    100 ms of wall time."""
    cfg = ModelConfig()
    model = Mtrcnn(cfg, np.random.default_rng(0))
    t = frames_for_seconds(10.0)
    x = np.random.default_rng(1).standard_normal((1, 1, t, cfg.n_mels)).astype(np.float32)

    for _ in range(2):  # warm-up
        model.predict(x)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        model.predict(x)
        best = min(best, time.perf_counter() - t0)

    ok = best < 0.100
    _verdict(
        10,
        ok,
        f"best of 5 full-clip ({t} frames) forward passes: {best * 1e3:.1f} ms (<100 ms)",
    )
