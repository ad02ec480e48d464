"""Training harness: featurization cache, smoke runs, artifacts, determinism,
evaluation grouping, and the length sweep."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from touch_audition import dsp, training
from touch_audition.data import read_manifest, assign_splits, write_manifest
from touch_audition.errors import ManifestError
from touch_audition.model import Mtrcnn, ModelConfig, load_checkpoint
from touch_audition.training import (
    TrainSettings,
    _stack_crops,
    evaluate,
    featurize_rows,
    length_sweep,
    run_training,
)


def smoke_settings(out_dir: str, **overrides) -> TrainSettings:
    base = dict(task="gesture", epochs=2, batch_size=8, lr=1e-3, crop_s=1.2,
                seed=3, runs=1, splits=(12, 3, 3), out_dir=out_dir)
    base.update(overrides)
    return TrainSettings(**base)


# -- featurize_rows ---------------------------------------------------------


def test_featurize_melf_matches_wav(tiny_corpus, tmp_path):
    rows = read_manifest(tiny_corpus)[:2]
    from_wav = featurize_rows(tiny_corpus, rows)

    melf_rows = []
    for row in rows:
        stem = os.path.splitext(row.path)[0] + ".melf"
        feats = dsp.log_mel_spectrogram(
            dsp.load_wav(os.path.join(os.path.dirname(tiny_corpus), row.path)))
        dsp.save_melf(str(tmp_path / stem), feats)
        melf_rows.append(replace(row, path=stem))
    melf_manifest = str(tmp_path / "manifest.csv")
    write_manifest(melf_manifest, melf_rows)

    from_melf = featurize_rows(melf_manifest, read_manifest(melf_manifest))
    for a, b in zip(from_wav, from_melf):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)


def test_featurize_caches_repeated_paths(tiny_corpus):
    rows = read_manifest(tiny_corpus)[:1] * 3
    feats = featurize_rows(tiny_corpus, rows)
    assert len(feats) == 3
    assert feats[0] is feats[1] is feats[2]


# -- crop stacking ----------------------------------------------------------


def test_stack_crops_trims_slack_clips():
    rng = np.random.default_rng(0)
    long = rng.standard_normal((997, 64)).astype(np.float32)
    short = rng.standard_normal((197, 64)).astype(np.float32)  # 200 - slack
    x = _stack_crops([long, short], np.array([0, 1]), 2.0, "center", None)
    assert x.shape == (2, 1, 197, 64)
    assert np.array_equal(x[1, 0], short)


# -- smoke run and artifacts ------------------------------------------------


def test_run_training_artifacts(tiny_corpus, tmp_path):
    out = str(tmp_path / "runs")
    summary = run_training(tiny_corpus, smoke_settings(out), log=None)

    assert summary.task == "gesture"
    assert len(summary.runs) == 1
    run = summary.runs[0]
    assert [h["epoch"] for h in run.history] == [1, 2]
    for h in run.history:
        assert set(h) == {"epoch", "train_loss", "val_acc", "seconds"}
        assert np.isfinite(h["train_loss"])
        assert 0.0 <= h["val_acc"] <= 1.0
    assert run.best_val_acc == max(h["val_acc"] for h in run.history)
    assert run.history[run.best_epoch - 1]["val_acc"] == run.best_val_acc

    run_dir = os.path.join(out, "run0")
    model = load_checkpoint(os.path.join(run_dir, "model.ckpt"))
    assert model.config.task == "gesture"
    assert model.config.n_classes == 6

    with open(os.path.join(run_dir, "loss_log.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "epoch,train_loss,val_acc"
    assert len(lines) == 3
    epoch, loss, acc = lines[1].split(",")
    assert epoch == "1"
    assert "e" in loss and len(loss.split("e")[0].split(".")[1]) == 9

    with open(os.path.join(run_dir, "confusion.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "true\\pred" and len(header) == 7

    with open(os.path.join(run_dir, "confusion.pgm")) as fh:
        assert fh.readline().strip() == "P2"
        assert fh.readline().strip() == "6 6"

    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "run,best_epoch,best_val_acc,test_acc"
    assert len(lines) == 2
    assert lines[1].split(",")[:2] == ["0", str(run.best_epoch)]


def _scripted_val_accuracy(monkeypatch, accuracies):
    """Make the first len(accuracies) `evaluate` calls (one validation per
    epoch) report these accuracies; later calls (the test split) are real."""
    real = training.evaluate
    script = iter(accuracies)

    def scripted(*args, **kwargs):
        res = real(*args, **kwargs)
        acc = next(script, None)
        return res if acc is None else replace(res, accuracy=acc)

    monkeypatch.setattr(training, "evaluate", scripted)


def test_run_training_keeps_the_best_validation_epoch(tiny_corpus, tmp_path, monkeypatch):
    # Epoch 2 validates best; a 3-epoch run must save, test and report the
    # same model as a run stopped after epoch 2.
    results = {}
    for epochs, accuracies in ((3, [0.5, 0.9, 0.4]), (2, [0.5, 0.9])):
        out = str(tmp_path / f"e{epochs}")
        _scripted_val_accuracy(monkeypatch, accuracies)
        summary = run_training(tiny_corpus, smoke_settings(out, epochs=epochs), log=None)
        with open(os.path.join(out, "run0", "model.ckpt"), "rb") as fh:
            results[epochs] = (summary.runs[0], fh.read())
    (three, ckpt3), (two, ckpt2) = results[3], results[2]
    assert ckpt3 == ckpt2
    assert np.array_equal(three.test.confusion, two.test.confusion)
    assert (three.best_epoch, three.best_val_acc) == (two.best_epoch, two.best_val_acc) == (2, 0.9)
    with open(str(tmp_path / "e3" / "summary.csv")) as fh:
        assert fh.read().splitlines()[1].split(",")[:3] == ["0", "2", "0.900000"]


def test_run_training_persists_split_manifest(tiny_corpus, tmp_path):
    out = str(tmp_path / "runs")
    run_training(tiny_corpus, smoke_settings(out), log=None)

    rows = read_manifest(os.path.join(out, "manifest.csv"))
    by_split = {s: sum(1 for r in rows if r.split == s) for s in ("train", "val", "test")}
    assert by_split == {"train": 12, "val": 3, "test": 3}
    # Paths are absolutized so the persisted manifest works from anywhere.
    assert all(os.path.isabs(r.path) and os.path.exists(r.path) for r in rows)
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run_training(tiny_corpus, smoke_settings(out), log=None)
        with open(os.path.join(out, "run0", "model.ckpt"), "rb") as fh:
            ckpt = fh.read()
        with open(os.path.join(out, "run0", "loss_log.csv"), "rb") as fh:
            log = fh.read()
        blobs.append((ckpt, log))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_run_training_seed_changes_results(tiny_corpus, tmp_path):
    logs = []
    for seed in (3, 4):
        out = str(tmp_path / f"s{seed}")
        run_training(tiny_corpus, smoke_settings(out, seed=seed), log=None)
        with open(os.path.join(out, "run0", "loss_log.csv")) as fh:
            logs.append(fh.read())
    assert logs[0] != logs[1]


def test_run_training_uses_preassigned_splits(tiny_corpus, tmp_path):
    corpus_dir = os.path.dirname(tiny_corpus)
    rows = assign_splits(read_manifest(tiny_corpus), "gesture", (12, 3, 3), seed=9)
    rows = [replace(r, path=os.path.join(corpus_dir, r.path)) for r in rows]
    manifest = str(tmp_path / "preassigned.csv")
    write_manifest(manifest, rows)

    out = str(tmp_path / "runs")
    summary = run_training(
        manifest, smoke_settings(out, epochs=1, splits=None), log=None)
    assert summary.runs[0].test is not None
    assert summary.runs[0].test.n == 3

    with pytest.raises(ManifestError, match="already has split assignments"):
        run_training(manifest, smoke_settings(out, epochs=1), log=None)


def test_run_training_rejects_wrong_task_manifest(tiny_corpus, tmp_path):
    with pytest.raises(ManifestError, match="no rows for task"):
        run_training(tiny_corpus,
                     smoke_settings(str(tmp_path), task="arousal", splits=None),
                     log=None)


def test_run_training_requires_train_and_val(tiny_corpus, tmp_path):
    with pytest.raises(ManifestError, match="non-empty train and val"):
        run_training(tiny_corpus,
                     smoke_settings(str(tmp_path), splits=(18, 0, 0)), log=None)


# -- evaluation -------------------------------------------------------------


def test_evaluate_groups_full_clips_by_length():
    rng = np.random.default_rng(5)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((t, 64)).astype(np.float32)
             for t in (997, 997, 597, 297)]
    labels = np.array([0, 1, 2, 3])
    res = evaluate(model, feats, labels, 6, length_s=None, batch_size=4)
    assert res.n == 4
    assert res.confusion.shape == (6, 6)
    assert res.confusion.sum() == 4
    assert res.accuracy == np.trace(res.confusion) / 4


def test_evaluate_center_crop_is_deterministic():
    rng = np.random.default_rng(6)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((400, 64)).astype(np.float32) for _ in range(4)]
    labels = np.array([0, 1, 2, 3])
    a = evaluate(model, feats, labels, 6, length_s=2.0)
    b = evaluate(model, feats, labels, 6, length_s=2.0)
    assert np.array_equal(a.confusion, b.confusion)


# -- length sweep -----------------------------------------------------------


def test_length_sweep_marks_short_lengths():
    rng = np.random.default_rng(7)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((400, 64)).astype(np.float32) for _ in range(6)]
    labels = np.arange(6)

    results = length_sweep(model, feats, labels, 6, lengths_s=(1.0, 1.1, 2.0))
    assert results[0] == (1.0, None)  # 100 frames < 110-frame minimum
    assert results[1][1] is not None
    assert results[2][1] is not None
