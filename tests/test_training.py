"""Training harness: featurization cache, smoke runs, artifacts, determinism,
per-clip evaluation, and the length sweep."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from touch_audition import dsp, training
from touch_audition.data import (
    FRAMES_PER_SECOND,
    FULL_CLIP_SLACK,
    assign_splits,
    read_manifest,
    write_manifest,
)
from touch_audition.errors import InputTooShortError, ManifestError
from touch_audition.model import Mtrcnn, ModelConfig, load_checkpoint
from touch_audition.training import (
    TrainSettings,
    _stack_crops,
    evaluate,
    featurize_rows,
    length_sweep,
    run_training,
    train_run,
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
    long = np.repeat(np.arange(997, dtype=np.float32)[:, None], 64, axis=1)
    short = rng.standard_normal((197, 64)).astype(np.float32)  # 200 - slack
    x = _stack_crops([long, short], np.array([0, 1]), 2.0, rng)
    assert x.shape == (2, 1, 197, 64)
    start = int(x[0, 0, 0, 0])  # a random 200-frame crop, trimmed to the batch's 197
    assert np.array_equal(x[0, 0], long[start : start + 197])
    assert np.array_equal(x[1, 0], short)


def test_train_run_normalizes_stacked_batches(monkeypatch):
    # Normalization is per element and per mel bin in float32, so a stacked
    # batch of crops normalizes to the same bits as the crops of normalized
    # clips. train_run therefore normalizes each batch once it is stacked and
    # never holds a normalized copy of the training set.
    rng = np.random.default_rng(8)
    model = Mtrcnn(ModelConfig(), rng)
    model.feature_mean[...] = 5 * rng.standard_normal(64)
    model.feature_std[...] = rng.uniform(0.1, 3.0, 64)
    feats = [(4 * rng.standard_normal((t, 64)) - 20).astype(np.float32) for t in (997, 600, 197, 200)]
    idx = np.array([2, 0, 3, 1])
    batch = model.normalize(_stack_crops(feats, idx, 2.0, np.random.default_rng(1)))
    clips = _stack_crops([model.normalize(f) for f in feats], idx, 2.0, np.random.default_rng(1))
    assert batch.dtype == clips.dtype == np.float32
    assert batch.shape == (4, 1, 197, 64) and batch.tobytes() == clips.tobytes()

    shapes = []
    normalize = Mtrcnn.normalize
    monkeypatch.setattr(Mtrcnn, "normalize", lambda self, f: shapes.append(f.shape) or normalize(self, f))
    settings_ = TrainSettings(epochs=1, batch_size=2, crop_s=1.2)
    train_run(feats, np.array([0, 1, 2, 3]), feats[:1], np.array([0]), ModelConfig(), settings_, 5)
    assert shapes == [(2, 1, 120, 64), (2, 1, 120, 64), (1, 1, 120, 64)]  # two batches, validation


def test_train_run_returns_a_model_without_gradients():
    # The returned weights are the best epoch's copy; the last step's
    # gradients belong to none of them and would only hold memory.
    rng = np.random.default_rng(4)
    feats = [rng.standard_normal((150, 64)).astype(np.float32) for _ in range(4)]
    model, _ = train_run(feats, np.array([0, 1, 0, 1]), feats[:2], np.array([0, 1]), ModelConfig(),
                         TrainSettings(epochs=2, batch_size=2, crop_s=1.2), 5)
    params = model.parameters()
    assert len(params) == 46
    assert [name for name, p in params.items() if p.grad is not None] == []


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


def test_run_training_keeps_the_first_of_tied_validation_epochs(tiny_corpus, tmp_path, monkeypatch):
    # Epochs 1 and 2 tie; the run must keep, save and report epoch 1, the
    # same model as a run stopped after epoch 1.
    results = {}
    for epochs, accuracies in ((3, [0.9, 0.9, 0.4]), (1, [0.9])):
        out = str(tmp_path / f"e{epochs}")
        _scripted_val_accuracy(monkeypatch, accuracies)
        summary = run_training(tiny_corpus, smoke_settings(out, epochs=epochs), log=None)
        with open(os.path.join(out, "run0", "model.ckpt"), "rb") as fh:
            results[epochs] = (summary.runs[0], fh.read())
    (three, ckpt3), (one, ckpt1) = results[3], results[1]
    assert ckpt3 == ckpt1
    assert (three.best_epoch, three.best_val_acc) == (1, 0.9)
    with open(str(tmp_path / "e3" / "summary.csv")) as fh:
        assert fh.read().splitlines()[1].split(",")[:3] == ["0", "1", "0.900000"]


def test_run_training_persists_split_manifest(tiny_corpus, tmp_path):
    out = str(tmp_path / "runs")
    run_training(tiny_corpus, smoke_settings(out), log=None)

    rows = read_manifest(os.path.join(out, "manifest.csv"))
    by_split = {s: sum(1 for r in rows if r.split == s) for s in ("train", "val", "test")}
    assert by_split == {"train": 12, "val": 3, "test": 3}
    # Paths are relative to the run directory, so it can move with the corpus.
    assert all(not os.path.isabs(r.path) and os.path.exists(os.path.join(out, r.path)) for r in rows)
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
    # Each clip has its own spectral profile, so the untrained model does not
    # give every clip one class, and pairing a clip with another clip's
    # prediction changes the confusion matrix.
    rng = np.random.default_rng(57)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [(rng.standard_normal((t, 64)) + 4 * rng.standard_normal(64)).astype(np.float32)
             for t in (997, 997, 597, 297)]
    labels = np.array([0, 1, 2, 3])
    res = evaluate(model, feats, labels, length_s=None)
    assert res.n == 4
    assert res.confusion.shape == (6, 6)
    assert res.confusion.sum() == 4
    assert res.accuracy == np.trace(res.confusion) / 4
    preds = [model.predict(model.normalize(f[None, None]))[0][0] for f in feats]
    assert len(set(preds)) > 2
    expected = np.zeros((6, 6), dtype=np.int64)
    for label, pred in zip(labels, preds):
        expected[label, pred] += 1
    assert np.array_equal(res.confusion, expected)


def test_evaluate_crop_does_not_depend_on_batch_companions(monkeypatch):
    # At 10 s a 1000-frame clip is cropped to all 1000 frames and a 998-frame
    # clip is used whole (slack). Batched together, neither may be trimmed
    # to fit the other: each frame count gets its own forward.
    rng = np.random.default_rng(11)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((t, 64)).astype(np.float32) for t in (1000, 998)]
    seen = []
    forward = Mtrcnn.forward

    def spy(self, x, *args, **kwargs):
        seen.append(np.array(x))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(Mtrcnn, "forward", spy)
    res = evaluate(model, feats, np.array([0, 1]), length_s=10.0)
    assert res.n == 2
    assert sorted(x.shape for x in seen) == [(1, 1, 998, 64), (1, 1, 1000, 64)]
    full = next(x for x in seen if x.shape[2] == 1000)
    assert np.array_equal(full[0, 0], model.normalize(feats[0]))


def test_evaluate_runs_each_clip_through_the_single_clip_forward(monkeypatch):
    # Three clips with one frame count could share a forward, but a batched
    # classifier GEMM rounds differently with its row count: every clip gets
    # its own forward, with the logits `predict` (what `infer` calls) gives it.
    rng = np.random.default_rng(23)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((200, 64)).astype(np.float32) for _ in range(3)]  # 2 s whole
    seen = []
    forward = Mtrcnn.forward

    def spy(self, x, *args, **kwargs):
        out = forward(self, x, *args, **kwargs)
        seen.append((x.shape, out.data.copy()))
        return out

    monkeypatch.setattr(Mtrcnn, "forward", spy)
    res = evaluate(model, feats, np.array([0, 1, 2]), length_s=2.0)
    assert res.n == 3
    assert [shape for shape, _ in seen] == [(1, 1, 200, 64)] * 3
    evaluated = [logits.tobytes() for _, logits in seen]
    seen.clear()
    for f in feats:
        model.predict(model.normalize(f[None, None]))
    assert [logits.tobytes() for _, logits in seen] == evaluated


def test_evaluate_center_crop_is_deterministic():
    rng = np.random.default_rng(6)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((400, 64)).astype(np.float32) for _ in range(4)]
    labels = np.array([0, 1, 2, 3])
    a = evaluate(model, feats, labels, length_s=2.0)
    b = evaluate(model, feats, labels, length_s=2.0)
    assert np.array_equal(a.confusion, b.confusion)


# -- length sweep -----------------------------------------------------------


def test_length_sweep_marks_short_lengths():
    rng = np.random.default_rng(7)
    model = Mtrcnn(ModelConfig(), rng)
    feats = [rng.standard_normal((400, 64)).astype(np.float32) for _ in range(6)]
    labels = np.arange(6)

    results = length_sweep(model, feats, labels, lengths_s=(1.0, 1.1, 2.0))
    assert results[0] == (1.0, None)  # 100 frames < 110-frame minimum
    assert results[1][1] is not None
    assert results[2][1] is not None


def test_length_sweep_marks_a_slack_clip_below_the_minimum():
    # At 1.1 s (110 frames, the model's minimum) a 107-frame clip is used
    # whole, so the crop gives the model 107 frames: that length reads n/a.
    model = Mtrcnn(ModelConfig(), np.random.default_rng(7))
    clip, label = [np.zeros((107, 64), dtype=np.float32)], np.array([0])
    assert length_sweep(model, clip, label, lengths_s=(1.1,)) == [(1.1, None)]
    with pytest.raises(InputTooShortError, match="needs at least 110"):
        evaluate(model, clip, label, length_s=1.1)
    # A clip too short for the length reads n/a too.
    assert length_sweep(model, [np.zeros((106, 64), dtype=np.float32)], label,
                        lengths_s=(1.1,)) == [(1.1, None)]


_SWEEP_MODEL = Mtrcnn(ModelConfig(), np.random.default_rng(9))


@settings(max_examples=30, deadline=None)
@example(n=110, offsets=[-3])
@example(n=112, offsets=[5, -3])
@given(
    n=st.integers(100, 130),
    offsets=st.lists(st.integers(-FULL_CLIP_SLACK, 20), min_size=1, max_size=3),
)
def test_length_sweep_never_raises_where_the_crop_is_defined(n, offsets):
    # Every clip is at most FULL_CLIP_SLACK frames short of the length, so
    # each crop is defined: the sweep gives an accuracy, or None exactly when
    # some crop gives the model fewer frames than it needs.
    length = n / FRAMES_PER_SECOND
    feats = [np.zeros((n + k, 64), dtype=np.float32) for k in offsets]
    [(got, acc)] = length_sweep(_SWEEP_MODEL, feats, np.zeros(len(feats), dtype=np.int64),
                                lengths_s=(length,))
    assert got == length
    shortest = min(n, n + min(offsets))
    assert (acc is None) == (shortest < _SWEEP_MODEL.min_frames)
    assert acc is None or 0.0 <= acc <= 1.0
