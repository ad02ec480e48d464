"""Training, evaluation, and length-sweep harness.

Training follows the fixed recipe: Adam (lr 1e-3), batch 32, softmax
cross-entropy, random crops re-drawn every epoch, validation after each
epoch at the same crop length (center crop). A run keeps the weights of its
best validation epoch (the first one, on ties): that is the model saved,
tested and reported. All randomness flows from one seed through named
SeedSequence children, so identical invocations produce bitwise-identical
checkpoints and logs.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsp
from .autograd import Tensor, cross_entropy, no_grad
from .data import (
    TASK_CLASSES,
    DEFAULT_SPLITS,
    ManifestRow,
    assign_splits,
    batch_iter,
    class_index,
    crop_frames,
    read_manifest,
    resolve_path,
    rows_for_task,
    target_frames,
    write_manifest,
)
from .errors import ManifestError, TrainingDivergedError
from .layers import named_state
from .model import ModelConfig, Mtrcnn, save_checkpoint
from .stats import shapiro_wilk

# Seed-stream tags so subsystems draw independent randomness.
_SEED_INIT, _SEED_SHUFFLE, _SEED_CROP, _SEED_DROPOUT = 1, 2, 3, 4


def default_crop_seconds(task: str) -> float:
    return 6.0 if task == "gesture" else 7.0


@dataclass
class TrainSettings:
    task: str = "gesture"
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    crop_s: float | None = None
    seed: int = 0
    runs: int = 1
    splits: tuple[int, int, int] | None = None
    by_participant: bool = False
    out_dir: str = "runs"

    def crop(self) -> float:
        return self.crop_s if self.crop_s is not None else default_crop_seconds(self.task)


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (K, K) int, rows = true, cols = predicted
    n: int


@dataclass
class RunResult:
    run: int
    history: list[dict]
    best_epoch: int  # the epoch whose weights were kept, saved and tested
    best_val_acc: float
    test: EvalResult | None
    checkpoint_path: str


@dataclass
class TrainingSummary:
    task: str
    runs: list[RunResult] = field(default_factory=list)

    def test_accuracies(self) -> list[float]:
        return [r.test.accuracy for r in self.runs if r.test is not None]

    def mean_std(self) -> tuple[float, float]:
        accs = np.array(self.test_accuracies())
        if accs.size == 0:
            return float("nan"), float("nan")
        return float(accs.mean()), float(accs.std(ddof=1)) if accs.size > 1 else 0.0


def featurize_rows(manifest_path: str, rows: list[ManifestRow]) -> list[np.ndarray]:
    """Log-mel features per row; .melf files are loaded directly, WAVs computed."""
    cache: dict[str, np.ndarray] = {}
    out = []
    for row in rows:
        path = resolve_path(manifest_path, row)
        if path not in cache:
            if path.endswith(".melf"):
                cache[path] = dsp.load_melf(path)
            else:
                cache[path] = dsp.log_mel_spectrogram(dsp.load_wav(path))
        out.append(cache[path])
    return out


def _stack_crops(
    features: list[np.ndarray],
    idx: np.ndarray,
    length_s: float,
    mode: str,
    rng: np.random.Generator | None,
) -> np.ndarray:
    crops = [crop_frames(features[i], length_s, mode, rng) for i in idx]
    t_min = min(c.shape[0] for c in crops)
    crops = [c[:t_min] for c in crops]  # slack clips may run a hair shorter
    return np.stack(crops)[:, None, :, :]


def evaluate(
    model: Mtrcnn,
    features: list[np.ndarray],
    labels: np.ndarray,
    n_classes: int,
    length_s: float | None = None,
    batch_size: int = 32,
) -> EvalResult:
    """Accuracy and confusion at a fixed length (center crop) or full clips."""
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    order = np.arange(len(features))
    with no_grad():
        for i in range(0, len(order), batch_size):
            idx = order[i : i + batch_size]
            if length_s is None:
                # Full clips: group by frame count so each batch stacks.
                by_t: dict[int, list[int]] = {}
                for j in idx:
                    by_t.setdefault(features[j].shape[0], []).append(j)
                groups = [np.array(g) for g in by_t.values()]
            else:
                groups = [idx]
            for g in groups:
                mode = "full" if length_s is None else "center"
                x = _stack_crops(features, g, length_s or 0.0, mode, None)
                x = model.normalize(x)
                pred = model.forward(x).data.argmax(axis=1)
                for j, p in zip(g, pred):
                    confusion[labels[j], p] += 1
    n = int(confusion.sum())
    acc = float(np.trace(confusion)) / n if n else float("nan")
    return EvalResult(acc, confusion, n)


def train_run(
    train_features: list[np.ndarray],
    train_labels: np.ndarray,
    val_features: list[np.ndarray],
    val_labels: np.ndarray,
    config: ModelConfig,
    settings: TrainSettings,
    run_seed: int,
    log=None,
) -> tuple[Mtrcnn, list[dict]]:
    """One training run; returns the model, with the weights of its best
    validation epoch (the first one, on ties), and the per-epoch history."""
    from .optim import Adam

    init_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_INIT]))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_SHUFFLE]))
    crop_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_CROP]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_DROPOUT]))

    model = Mtrcnn(config, init_rng)
    mean, std = dsp.feature_stats(train_features)
    model.feature_mean[...] = mean
    model.feature_std[...] = std
    train_std = [model.normalize(f) for f in train_features]

    opt = Adam(list(model.parameters().values()), lr=settings.lr)
    # Every parameter and buffer array; Adam and batch norm update them in place.
    state = [v.data if isinstance(v, Tensor) else v for _, v in named_state(model)]
    crop_s = settings.crop()
    history: list[dict] = []
    best_acc, best_state = 0.0, []
    for epoch in range(1, settings.epochs + 1):
        t0 = time.perf_counter()
        total_loss, total_n = 0.0, 0
        for idx in batch_iter(len(train_std), settings.batch_size, shuffle_rng):
            x = _stack_crops(train_std, idx, crop_s, "random", crop_rng)
            y = train_labels[idx]
            logits = model.forward(x, training=True, dropout_rng=dropout_rng)
            loss = cross_entropy(logits, y)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"non-finite training loss ({float(loss.data)}) in epoch {epoch}; "
                    f"lower the learning rate (now {settings.lr:g}) or check the features"
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            total_loss += float(loss.data) * len(idx)
            total_n += len(idx)
        val = evaluate(model, val_features, val_labels, config.n_classes,
                       length_s=crop_s, batch_size=settings.batch_size)
        entry = {
            "epoch": epoch,
            "train_loss": total_loss / total_n,
            "val_acc": val.accuracy,
            "seconds": time.perf_counter() - t0,
        }
        history.append(entry)
        if not best_state or val.accuracy > best_acc:
            best_acc = val.accuracy
            best_state = [a.copy() for a in state]
        if log:
            log(f"  epoch {epoch:3d}  loss {entry['train_loss']:.4f}  "
                f"val_acc {entry['val_acc']:.4f}  ({entry['seconds']:.1f}s)")
    for a, saved in zip(state, best_state):
        a[...] = saved
    return model, history


def _write_loss_log(path: str, history: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_acc"])
        for h in history:
            writer.writerow([h["epoch"], f"{h['train_loss']:.9e}", f"{h['val_acc']:.9e}"])


def save_confusion_csv(path: str, confusion: np.ndarray, classes: tuple[str, ...]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred"] + list(classes))
        for name, row in zip(classes, confusion):
            writer.writerow([name] + [int(v) for v in row])


def save_confusion_pgm(path: str, confusion: np.ndarray) -> None:
    """Grayscale PGM (P2) of the row-normalized confusion matrix."""
    rows = confusion.astype(np.float64)
    norm = rows / np.maximum(rows.sum(axis=1, keepdims=True), 1)
    img = (norm * 255).astype(int)
    k = confusion.shape[0]
    with open(path, "w") as fh:
        fh.write(f"P2\n{k} {k}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")


def run_training(manifest_path: str, settings: TrainSettings, log=print) -> TrainingSummary:
    """Full protocol: split, featurize, train `runs` times, evaluate test."""
    rows = read_manifest(manifest_path)
    task_rows = rows_for_task(rows, settings.task)
    if not task_rows:
        raise ManifestError(f"manifest has no rows for task {settings.task!r}")
    if all(not r.split for r in task_rows):
        counts = settings.splits or DEFAULT_SPLITS[settings.task]
        rows = assign_splits(rows, settings.task, counts, settings.seed,
                             by_participant=settings.by_participant)
        task_rows = rows_for_task(rows, settings.task)
    elif settings.splits is not None:
        raise ManifestError("manifest already has split assignments; "
                            "clear the split column to re-split")

    classes = TASK_CLASSES[settings.task]
    subsets: dict[str, list[ManifestRow]] = {"train": [], "val": [], "test": []}
    for r in task_rows:
        if r.split in subsets:
            subsets[r.split].append(r)
    if not subsets["train"] or not subsets["val"]:
        raise ManifestError(
            f"need non-empty train and val splits, got "
            f"{ {k: len(v) for k, v in subsets.items()} }"
        )
    if log:
        log(f"task {settings.task}: train {len(subsets['train'])} / "
            f"val {len(subsets['val'])} / test {len(subsets['test'])} "
            f"(crop {settings.crop():g} s, {settings.epochs} epochs, "
            f"{settings.runs} run(s), seed {settings.seed})")

    feats = {name: featurize_rows(manifest_path, rs) for name, rs in subsets.items()}
    labels = {
        name: np.array([class_index(r, settings.task) for r in rs], dtype=np.int64)
        for name, rs in subsets.items()
    }

    os.makedirs(settings.out_dir, exist_ok=True)
    # Persist the split assignment next to the run artifacts so later eval
    # and sweep invocations can target the exact same test rows.
    write_manifest(
        os.path.join(settings.out_dir, "manifest.csv"),
        [replace(r, path=os.path.abspath(resolve_path(manifest_path, r))) for r in rows],
    )
    config = ModelConfig(task=settings.task, n_classes=len(classes))
    summary = TrainingSummary(task=settings.task)
    for run in range(settings.runs):
        run_seed = int(
            np.random.SeedSequence([settings.seed, run]).generate_state(1, np.uint32)[0]
        )
        run_dir = os.path.join(settings.out_dir, f"run{run}")
        os.makedirs(run_dir, exist_ok=True)
        if log:
            log(f"run {run} (seed {run_seed}):")
        model, history = train_run(
            feats["train"], labels["train"], feats["val"], labels["val"],
            config, settings, run_seed, log=log,
        )
        ckpt = os.path.join(run_dir, "model.ckpt")
        save_checkpoint(ckpt, model)
        _write_loss_log(os.path.join(run_dir, "loss_log.csv"), history)
        test = None
        if subsets["test"]:
            test = evaluate(model, feats["test"], labels["test"], len(classes),
                            length_s=settings.crop(), batch_size=settings.batch_size)
            save_confusion_csv(os.path.join(run_dir, "confusion.csv"), test.confusion, classes)
            save_confusion_pgm(os.path.join(run_dir, "confusion.pgm"), test.confusion)
        # The epoch train_run kept: the first with the best validation accuracy.
        best = max(history, key=lambda h: h["val_acc"])
        summary.runs.append(RunResult(run, history, best["epoch"], best["val_acc"], test, ckpt))
        if log:
            tested = f", test {test.accuracy:.4f}" if test is not None else ""
            log(f"  run {run}: kept epoch {best['epoch']} (best val {best['val_acc']:.4f}){tested}")

    accs = summary.test_accuracies()
    if accs:
        mean, std = summary.mean_std()
        line = f"test accuracy over {len(accs)} run(s): {mean * 100:.2f} +/- {std * 100:.2f} %"
        if 3 <= len(accs) <= 50 and np.ptp(accs) > 0:
            sw = shapiro_wilk(accs)
            line += f"  (Shapiro-Wilk W={sw.w:.4f} p={sw.p:.3f})"
        if log:
            log(line)
        with open(os.path.join(settings.out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "best_epoch", "best_val_acc", "test_acc"])
            for r in summary.runs:
                writer.writerow([r.run, r.best_epoch, f"{r.best_val_acc:.6f}",
                                 f"{r.test.accuracy:.6f}" if r.test else ""])
    return summary


def length_sweep(
    model: Mtrcnn,
    features: list[np.ndarray],
    labels: np.ndarray,
    n_classes: int,
    lengths_s: tuple[float, ...] = tuple(float(s) for s in range(1, 11)),
    batch_size: int = 32,
) -> list[tuple[float, float | None]]:
    """Accuracy per evaluation length; None where below the minimum length."""
    def accuracy(length: float) -> float | None:
        if target_frames(length) < model.min_frames:
            return None
        return evaluate(model, features, labels, n_classes,
                        length_s=length, batch_size=batch_size).accuracy

    return [(length, accuracy(length)) for length in lengths_s]
