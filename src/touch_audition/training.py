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

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsp
from .autograd import cross_entropy
from .data import (
    TASK_CLASSES,
    DEFAULT_CROP_S,
    DEFAULT_SPLITS,
    LENGTH_GRID_S,
    ManifestRow,
    assign_splits,
    batch_iter,
    class_index,
    crop_frames,
    read_manifest,
    resolve_path,
    rows_for_task,
    task_family,
    write_csv,
    write_manifest,
)
from .errors import AudioFormatError, InputTooShortError, ManifestError, TrainingDivergedError
from .model import ModelConfig, Mtrcnn, save_checkpoint
from .optim import Adam
from .stats import shapiro_wilk

# Seed-stream tags so subsystems draw independent randomness.
_SEED_INIT, _SEED_SHUFFLE, _SEED_CROP, _SEED_DROPOUT = 1, 2, 3, 4


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
        """The training crop: crop_s, or the task family's default."""
        if self.crop_s is not None:
            return self.crop_s
        return DEFAULT_CROP_S[task_family(self.task)]


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


def featurize_rows(manifest_path: str, rows: list[ManifestRow]) -> list[np.ndarray]:
    """Log-mel features per row; .melf files are loaded directly, WAVs computed."""
    cache: dict[str, np.ndarray] = {}
    out = []
    for row in rows:
        path = resolve_path(manifest_path, row)
        if path not in cache:
            if path.endswith(".melf"):
                feats = dsp.load_melf(path)
                if feats.shape[1] != dsp.N_MELS:
                    raise AudioFormatError(f"{path}: {feats.shape[1]} mel bins, expected {dsp.N_MELS}")
            else:
                feats = dsp.log_mel_spectrogram(dsp.load_wav(path))
            cache[path] = feats
        out.append(cache[path])
    return out


def _stack_crops(
    features: list[np.ndarray], idx: np.ndarray, length_s: float, rng: np.random.Generator
) -> np.ndarray:
    """A training batch of random crops, trimmed to the shortest so batch
    norm sees one batch (slack clips may run a hair shorter)."""
    crops = [crop_frames(features[i], length_s, rng) for i in idx]
    t_min = min(c.shape[0] for c in crops)
    return np.stack([c[:t_min] for c in crops])[:, None, :, :]


def evaluate(
    model: Mtrcnn,
    features: list[np.ndarray],
    labels: np.ndarray,
    length_s: float | None = None,
) -> EvalResult:
    """Accuracy and confusion at a fixed length (center crop) or full clips.

    Raises InputTooShortError when a clip is too short for the length
    (`crop_frames`) or gives the model fewer frames than it needs
    (`Mtrcnn.forward`). Each clip gets its own forward, the `predict` call
    `infer` makes, so a clip scores the bits `infer` gives it: a batched
    forward rounds the classifier's GEMM differently with the number of rows.
    """
    confusion = np.zeros((model.config.n_classes,) * 2, dtype=np.int64)
    for clip, label in zip(features, labels):
        if length_s is not None:
            clip = crop_frames(clip, length_s)
        pred, _ = model.predict(model.normalize(clip[None, None]))
        confusion[label, pred[0]] += 1
    n = int(confusion.sum())
    acc = float(np.trace(confusion)) / n if n else float("nan")
    return EvalResult(acc, confusion, n)


def _kept_epoch(history: list[dict]) -> dict:
    """The history entry whose weights a run keeps: the first epoch with the
    best validation accuracy. A NaN accuracy never displaces an earlier
    epoch, and a first epoch at NaN is never displaced."""
    return max(history, key=lambda h: h["val_acc"])


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
    validation epoch (the first one, on ties) and no gradients, and the
    per-epoch history.

    The feature statistics are fit on the whole training split, but each
    batch is normalized only once its crops are stacked, so no normalized
    copy of the training set is ever held. Normalization is per element and
    per mel bin, so this gives the same bits as cropping normalized clips.
    """
    init_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_INIT]))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_SHUFFLE]))
    crop_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_CROP]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([run_seed, _SEED_DROPOUT]))

    model = Mtrcnn(config, init_rng)
    mean, std = dsp.feature_stats(train_features)
    model.feature_mean[...] = mean
    model.feature_std[...] = std

    opt = Adam(list(model.parameters().values()), lr=settings.lr)
    # Every parameter and buffer array; Adam and batch norm update them in place.
    state = model.state_arrays()
    crop_s = settings.crop()
    history: list[dict] = []
    best_state = []
    for epoch in range(1, settings.epochs + 1):
        t0 = time.perf_counter()
        total_loss, total_n = 0.0, 0
        for idx in batch_iter(len(train_features), settings.batch_size, shuffle_rng):
            x = model.normalize(_stack_crops(train_features, idx, crop_s, crop_rng))
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
            # A finite loss does not make a finite model: a batch variance
            # past the float32 range leaves a block outputting beta alone
            # and its running variance inf.
            bad = [name for name, a in state if not np.isfinite(a).all()]
            if bad:
                raise TrainingDivergedError(
                    f"non-finite training state ({', '.join(bad)}) in epoch {epoch}; "
                    f"lower the learning rate (now {settings.lr:g}) or check the features"
                )
            total_loss += float(loss.data) * len(idx)
            total_n += len(idx)
        val = evaluate(model, val_features, val_labels, length_s=crop_s)
        entry = {
            "epoch": epoch,
            "train_loss": total_loss / total_n,
            "val_acc": val.accuracy,
            "seconds": time.perf_counter() - t0,
        }
        history.append(entry)
        if _kept_epoch(history) is entry:
            best_state = [a.copy() for _, a in state]
        if log:
            log(f"  epoch {epoch:3d}  loss {entry['train_loss']:.4f}  "
                f"val_acc {entry['val_acc']:.4f}  ({entry['seconds']:.1f}s)")
    for (_, a), saved in zip(state, best_state):
        a[...] = saved
    opt.zero_grad()  # the last step's gradients belong to weights no longer held
    return model, history


def save_confusion_csv(path: str, confusion: np.ndarray, classes: tuple[str, ...]) -> None:
    write_csv(path, ["true\\pred", *classes],
              ([name, *(int(v) for v in row)] for name, row in zip(classes, confusion)))


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
    if all(not r.split for r in task_rows):
        counts = settings.splits or DEFAULT_SPLITS[task_family(settings.task)]
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
    # and sweep invocations can target the exact same test rows. Paths are
    # relative to the output directory, so it can move with the corpus.
    write_manifest(
        os.path.join(settings.out_dir, "manifest.csv"),
        [replace(r, path=os.path.relpath(resolve_path(manifest_path, r), settings.out_dir))
         for r in rows],
    )
    config = ModelConfig(task=settings.task)
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
        write_csv(os.path.join(run_dir, "loss_log.csv"), ["epoch", "train_loss", "val_acc"],
                  ([h["epoch"], f"{h['train_loss']:.9e}", f"{h['val_acc']:.9e}"] for h in history))
        test = None
        if subsets["test"]:
            test = evaluate(model, feats["test"], labels["test"], length_s=settings.crop())
            save_confusion_csv(os.path.join(run_dir, "confusion.csv"), test.confusion, classes)
            save_confusion_pgm(os.path.join(run_dir, "confusion.pgm"), test.confusion)
        best = _kept_epoch(history)
        summary.runs.append(RunResult(run, history, best["epoch"], best["val_acc"], test, ckpt))
        if log:
            tested = f", test {test.accuracy:.4f}" if test is not None else ""
            log(f"  run {run}: kept epoch {best['epoch']} (best val {best['val_acc']:.4f}){tested}")

    accs = [r.test.accuracy for r in summary.runs if r.test is not None]
    if accs:
        mean, std = float(np.mean(accs)), float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        line = f"test accuracy over {len(accs)} run(s): {mean * 100:.2f} +/- {std * 100:.2f} %"
        if 3 <= len(accs) <= 50 and np.ptp(accs) > 0:
            sw = shapiro_wilk(accs)
            line += f"  (Shapiro-Wilk W={sw.w:.4f} p={sw.p:.3f})"
        if log:
            log(line)
        write_csv(os.path.join(settings.out_dir, "summary.csv"),
                  ["run", "best_epoch", "best_val_acc", "test_acc"],
                  ([r.run, r.best_epoch, f"{r.best_val_acc:.6f}",
                    f"{r.test.accuracy:.6f}" if r.test else ""] for r in summary.runs))
    return summary


def length_sweep(
    model: Mtrcnn,
    features: list[np.ndarray],
    labels: np.ndarray,
    lengths_s: tuple[float, ...] = LENGTH_GRID_S,
) -> list[tuple[float, float | None]]:
    """Accuracy per evaluation length, one `evaluate` each; None where some
    clip is too short for the length or its crop gives the model fewer
    frames than it needs."""
    def accuracy(length: float) -> float | None:
        try:
            return evaluate(model, features, labels, length).accuracy
        except InputTooShortError:
            return None

    return [(length, accuracy(length)) for length in lengths_s]
