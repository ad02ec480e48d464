"""Workload inputs, operations and output checks.

Every input is generated from the workload seed with the package's own
load generator (`synth.synth_corpus`). The program under test then sees only
the written WAVs, manifest and checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

BATCH_SIZE = 32                 # recipe batch size
CROP_S = 6.0                    # recipe crop for the gesture task
# Corpus sizes, in clips per gesture class (6 classes).
PER_CLASS = {"infer_single": 2, "train_recipe": 8}
# train_recipe split: one recipe batch of training clips, plus validation.
TRAIN_SPLIT = (32, 12, 0)

# Probabilities of one response must sum to 1 within this (float32 softmax).
PROB_SUM_ATOL = 1e-5
# float32 program against the float64 reference forward, on probabilities.
ORACLE_ATOL = 1e-4
# infer_single responses compared against the reference forward.
ORACLE_SAMPLES = 3


def prepare(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's inputs under work_dir; return their description."""
    from touch_audition import data, dsp, synth, training
    from touch_audition.model import ModelConfig, Mtrcnn, save_checkpoint

    corpus = os.path.join(work_dir, "corpus")
    manifest = synth.synth_corpus(corpus, "gesture", PER_CLASS[workload], seed)
    spec = {"workload": workload, "seed": seed, "manifest": manifest}
    if workload == "train_recipe":
        rows = data.assign_splits(data.read_manifest(manifest), "gesture", TRAIN_SPLIT, seed)
        data.write_manifest(manifest, rows)
    else:
        rows = data.read_manifest(manifest)
        model = Mtrcnn(ModelConfig(), np.random.default_rng(seed))
        mean, std = dsp.feature_stats(training.featurize_rows(manifest, rows))
        model.feature_mean[...] = mean
        model.feature_std[...] = std
        spec["checkpoint"] = os.path.join(work_dir, "model.ckpt")
        save_checkpoint(spec["checkpoint"], model)
    with open(os.path.join(work_dir, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    return spec


def read_spec(work_dir: str) -> dict:
    with open(os.path.join(work_dir, "spec.json")) as fh:
        return json.load(fh)


def setup(spec: dict) -> dict:
    """What a user pays before the first operation: the timed set-up."""
    from touch_audition import data, training
    from touch_audition import model as model_mod

    workload = spec["workload"]
    manifest = spec["manifest"]
    rows = data.read_manifest(manifest)
    labels = np.array([data.class_index(r, "gesture") for r in rows], dtype=np.int64)
    state = {"seed": spec["seed"], "manifest": manifest, "rows": rows, "labels": labels}
    if workload == "train_recipe":
        for split in ("train", "val"):
            keep = [i for i, r in enumerate(rows) if r.split == split]
            state[f"{split}_features"] = training.featurize_rows(manifest, [rows[i] for i in keep])
            state[f"{split}_labels"] = labels[keep]
    else:
        state["model"] = model_mod.load_checkpoint(spec["checkpoint"])
        state["wavs"] = [data.resolve_path(manifest, r) for r in rows]
    return state


# -- operations ---------------------------------------------------------------
#
# Each returns (work units done, response). A work unit is what `clips_per_s`
# counts on that workload.

def infer_op(state: dict, i: int):
    """One 10 s WAV from disk to class probabilities, batch 1."""
    from touch_audition import dsp

    model = state["model"]
    wavs = state["wavs"]
    features = dsp.log_mel_spectrogram(dsp.load_wav(wavs[i % len(wavs)]))
    _, probs = model.predict(model.normalize(features)[None, None])
    return 1, probs


def train_op(state: dict, i: int):
    """One recipe epoch (random 6 s crops, batch 32) plus its validation."""
    from touch_audition import training
    from touch_audition.model import ModelConfig

    settings = training.TrainSettings(epochs=1, batch_size=BATCH_SIZE, crop_s=CROP_S)
    model, history = training.train_run(
        state["train_features"], state["train_labels"],
        state["val_features"], state["val_labels"],
        ModelConfig(), settings, run_seed=state["seed"],
    )
    return len(state["train_features"]), (model, history)


OPS = {"infer_single": infer_op, "train_recipe": train_op}


# -- checks -------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        """Count one checked operation; `reason` is None when it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def check_probs(probs, n_classes: int) -> str | None:
    probs = np.asarray(probs)
    if probs.shape != (1, n_classes):
        return f"probabilities shaped {probs.shape}, expected (1, {n_classes})"
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        return "non-finite or negative probability"
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_ATOL:
        return f"probabilities sum to {float(probs.sum())!r}"
    return None


def check_oracle(probs, reference) -> str | None:
    err = float(np.max(np.abs(np.asarray(probs, dtype=np.float64) - reference)))
    if not err <= ORACLE_ATOL:
        return f"probabilities differ from the float64 reference by {err:.3g}"
    return None


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.parameters().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def check_train(model, history, first_digest: str | None) -> tuple[str | None, str]:
    """Finite loss and parameters, and the same bytes as the first call."""
    digest = params_digest(model)
    if not all(np.isfinite(h["train_loss"]) for h in history):
        return "non-finite training loss", digest
    if not all(np.all(np.isfinite(p.data)) for p in model.parameters().values()):
        return "non-finite parameter", digest
    if first_digest is not None and digest != first_digest:
        return "parameters differ from the first call under the same seed", digest
    return None, digest
