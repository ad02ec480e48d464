"""Label taxonomy, manifest CSV handling, split assignment, and cropping.

The manifest is a CSV with header `path,participant,round,task,label,split`.
The label column stores the base annotation (a gesture name or an emotion
name); arousal / valence / quadrant targets are derived views of the emotion
label via the circumplex mapping below.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputTooShortError, ManifestError

GESTURES = ("hold", "pat", "poke", "tickle", "tap", "rub")

# Circumplex quadrants: Q1 high/positive, Q2 high/negative, Q3 low/negative,
# Q4 low/positive, Q0 the neutral origin.
EMOTION_QUADRANT = {
    "attention": "Q0",
    "happiness": "Q1",
    "surprise": "Q1",
    "anger": "Q2",
    "fear": "Q2",
    "disgust": "Q2",
    "sadness": "Q3",
    "confusion": "Q3",
    "comfort": "Q4",
    "calming": "Q4",
}
EMOTIONS = tuple(EMOTION_QUADRANT)

QUADRANT_AROUSAL = {"Q0": "neutral", "Q1": "high", "Q2": "high", "Q3": "low", "Q4": "low"}
QUADRANT_VALENCE = {"Q0": "neutral", "Q1": "positive", "Q2": "negative", "Q3": "negative", "Q4": "positive"}

AROUSAL_CLASSES = ("low", "neutral", "high")
VALENCE_CLASSES = ("negative", "neutral", "positive")
QUADRANT_CLASSES = ("Q0", "Q1", "Q2", "Q3", "Q4")

TASK_CLASSES: dict[str, tuple[str, ...]] = {
    "gesture": GESTURES,
    "arousal": AROUSAL_CLASSES,
    "valence": VALENCE_CLASSES,
    "aro_val": QUADRANT_CLASSES,
}

# Default split totals (train, val, test) per task family.
DEFAULT_SPLITS: dict[str, tuple[int, int, int]] = {
    "gesture": (366, 42, 84),
    "arousal": (660, 80, 100),
    "valence": (660, 80, 100),
    "aro_val": (660, 80, 100),
}

MANIFEST_HEADER = ["path", "participant", "round", "task", "label", "split"]


@dataclass(frozen=True)
class ManifestRow:
    path: str
    participant: str
    round: int
    task: str
    label: str
    split: str = ""


def task_label(row: ManifestRow, task: str) -> str:
    """Map a manifest row's base label to the target class for `task`."""
    if task == "gesture":
        if row.label not in GESTURES:
            raise ManifestError(f"unknown gesture label {row.label!r}")
        return row.label
    if row.label not in EMOTION_QUADRANT:
        raise ManifestError(f"unknown emotion label {row.label!r}")
    quadrant = EMOTION_QUADRANT[row.label]
    if task == "aro_val":
        return quadrant
    if task == "arousal":
        return QUADRANT_AROUSAL[quadrant]
    if task == "valence":
        return QUADRANT_VALENCE[quadrant]
    raise ManifestError(f"unknown task {task!r}")


def class_index(row: ManifestRow, task: str) -> int:
    return TASK_CLASSES[task].index(task_label(row, task))


def rows_for_task(rows: list[ManifestRow], task: str) -> list[ManifestRow]:
    """Rows relevant to a task: gesture rows for gesture, emotion rows otherwise."""
    family = "gesture" if task == "gesture" else "emotion"
    return [r for r in rows if r.task == family]


def read_manifest(path: str) -> list[ManifestRow]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ManifestError(f"cannot open manifest {path}: {e}") from e
    with fh:
        try:
            records = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as e:
            raise ManifestError(f"{path}: not a UTF-8 CSV file ({e})") from e
        header = records[0] if records else None
        if header != MANIFEST_HEADER:
            raise ManifestError(
                f"{path}: expected header {','.join(MANIFEST_HEADER)}, got {header}"
            )
        rows = []
        for lineno, rec in enumerate(records[1:], start=2):
            if not rec:
                continue
            if len(rec) != len(MANIFEST_HEADER):
                raise ManifestError(f"{path}:{lineno}: expected {len(MANIFEST_HEADER)} fields, got {len(rec)}")
            try:
                rows.append(
                    ManifestRow(
                        path=rec[0], participant=rec[1], round=int(rec[2]),
                        task=rec[3], label=rec[4], split=rec[5],
                    )
                )
            except ValueError as e:
                raise ManifestError(f"{path}:{lineno}: {e}") from e
    return rows


def write_manifest(path: str, rows: list[ManifestRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in rows:
            writer.writerow([r.path, r.participant, r.round, r.task, r.label, r.split])


def resolve_path(manifest_path: str, row: ManifestRow) -> str:
    """Row paths are relative to the manifest's directory unless absolute."""
    if os.path.isabs(row.path):
        return row.path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), row.path)


def assign_splits(
    rows: list[ManifestRow],
    task: str,
    counts: tuple[int, int, int],
    seed: int,
    by_participant: bool = False,
) -> list[ManifestRow]:
    """Stratified split assignment; returns new rows with split set.

    Stratification runs over base labels (gesture names, or emotion names
    for the derived arousal/valence/quadrant tasks, so one assignment is
    consistent across all three emotion views). Each split's total is
    divided evenly across the labels; the remainder is handed out
    round-robin over a seeded shuffle of the label list. Clips beyond a
    label's quota keep split="" (unassigned), which is how e.g.
    366+42+84 = 492 clips can be drawn from a larger pool. With
    by_participant=True, each participant's clips of the task all go to one
    split (no participant straddles a split boundary), chosen greedily over
    a seeded shuffle of the participants; exact totals are then only honored
    as closely as participant group sizes allow.
    """
    classes = GESTURES if task == "gesture" else EMOTIONS
    targets = rows_for_task(rows, task)
    if not targets:
        raise ManifestError(f"manifest has no rows for task {task!r}")
    if sum(counts) > len(targets):
        raise ManifestError(
            f"split totals {counts} sum to {sum(counts)} but only "
            f"{len(targets)} rows are available for task {task!r}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA551]))
    # Per-class quotas per split: even share + round-robin remainder over a
    # shuffled class order. The rotation carries across splits so val and
    # test remainders land on different classes instead of taxing the same
    # ones twice.
    order = list(classes)
    rng.shuffle(order)
    quotas: dict[str, list[int]] = {c: [0, 0, 0] for c in classes}
    offset = 0
    for s, total in enumerate(counts):
        share, rem = divmod(total, len(classes))
        for c in classes:
            quotas[c][s] = share
        for k in range(rem):
            quotas[order[(offset + k) % len(classes)]][s] += 1
        offset += rem
    if not by_participant:
        for c in classes:
            need = sum(quotas[c])
            have = sum(1 for r in targets if r.label == c)
            if need > have:
                raise ManifestError(
                    f"split quotas need {need} {c!r} clips but the manifest has {have}"
                )

    split_names = ("train", "val", "test")
    assigned: dict[int, str] = {}
    if by_participant:
        by_part: dict[str, list[ManifestRow]] = {}
        for r in targets:
            if r.label in quotas:
                by_part.setdefault(r.participant, []).append(r)
        parts = sorted(by_part)
        rng.shuffle(parts)
        for part in parts:
            group = by_part[part]
            # Put all of the participant's clips in the split whose unmet
            # per-class quotas they fill best; none left means unassigned.
            labels = [r.label for r in group]
            fill = [sum(min(labels.count(c), max(quotas[c][s], 0)) for c in set(labels))
                    for s in range(3)]
            s = max(range(3), key=lambda i: fill[i])
            if fill[s] == 0:
                continue
            for r in group:
                assigned[id(r)] = split_names[s]
                quotas[r.label][s] -= 1
    else:
        for cls in classes:
            cls_rows = [r for r in targets if r.label == cls]
            idx = rng.permutation(len(cls_rows))
            cursor = 0
            for s, quota in enumerate(quotas[cls]):
                for i in idx[cursor : cursor + quota]:
                    assigned[id(cls_rows[i])] = split_names[s]
                cursor += quota

    return [replace(r, split=assigned.get(id(r), "")) for r in rows]


FRAMES_PER_SECOND = 100          # 10 ms hop
FULL_CLIP_SLACK = 3              # window-trim deficit tolerated for "use whole clip"


def target_frames(length_s: float) -> int:
    return int(round(length_s * FRAMES_PER_SECOND))


def crop_frames(
    features: np.ndarray,
    length_s: float,
    mode: str = "random",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Crop a (T, F) feature array to ~length_s seconds worth of frames.

    Target n = round(length_s * 100). A clip with T >= n is cropped to
    exactly n frames (random or center start); a clip within FULL_CLIP_SLACK
    frames below n is used whole (the analysis window trims up to 2 frames
    off a sample-aligned clip); anything shorter raises.
    mode="full" always returns the whole clip.
    """
    t = features.shape[0]
    if mode == "full":
        return features
    n = target_frames(length_s)
    if t >= n:
        if mode == "random":
            if rng is None:
                raise ValueError("random crop needs an rng")
            start = int(rng.integers(0, t - n + 1))
        elif mode == "center":
            start = (t - n) // 2
        else:
            raise ValueError(f"unknown crop mode {mode!r}")
        return features[start : start + n]
    if t >= n - FULL_CLIP_SLACK:
        return features
    raise InputTooShortError(
        f"clip has {t} frames but a {length_s:g} s crop needs at least "
        f"{n - FULL_CLIP_SLACK}"
    )


def batch_iter(
    n_items: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled index batches covering all items once (last may be short)."""
    idx = rng.permutation(n_items)
    return [idx[i : i + batch_size] for i in range(0, n_items, batch_size)]
