"""Taxonomy, manifest, split, and cropping tests."""

import re

import numpy as np
import pytest
from conftest import corrupted
from hypothesis import given, settings
from hypothesis import strategies as st

from touch_audition import dsp
from touch_audition.cli import main
from touch_audition.data import (
    AROUSAL_CLASSES,
    DEFAULT_SPLITS,
    EMOTION_QUADRANT,
    EMOTIONS,
    FULL_CLIP_SLACK,
    GESTURES,
    MANIFEST_HEADER,
    QUADRANT_CLASSES,
    TASK_CLASSES,
    VALENCE_CLASSES,
    ManifestRow,
    assign_splits,
    batch_iter,
    class_index,
    crop_frames,
    read_manifest,
    rows_for_task,
    target_frames,
    task_family,
    task_label,
    write_manifest,
)
from touch_audition.errors import InputTooShortError, ManifestError, TouchAuditionError
from touch_audition.training import TrainSettings

RNG = np.random.default_rng(31)


def test_taxonomy_shapes():
    assert len(GESTURES) == 6
    assert len(EMOTIONS) == 10
    quad_sizes = {q: 0 for q in QUADRANT_CLASSES}
    for q in EMOTION_QUADRANT.values():
        quad_sizes[q] += 1
    assert quad_sizes == {"Q0": 1, "Q1": 2, "Q2": 3, "Q3": 2, "Q4": 2}
    assert AROUSAL_CLASSES == ("low", "neutral", "high")
    assert VALENCE_CLASSES == ("negative", "neutral", "positive")
    assert len(TASK_CLASSES) == 4


@pytest.mark.parametrize(
    "emotion,quadrant,arousal,valence",
    [
        ("happiness", "Q1", "high", "positive"),
        ("surprise", "Q1", "high", "positive"),
        ("anger", "Q2", "high", "negative"),
        ("fear", "Q2", "high", "negative"),
        ("disgust", "Q2", "high", "negative"),
        ("sadness", "Q3", "low", "negative"),
        ("confusion", "Q3", "low", "negative"),
        ("comfort", "Q4", "low", "positive"),
        ("calming", "Q4", "low", "positive"),
        ("attention", "Q0", "neutral", "neutral"),
    ],
)
def test_circumplex_mapping(emotion, quadrant, arousal, valence):
    row = ManifestRow("x.wav", "p00", 1, "emotion", emotion)
    assert task_label(row, "aro_val") == quadrant
    assert task_label(row, "arousal") == arousal
    assert task_label(row, "valence") == valence


@pytest.mark.parametrize("task", TASK_CLASSES)
def test_task_label_rejects_unknown(task):
    family = task_family(task)
    other = EMOTIONS[0] if family == "gesture" else GESTURES[0]
    for label in ("smack", "boredom", other):
        with pytest.raises(ManifestError, match=f"unknown {family} label '{label}'"):
            task_label(ManifestRow("x", "p", 1, family, label), task)


@pytest.mark.parametrize("call", [
    lambda task: rows_for_task(_gesture_rows(1), task),
    lambda task: assign_splits(_gesture_rows(1), task, (6, 0, 0), seed=0),
    lambda task: task_label(ManifestRow("x", "p", 1, "gesture", "tap"), task),
    lambda task: class_index(ManifestRow("x", "p", 1, "gesture", "tap"), task),
    lambda task: TrainSettings(task=task).crop(),
], ids=["rows_for_task", "assign_splits", "task_label", "class_index", "crop"])
@pytest.mark.parametrize("task", ["Gesture", "emotion", "bogus"])
def test_unknown_task_is_refused(call, task):
    # Not read as the emotion family: one error that names the tasks.
    with pytest.raises(ManifestError, match=f"unknown task '{task}'.*gesture, arousal, valence, aro_val"):
        call(task)


# Each task's family, that family's base labels and its recipe defaults
# (training crop in seconds, train/val/test split totals).
TASK_FAMILY_CASES = {
    "gesture": ("gesture", GESTURES, 6.0, (366, 42, 84)),
    "arousal": ("emotion", EMOTIONS, 7.0, (660, 80, 100)),
    "valence": ("emotion", EMOTIONS, 7.0, (660, 80, 100)),
    "aro_val": ("emotion", EMOTIONS, 7.0, (660, 80, 100)),
}


@pytest.mark.parametrize("task", TASK_CLASSES)
def test_every_view_of_a_task_agrees_on_its_family(task, tmp_path, capsys):
    family, labels, crop_s, splits = TASK_FAMILY_CASES[task]
    rows = [ManifestRow(f"{label}.wav", "p00", 1, fam, label)
            for fam, names in (("gesture", GESTURES), ("emotion", EMOTIONS)) for label in names]
    assert {r.task for r in rows_for_task(rows, task)} == {family}
    # One clip of each label to train: assign_splits stratifies over the family's labels.
    split = assign_splits(rows, task, (len(labels), 0, 0), seed=0)
    assert sorted(r.label for r in split if r.split) == sorted(labels)
    assert main(["synth", "--task", task, "--per-class", "1", "--seconds", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert f"({family} family)" in capsys.readouterr().out
    corpus = read_manifest(str(tmp_path / "manifest.csv"))
    assert {r.task for r in corpus} == {family}
    assert [r.label for r in corpus] == list(labels)
    assert TrainSettings(task=task).crop() == crop_s
    assert DEFAULT_SPLITS[task_family(task)] == splits


def test_manifest_round_trip(tmp_path):
    rows = [
        ManifestRow("a/b.wav", "p03", 2, "gesture", "tap", "train"),
        ManifestRow("c.wav", "p00", 1, "emotion", "anger", ""),
    ]
    path = str(tmp_path / "m.csv")
    write_manifest(path, rows)
    header = open(path).readline().strip()
    assert header == "path,participant,round,task,label,split"
    assert read_manifest(path) == rows


@pytest.mark.parametrize("family", ["gestures", "Emotion", "aro_val", ""])
def test_manifest_rejects_unknown_family(tmp_path, family):
    path = tmp_path / "m.csv"
    path.write_text("path,participant,round,task,label,split\n"
                    f"a.wav,p0,1,gesture,tap,\nb.wav,p0,1,{family},tap,\n")
    with pytest.raises(ManifestError, match=re.escape(f"m.csv:3: task '{family}' is not gesture or emotion")):
        read_manifest(str(path))


def test_manifest_rejects_malformed(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("path,participant\nx.wav,p0\n")
    with pytest.raises(ManifestError):
        read_manifest(path)
    with open(path, "w") as fh:
        fh.write("path,participant,round,task,label,split\nx.wav,p0,NaN?,gesture,tap,\n")
    with pytest.raises(ManifestError):
        read_manifest(path)
    with pytest.raises(ManifestError):
        read_manifest(str(tmp_path / "missing.csv"))
    with open(path, "wb") as fh:
        fh.write(b"path,participant,round,task,label,split\n\xff.wav,p0,1,gesture,tap,\n")
    with pytest.raises(ManifestError, match="UTF-8"):
        read_manifest(path)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "manifest.csv")
    write_manifest(path, [ManifestRow("a.wav", "p0", 1, "gesture", "tap", "train"),
                          ManifestRow("b.wav", "p1", 2, "emotion", "fear", "")])
    with open(path, "rb") as fh:
        return path, fh.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_manifest_reader_never_leaks_raw_errors(small_manifest, data):
    path, valid = small_manifest
    fuzz = path + ".fuzz"
    with open(fuzz, "wb") as fh:
        fh.write(data.draw(corrupted(valid, ",".join(MANIFEST_HEADER).encode() + b"\r\n")))
    try:
        rows = read_manifest(fuzz)
    except TouchAuditionError:
        return
    assert all(isinstance(r, ManifestRow) for r in rows)


def _gesture_rows(per_class: int) -> list[ManifestRow]:
    rows = []
    for label in GESTURES:
        for i in range(per_class):
            rows.append(
                ManifestRow(f"{label}_{i}.wav", f"p{i % 7:02d}", i // 7 + 1, "gesture", label)
            )
    return rows


def test_default_split_counts_divide_evenly():
    # 504 gesture clips (84 per class) under (366, 42, 84):
    # per class 61 train / 7 val / 14 test, no remainder.
    rows = assign_splits(_gesture_rows(84), "gesture", DEFAULT_SPLITS["gesture"], seed=1)
    per_split: dict[str, dict[str, int]] = {}
    for r in rows:
        per_split.setdefault(r.split, {}).setdefault(r.label, 0)
        per_split[r.split][r.label] += 1
    assert sum(per_split["train"].values()) == 366
    assert sum(per_split["val"].values()) == 42
    assert sum(per_split["test"].values()) == 84
    assert all(v == 61 for v in per_split["train"].values())
    assert all(v == 7 for v in per_split["val"].values())
    assert all(v == 14 for v in per_split["test"].values())
    # 504 - 492 = 12 clips stay unassigned.
    assert sum(1 for r in rows if not r.split) == 12


def test_split_remainder_round_robin():
    # 20 clips/class with totals (84, 24, 12): quotas 14/4/2 exact.
    rows = assign_splits(_gesture_rows(20), "gesture", (84, 24, 12), seed=3)
    counts = {"train": 0, "val": 0, "test": 0, "": 0}
    for r in rows:
        counts[r.split] += 1
    assert counts == {"train": 84, "val": 24, "test": 12, "": 0}
    # Uneven totals spread the remainder with per-class counts within 1.
    rows = assign_splits(_gesture_rows(20), "gesture", (80, 20, 10), seed=3)
    per_class = {g: 0 for g in GESTURES}
    for r in rows:
        if r.split == "train":
            per_class[r.label] += 1
    assert sum(per_class.values()) == 80
    assert max(per_class.values()) - min(per_class.values()) <= 1


def test_split_determinism_and_seed_sensitivity():
    base = _gesture_rows(20)
    a = assign_splits(base, "gesture", (84, 24, 12), seed=5)
    b = assign_splits(base, "gesture", (84, 24, 12), seed=5)
    c = assign_splits(base, "gesture", (84, 24, 12), seed=6)
    assert a == b
    assert a != c


def test_split_rejects_oversubscription():
    with pytest.raises(ManifestError):
        assign_splits(_gesture_rows(5), "gesture", (366, 42, 84), seed=0)


def test_split_by_participant_keeps_groups_whole():
    rows = assign_splits(_gesture_rows(21), "gesture", (60, 30, 24), seed=2, by_participant=True)
    seen: dict[tuple[str, str], set[str]] = {}
    for r in rows:
        if r.split:
            seen.setdefault((r.label, r.participant), set()).add(r.split)
    for (label, part), splits in seen.items():
        assert len(splits) == 1, f"{part} straddles {splits} for {label}"


@settings(max_examples=60, deadline=None)
@given(
    per_class=st.lists(st.integers(0, 12), min_size=len(GESTURES), max_size=len(GESTURES)),
    counts=st.tuples(st.integers(0, 40), st.integers(0, 15), st.integers(0, 15)),
    n_participants=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_split_invariants_property(per_class, counts, n_participants, seed):
    rows = [ManifestRow(f"{label}_{i}.wav", f"p{i % n_participants}", 1, "gesture", label)
            for label, n in zip(GESTURES, per_class) for i in range(n)]
    if not rows:
        return
    # Exact quotas: each split gets exactly its total, spread over the
    # classes within one clip of each other, or the request is refused.
    try:
        out = assign_splits(rows, "gesture", counts, seed)
    except ManifestError:
        # A class can be asked for at most one more than an even share per split.
        most = sum(-(-total // len(GESTURES)) for total in counts)
        assert sum(counts) > len(rows) or min(per_class) < most
    else:
        for s, name in enumerate(("train", "val", "test")):
            got = [sum(1 for r in out if r.label == c and r.split == name) for c in GESTURES]
            assert sum(got) == counts[s]
            assert max(got) - min(got) <= 1
    # By participant: nobody's clips land in two splits.
    try:
        out = assign_splits(rows, "gesture", counts, seed, by_participant=True)
    except ManifestError:
        assert sum(counts) > len(rows)
        return
    splits: dict[str, set[str]] = {}
    for r in out:
        if r.split:
            splits.setdefault(r.participant, set()).add(r.split)
    assert all(len(s) == 1 for s in splits.values()), splits


def test_emotion_default_split_counts():
    rows = []
    for label in EMOTIONS:
        for i in range(84):
            rows.append(ManifestRow(f"{label}_{i}.wav", f"p{i % 7:02d}", 1, "emotion", label))
    out = assign_splits(rows, "aro_val", DEFAULT_SPLITS["emotion"], seed=1)
    counts = {"train": 0, "val": 0, "test": 0, "": 0}
    for r in out:
        counts[r.split] += 1
    assert counts["train"] == 660 and counts["val"] == 80 and counts["test"] == 100


def test_rows_for_task_and_class_index():
    rows = _gesture_rows(1) + [ManifestRow("e.wav", "p00", 1, "emotion", "fear")]
    assert len(rows_for_task(rows, "gesture")) == 6
    assert len(rows_for_task(rows, "arousal")) == 1
    assert class_index(rows[-1], "arousal") == AROUSAL_CLASSES.index("high")
    assert class_index(rows[0], "gesture") == GESTURES.index(rows[0].label)


def test_crop_exact_and_identity():
    feats = RNG.standard_normal((997, 64)).astype(np.float32)
    # A 10 s request on a 10 s clip returns the whole thing (slack covers
    # the 3-frame window trim).
    out = crop_frames(feats, 10.0)
    assert out.shape == (997, 64)
    assert out is feats or np.array_equal(out, feats)
    # 2 s crops are exactly 200 frames.
    assert target_frames(2.0) == 200
    out = crop_frames(feats, 2.0)
    assert out.shape == (200, 64)
    start = (997 - 200) // 2
    assert np.array_equal(out, feats[start : start + 200])


def test_crop_random_bounds_property():
    feats = np.arange(500, dtype=np.float32)[:, None] * np.ones((1, 4), np.float32)
    rng = np.random.default_rng(8)
    starts = set()
    for _ in range(300):
        out = crop_frames(feats, 2.0, rng)
        assert out.shape[0] == 200
        start = int(out[0, 0])
        assert 0 <= start <= 300
        assert np.array_equal(out[:, 0], np.arange(start, start + 200, dtype=np.float32))
        starts.add(start)
    assert len(starts) > 50  # actually randomized


def test_crop_random_start_range_is_inclusive():
    # Pin the half-open draw [0, T - n + 1): the last legal start index is
    # exactly T - n, so a 200-frame crop of a 500-frame clip can start at 300.
    class StubRng:
        def __init__(self, value):
            self.value = value
            self.seen = None

        def integers(self, lo, hi):
            self.seen = (lo, hi)
            return self.value

    feats = np.arange(500, dtype=np.float32)[:, None] * np.ones((1, 4), np.float32)
    hi_rng = StubRng(300)
    out = crop_frames(feats, 2.0, hi_rng)
    assert hi_rng.seen == (0, 301)
    assert out[0, 0] == 300 and out[-1, 0] == 499
    lo_rng = StubRng(0)
    out = crop_frames(feats, 2.0, lo_rng)
    assert out[0, 0] == 0 and out[-1, 0] == 199


@settings(max_examples=200, deadline=None)
@given(
    n_samples=st.integers(dsp.WIN_LENGTH, 20 * dsp.SAMPLE_RATE),
    length_s=st.floats(0.01, 20.0),
    rng=st.none() | st.builds(np.random.default_rng, st.integers(0, 2**32 - 1)),
)
def test_crop_frame_accounting_property(n_samples, length_s, rng):
    t = dsp.num_frames(n_samples)
    feats = np.arange(t, dtype=np.float32)[:, None]
    n = target_frames(length_s)
    if t < n - FULL_CLIP_SLACK:
        with pytest.raises(InputTooShortError):
            crop_frames(feats, length_s, rng)
        return
    out = crop_frames(feats, length_s, rng)
    assert out.shape[0] == (n if t >= n else t)
    if rng is None and t >= n:
        assert out[0, 0] == (t - n) // 2  # centred
    assert np.array_equal(out[:, 0], np.arange(out[0, 0], out[0, 0] + out.shape[0]))


@settings(max_examples=200, deadline=None)
@given(length_s=st.floats(dsp.WIN_LENGTH / dsp.SAMPLE_RATE, 20.0))
def test_clip_of_any_length_crops_to_itself(length_s):
    # The analysis window trims a clip of L seconds to 2-3 frames short of
    # target_frames(L); the slack exists so such a clip is used whole.
    t = dsp.num_frames(round(length_s * dsp.SAMPLE_RATE))
    assert 0 < target_frames(length_s) - t <= FULL_CLIP_SLACK
    feats = np.zeros((t, 1), dtype=np.float32)
    assert crop_frames(feats, length_s).shape[0] == t


def test_crop_too_short_and_bad_modes():
    feats = RNG.standard_normal((196, 8)).astype(np.float32)
    with pytest.raises(InputTooShortError):
        crop_frames(feats, 2.0)  # 196 < 200 - 3
    ok = crop_frames(RNG.standard_normal((197, 8)).astype(np.float32), 2.0)
    assert ok.shape[0] == 197  # within slack: whole clip


def test_batch_iter_covers_everything():
    rng = np.random.default_rng(0)
    batches = batch_iter(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]
    seen = sorted(int(i) for b in batches for i in b)
    assert seen == list(range(10))
