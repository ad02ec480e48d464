"""End-to-end CLI coverage: every subcommand through main(argv), plus the
error-exit contract (usage errors 2, domain errors 1 with a one-line stderr)."""

from __future__ import annotations

import csv
import os
import re
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from touch_audition import cli, dsp
from touch_audition.cli import main
from touch_audition.data import DEFAULT_CROP_S, DEFAULT_SPLITS, GESTURES, read_manifest, write_manifest
from touch_audition.model import ModelConfig, Mtrcnn, load_checkpoint, save_checkpoint
from touch_audition.training import TrainSettings


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_corpus):
    """One fast CLI training run shared by the eval/sweep/infer tests."""
    out = str(tmp_path_factory.mktemp("cli_train"))
    rc = main([
        "train", "--manifest", tiny_corpus, "--task", "gesture",
        "--out", out, "--epochs", "1", "--batch-size", "8",
        "--crop-s", "1.2", "--splits", "12,3,3", "--seed", "3",
    ])
    assert rc == 0
    ckpt = os.path.join(out, "run0", "model.ckpt")
    assert os.path.exists(ckpt)
    return {"ckpt": ckpt, "manifest": tiny_corpus}


def test_synth_is_reproducible(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        d = str(tmp_path / name)
        assert main(["synth", "--task", "gesture", "--per-class", "1",
                     "--seed", "5", "--seconds", "3", "--out", d]) == 0
        outs.append(d)
    assert "wrote 6 clips" in capsys.readouterr().out
    for fname in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], fname), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], fname), "rb") as fh:
            assert first == fh.read(), fname


def test_featurize_single_wav(tiny_corpus, tmp_path, capsys):
    row = read_manifest(tiny_corpus)[0]
    wav = os.path.join(os.path.dirname(tiny_corpus), row.path)
    out = str(tmp_path / "clip.melf")
    assert main(["featurize", "--wav", wav, "--out", out]) == 0
    assert "997 frames x 64 mel bins" in capsys.readouterr().out
    feats = dsp.load_melf(out)
    assert np.array_equal(feats, dsp.log_mel_spectrogram(dsp.load_wav(wav)))


def test_featurize_manifest(tiny_corpus, tmp_path, capsys):
    out = str(tmp_path / "feats")
    assert main(["featurize", "--manifest", tiny_corpus, "--out", out]) == 0
    assert "featurized 18 clips" in capsys.readouterr().out
    rows = read_manifest(os.path.join(out, "manifest.csv"))
    assert len(rows) == 18
    assert all(r.path.endswith(".melf") for r in rows)
    feats = dsp.load_melf(os.path.join(out, rows[0].path))
    assert feats.shape == (997, 64)


def test_featurize_manifest_rejects_colliding_basenames(tiny_corpus, tmp_path, capsys):
    corpus = os.path.dirname(tiny_corpus)
    rows = read_manifest(tiny_corpus)[:2]
    for sub, row in zip("ab", rows):
        os.makedirs(tmp_path / sub)
        shutil.copy(os.path.join(corpus, row.path), tmp_path / sub / "x.wav")
    manifest = str(tmp_path / "manifest.csv")
    write_manifest(manifest, [replace(r, path=f"{sub}/x.wav") for sub, r in zip("ab", rows)])
    out = tmp_path / "feats"
    assert main(["featurize", "--manifest", manifest, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x.melf" in err and err.count("\n") == 1
    assert not out.exists()


def test_featurize_requires_one_input(tmp_path, capsys):
    assert main(["featurize", "--out", str(tmp_path / "x.melf")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_analyze_report(tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    assert main(["analyze", "--task", "gesture", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "240,038" in text
    assert "[7, 20, 38]" in text
    assert "110 frames = 1.10 s" in text
    with open(out) as fh:
        csv_text = fh.read()
    assert "params,total,240038" in csv_text
    assert "meta,min_frames,110" in csv_text


def test_eval_prints_accuracy(trained, tmp_path, capsys):
    conf = str(tmp_path / "confusion.csv")
    rc = main(["eval", "--checkpoint", trained["ckpt"],
               "--manifest", trained["manifest"], "--split", "",
               "--length", "1.2", "--out", conf])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "18 clips" in out and "1.2 s center crops" in out
    with open(conf) as fh:
        assert fh.readline().startswith("true\\pred")


def test_eval_full_clips(trained, capsys):
    rc = main(["eval", "--checkpoint", trained["ckpt"],
               "--manifest", trained["manifest"], "--split", ""])
    assert rc == 0
    assert "full clips" in capsys.readouterr().out


def test_eval_follows_a_run_directory_moved_with_its_corpus(tiny_corpus, tmp_path, capsys):
    # The run manifest names each clip relative to the run directory, so a
    # corpus and its runs copied elsewhere, with the originals deleted,
    # evaluate as they did in place.
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(os.path.dirname(tiny_corpus), old / "corpus")
    assert main(["train", "--manifest", str(old / "corpus" / "manifest.csv"),
                 "--out", str(old / "runs"), "--epochs", "1", "--batch-size", "8",
                 "--crop-s", "1.2", "--splits", "12,3,3", "--seed", "3"]) == 0
    capsys.readouterr()

    def eval_stdout(root):
        assert main(["eval", "--checkpoint", str(root / "runs" / "run0" / "model.ckpt"),
                     "--manifest", str(root / "runs" / "manifest.csv")]) == 0
        return capsys.readouterr().out

    in_place = eval_stdout(old)
    shutil.copytree(old, new)
    shutil.rmtree(old)
    assert eval_stdout(new) == in_place


def test_sweep_marks_below_minimum(trained, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--checkpoint", trained["ckpt"],
               "--manifest", trained["manifest"], "--split", "",
               "--lengths", "1,2", "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("1.0 s" in ln and "n/a (clips too short)" in ln for ln in lines)
    assert any("2.0 s" in ln and "%" in ln for ln in lines)
    with open(out) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "length_s,accuracy"
    assert rows[1] == "1.0,"


def test_sweep_default_lengths_are_the_analyzer_grid(trained, tmp_path, capsys):
    runs_manifest = os.path.join(os.path.dirname(os.path.dirname(trained["ckpt"])), "manifest.csv")
    sweep_csv, report_csv = str(tmp_path / "sweep.csv"), str(tmp_path / "report.csv")
    assert main(["sweep", "--checkpoint", trained["ckpt"], "--manifest", runs_manifest,
                 "--out", sweep_csv]) == 0
    assert main(["analyze", "--out", report_csv]) == 0
    capsys.readouterr()
    with open(sweep_csv, newline="") as fh:
        swept = list(csv.reader(fh))[1:]
    with open(report_csv, newline="") as fh:
        reported = [key for section, key, _ in csv.reader(fh) if section == "flops"]
    assert [length for length, _ in swept] == [f"{s}.0" for s in range(1, 11)]
    # The analyzer leaves out the lengths below the model's minimum input,
    # which the sweep reports as n/a (an empty accuracy).
    assert [f"{float(length):g}s" for length, acc in swept if acc] == reported
    assert len(reported) == 9


def test_sweep_reads_na_at_lengths_longer_than_the_clips(tmp_path, capsys):
    # 2 s clips at the default 1..10 s lengths: the lengths past the clips
    # read n/a instead of ending the sweep with an error.
    corpus, runs = str(tmp_path / "corpus"), str(tmp_path / "runs")
    assert main(["synth", "--per-class", "2", "--seed", "1", "--seconds", "2",
                 "--out", corpus]) == 0
    assert main(["train", "--manifest", os.path.join(corpus, "manifest.csv"), "--out", runs,
                 "--epochs", "1", "--batch-size", "8", "--crop-s", "1.2",
                 "--splits", "8,2,2"]) == 0
    capsys.readouterr()
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--checkpoint", os.path.join(runs, "run0", "model.ckpt"),
                 "--manifest", os.path.join(runs, "manifest.csv"), "--split", "",
                 "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("2.0 s" in ln and "%" in ln for ln in lines)
    for s in range(3, 11):
        assert any(f"{s:4.1f} s  n/a (clips too short)" in ln for ln in lines), s
    with open(out, newline="") as fh:
        swept = list(csv.reader(fh))[1:]
    assert [length for length, acc in swept if acc] == ["2.0"]
    assert len(swept) == 10


def test_infer_labels_a_clip(trained, capsys):
    row = read_manifest(trained["manifest"])[0]
    wav = os.path.join(os.path.dirname(trained["manifest"]), row.path)
    assert main(["infer", "--checkpoint", trained["ckpt"], "--wav", wav]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(": ")[1] in GESTURES
    assert len(lines) == 7  # prediction + one probability line per class


def test_missing_input_files_exit_1_with_one_line(trained, tmp_path, capsys):
    missing = str(tmp_path / "nope")
    for argv in (
        ["infer", "--checkpoint", trained["ckpt"], "--wav", missing + ".wav"],
        ["eval", "--checkpoint", missing + ".ckpt", "--manifest", trained["manifest"]],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["synth", "train", "featurize", "analyze"])
def test_unwritable_output_exits_1_with_one_line(tiny_corpus, tmp_path, capsys, command):
    taken = tmp_path / "taken"  # a file where a directory is to be made
    taken.write_bytes(b"")
    missing = str(tmp_path / "missing" / "out")  # in a directory that does not exist
    wav = os.path.join(os.path.dirname(tiny_corpus), read_manifest(tiny_corpus)[0].path)
    argv = {
        "synth": ["synth", "--per-class", "1", "--seconds", "2", "--out", str(taken)],
        "train": ["train", "--manifest", tiny_corpus, "--splits", "12,3,3", "--out", str(taken)],
        "featurize": ["featurize", "--wav", wav, "--out", missing + ".melf"],
        "analyze": ["analyze", "--out", missing + ".csv"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_infer_rejects_short_clip(trained, tmp_path, capsys):
    wav = str(tmp_path / "short.wav")
    dsp.save_wav(wav, np.zeros(8000, dtype=np.float32))  # 0.5 s
    assert main(["infer", "--checkpoint", trained["ckpt"], "--wav", wav]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "110" in err


@pytest.mark.parametrize("edit", [(b"task=gesture", b"task=gestuse"), (b"n_classes=6", b"n_classes=9")],
                         ids=["unknown-task", "too-many-classes"])
def test_infer_rejects_checkpoint_config_its_task_cannot_label(trained, tmp_path, capsys, edit):
    ckpt = str(tmp_path / "bad.ckpt")
    save_checkpoint(ckpt, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    with open(ckpt, "rb") as fh:
        data = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(data.replace(*edit, 1))  # the same length, so the blob length still holds
    row = read_manifest(trained["manifest"])[0]
    wav = os.path.join(os.path.dirname(trained["manifest"]), row.path)
    assert main(["infer", "--checkpoint", ckpt, "--wav", wav]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad config blob" in err and err.count("\n") == 1


def test_infer_rejects_checkpoint_with_wrong_mel_bins(trained, tmp_path, capsys):
    # A checkpoint declaring 32 bins cannot take the front end's 64: refused
    # on load, not by a numpy broadcast error in normalize.
    ckpt = str(tmp_path / "narrow.ckpt")
    save_checkpoint(ckpt, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    with open(ckpt, "rb") as fh:
        data = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(data.replace(b"n_mels=64", b"n_mels=32", 1))
    row = read_manifest(trained["manifest"])[0]
    wav = os.path.join(os.path.dirname(trained["manifest"]), row.path)
    assert main(["infer", "--checkpoint", ckpt, "--wav", wav]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad config blob" in err and err.count("\n") == 1


@pytest.mark.parametrize("name, value", [("feature_std", 0.0), ("branch3.bn1.running_var", -1.0)])
def test_infer_rejects_checkpoint_that_makes_every_prediction_nan(trained, tmp_path, capsys,
                                                                   name, value):
    # Finite, so the non-finite check passes it, but normalize divides by a
    # zero std and batch norm takes the root of a negative variance.
    ckpt = str(tmp_path / "unusable.ckpt")
    model = load_checkpoint(trained["ckpt"])
    model.buffers()[name][0] = value
    save_checkpoint(ckpt, model)
    row = read_manifest(trained["manifest"])[0]
    wav = os.path.join(os.path.dirname(trained["manifest"]), row.path)
    assert main(["infer", "--checkpoint", ckpt, "--wav", wav]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err and captured.err.count("\n") == 1


def test_eval_rejects_melf_with_non_finite_values(trained, tmp_path, capsys):
    # One NaN would give NaN logits, which argmax reads as class 0.
    melf = str(tmp_path / "nan.melf")
    feats = np.zeros((300, 64), dtype=np.float32)
    feats[150, 10] = np.nan
    dsp.save_melf(melf, feats)
    row = read_manifest(trained["manifest"])[0]
    manifest = str(tmp_path / "manifest.csv")
    write_manifest(manifest, [replace(row, path=melf, split="")])
    assert main(["eval", "--checkpoint", trained["ckpt"], "--manifest", manifest, "--split", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and err.count("\n") == 1


def test_eval_rejects_melf_with_wrong_mel_bins(trained, tmp_path, capsys):
    melf = str(tmp_path / "narrow.melf")
    dsp.save_melf(melf, np.zeros((300, 32), dtype=np.float32))
    row = read_manifest(trained["manifest"])[0]
    manifest = str(tmp_path / "manifest.csv")
    write_manifest(manifest, [replace(row, path=melf, split="")])
    assert main(["eval", "--checkpoint", trained["ckpt"], "--manifest", manifest, "--split", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "32 mel bins" in err and err.count("\n") == 1


def test_train_stops_on_non_finite_loss(tiny_corpus, tmp_path, capsys):
    # At 1e10 the loss stays finite, but batch variances overflow float32 in
    # the first step and leave running_var inf. At 1e20 the loss itself turns
    # NaN. Either way the run stops before it writes a checkpoint.
    for lr, message in (("1e10", "state ("), ("1e20", "loss (nan)")):
        out = str(tmp_path / f"diverged{lr}")
        with np.errstate(all="ignore"):  # the overflow on the way is the point
            rc = main([
                "train", "--manifest", tiny_corpus, "--task", "gesture",
                "--out", out, "--epochs", "2", "--batch-size", "8",
                "--crop-s", "1.2", "--splits", "12,3,3", "--seed", "3", "--lr", lr,
            ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: non-finite training {message}")
        assert not os.path.exists(os.path.join(out, "run0", "model.ckpt"))


def test_train_without_options_uses_the_train_settings_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_training", lambda manifest, settings: seen.append((manifest, settings)))
    assert main(["train", "--manifest", "m.csv"]) == 0
    assert seen == [("m.csv", TrainSettings())]


def test_train_options_map_to_train_settings_fields(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_training", lambda manifest, settings: seen.append(settings))
    assert main(["train", "--manifest", "m.csv", "--task", "arousal", "--out", "elsewhere",
                 "--seed", "4", "--epochs", "5", "--batch-size", "6", "--lr", "0.01",
                 "--crop-s", "2.5", "--splits", "1,2,3", "--by-participant", "--runs", "2"]) == 0
    want = TrainSettings(task="arousal", epochs=5, batch_size=6, lr=0.01, crop_s=2.5, seed=4,
                         runs=2, splits=(1, 2, 3), by_participant=True, out_dir="elsewhere")
    assert seen == [want]
    # Every field differs from its default, so each one has an option.
    default = TrainSettings()
    assert [f.name for f in fields(TrainSettings) if getattr(want, f.name) == getattr(default, f.name)] == []


def test_usage_errors_exit_2(trained, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["synth"])  # missing required --out
    assert e.value.code == 2
    ckpt = ["--checkpoint", trained["ckpt"], "--manifest", trained["manifest"], "--split", ""]
    # The last occurrence of an option wins, so each case overrides one
    # valid value (a valid train would stop after one epoch).
    train = ["train", "--manifest", trained["manifest"], "--out", str(tmp_path),
             "--splits", "12,3,3", "--epochs", "1"]
    synth = ["synth", "--per-class", "1", "--out", str(tmp_path / "synth")]
    for argv in (
        # Lengths in seconds must be positive and finite.
        ["eval", *ckpt, "--length", "abc"],
        ["eval", *ckpt, "--length", "nan"],
        ["eval", *ckpt, "--length", "inf"],
        ["eval", *ckpt, "--length", "0"],
        ["sweep", *ckpt, "--lengths", "1,x"],
        ["sweep", *ckpt, "--lengths", "2,-1"],
        [*train, "--crop-s", "nan"],
        # So must the learning rate.
        [*train, "--lr", "nan"],
        [*train, "--lr", "inf"],
        [*train, "--lr", "0"],
        [*train, "--lr", "-1"],
        # Counts must be at least 1, seeds and split counts non-negative.
        [*train, "--batch-size", "0"],
        [*train, "--batch-size", "-4"],
        [*train, "--epochs", "0"],
        [*train, "--runs", "0"],
        [*train, "--seed", "-1"],
        [*train, "--splits=-1,3,3"],
        [*train, "--splits", "abc"],
        [*synth, "--per-class", "0"],
        [*synth, "--seed", "-1"],
        [*synth, "--seconds", "-1"],
        [*synth, "--seconds", "nan"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
    capsys.readouterr()


def _train_help(capsys) -> str:
    with pytest.raises(SystemExit) as e:
        main(["train", "--help"])
    assert e.value.code == 0
    return " ".join(capsys.readouterr().out.split())  # argparse wraps the texts


def test_help_documents_defaults(capsys):
    # `train` leaves an option it was not given out of the namespace, so the
    # defaults live in TrainSettings and in data's per-family recipe tables
    # alone; each help text quotes them as they stand.
    text = _train_help(capsys)
    d = TrainSettings()
    for option, shown in (("--task {gesture,arousal,valence,aro_val}", d.task), ("--out OUT", d.out_dir),
                          ("--seed SEED", d.seed), ("--epochs EPOCHS", d.epochs),
                          ("--batch-size BATCH_SIZE", d.batch_size), ("--lr LR", f"{d.lr:g}"),
                          ("--runs RUNS", d.runs)):
        assert re.search(rf"\s{re.escape(option)} [^(]*\(default {shown}\)", text), option
    assert d.crop_s is None and d.splits is None
    assert "(default by task family: 6 gesture / 7 emotion)" in text
    assert "(default by task family: 366,42,84 gesture / 660,80,100 emotion)" in text


def test_help_follows_the_recipe_tables(monkeypatch, capsys):
    monkeypatch.setitem(DEFAULT_CROP_S, "emotion", 7.5)
    monkeypatch.setitem(DEFAULT_SPLITS, "gesture", (1, 2, 3))
    text = _train_help(capsys)
    assert "(default by task family: 6 gesture / 7.5 emotion)" in text
    assert "(default by task family: 1,2,3 gesture / 660,80,100 emotion)" in text
