"""End-to-end CLI coverage: every subcommand through main(argv), plus the
error-exit contract (usage errors 2, domain errors 1 with a one-line stderr)."""

from __future__ import annotations

import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from touch_audition import dsp
from touch_audition.cli import main
from touch_audition.data import GESTURES, read_manifest, write_manifest


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


def test_sweep_marks_below_minimum(trained, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--checkpoint", trained["ckpt"],
               "--manifest", trained["manifest"], "--split", "",
               "--lengths", "1,2", "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("1.0 s" in ln and "n/a (below minimum length)" in ln for ln in lines)
    assert any("2.0 s" in ln and "%" in ln for ln in lines)
    with open(out) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "length_s,accuracy"
    assert rows[1] == "1.0,"


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


def test_infer_rejects_short_clip(trained, tmp_path, capsys):
    wav = str(tmp_path / "short.wav")
    dsp.save_wav(wav, np.zeros(8000, dtype=np.float32))  # 0.5 s
    assert main(["infer", "--checkpoint", trained["ckpt"], "--wav", wav]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "110" in err


def test_train_stops_on_non_finite_loss(tiny_corpus, tmp_path, capsys):
    out = str(tmp_path / "diverged")
    with np.errstate(all="ignore"):  # the overflow on the way to NaN is the point
        rc = main([
            "train", "--manifest", tiny_corpus, "--task", "gesture",
            "--out", out, "--epochs", "2", "--batch-size", "8",
            "--crop-s", "1.2", "--splits", "12,3,3", "--seed", "3", "--lr", "1e10",
        ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite training loss")
    assert not os.path.exists(os.path.join(out, "run0", "model.ckpt"))


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


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as e:
        main(["train", "--help"])
    assert e.value.code == 0
    text = capsys.readouterr().out
    assert "default 32" in text and "default 1e-3" in text
