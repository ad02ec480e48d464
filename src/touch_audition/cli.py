"""Command-line interface.

Subcommands: synth, featurize, train, eval, sweep, analyze, infer.
Usage errors exit with code 2 (argparse); domain errors (bad audio, short
input, malformed manifests/checkpoints) and file errors (an output path that
cannot be written) print one line to stderr and exit 1.
Lengths in seconds (--length, --lengths, --crop-s, --seconds) and --lr must
be positive and finite, counts (--epochs, --batch-size, --runs, --per-class) at
least 1, seeds and --splits counts non-negative integers; anything else is a
usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import dsp
from .analysis import build_report
from .data import (
    DEFAULT_CROP_S,
    DEFAULT_SPLITS,
    LENGTH_GRID_S,
    TASK_CLASSES,
    class_index,
    read_manifest,
    resolve_path,
    rows_for_task,
    task_family,
    write_csv,
    write_manifest,
)
from .errors import ManifestError, TouchAuditionError
from .model import ModelConfig, load_checkpoint
from .synth import synth_corpus
from .training import (
    TrainSettings,
    evaluate,
    featurize_rows,
    length_sweep,
    run_training,
    save_confusion_csv,
)


def _add_task(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=TASK_CLASSES, default="gesture", help="classification task")


def cmd_synth(args: argparse.Namespace) -> int:
    family = task_family(args.task)
    manifest = synth_corpus(args.out, family, args.per_class, args.seed, args.seconds)
    rows = read_manifest(manifest)
    print(f"wrote {len(rows)} clips ({family} family) and {manifest}")
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    if bool(args.wav) == bool(args.manifest):
        raise ManifestError("featurize needs exactly one of --wav or --manifest")
    if args.wav:
        feats = dsp.log_mel_spectrogram(dsp.load_wav(args.wav))
        dsp.save_melf(args.out, feats)
        print(f"{args.wav}: {feats.shape[0]} frames x {feats.shape[1]} mel bins -> {args.out}")
        return 0
    rows = read_manifest(args.manifest)
    sources = [resolve_path(args.manifest, row) for row in rows]
    stems = [os.path.splitext(os.path.basename(row.path))[0] + ".melf" for row in rows]
    # Outputs are named after the clip's basename: refuse two different
    # clips that would silently share one file.
    owner: dict[str, str] = {}
    for src, stem in zip(sources, stems):
        src = os.path.abspath(src)
        if owner.setdefault(stem, src) != src:
            raise ManifestError(f"{owner[stem]} and {src} would both be featurized to {stem}")
    os.makedirs(args.out, exist_ok=True)
    new_rows = []
    for row, src, stem in zip(rows, sources, stems):
        dsp.save_melf(os.path.join(args.out, stem), dsp.log_mel_spectrogram(dsp.load_wav(src)))
        new_rows.append(replace(row, path=stem))
    out_manifest = os.path.join(args.out, "manifest.csv")
    write_manifest(out_manifest, new_rows)
    print(f"featurized {len(rows)} clips -> {args.out} (manifest: {out_manifest})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    # Only the options given are in args; TrainSettings holds the defaults.
    given = {f.name: getattr(args, f.name) for f in fields(TrainSettings) if hasattr(args, f.name)}
    run_training(args.manifest, TrainSettings(**given))
    return 0


def _load_eval_set(args: argparse.Namespace):
    """The checkpoint's model, its class names, and the features and labels
    of the manifest rows of its task in the chosen split ('' = all)."""
    model = load_checkpoint(args.checkpoint)
    task = model.config.task
    rows = rows_for_task(read_manifest(args.manifest), task)
    if args.split:
        rows = [r for r in rows if r.split == args.split]
    if not rows:
        raise ManifestError(f"no rows for task {task!r} with split {args.split!r}")
    feats = featurize_rows(args.manifest, rows)
    labels = np.array([class_index(r, task) for r in rows], dtype=np.int64)
    return model, TASK_CLASSES[task], feats, labels


def cmd_eval(args: argparse.Namespace) -> int:
    model, classes, feats, labels = _load_eval_set(args)
    res = evaluate(model, feats, labels, length_s=args.length)
    shown = "full clips" if args.length is None else f"{args.length:g} s center crops"
    print(f"{model.config.task}: accuracy {res.accuracy * 100:.2f} % on {res.n} clips ({shown})")
    recalls = res.confusion.diagonal() / np.maximum(res.confusion.sum(axis=1), 1)
    for name, recall in zip(classes, recalls):
        print(f"  {name}: {recall * 100:.1f} %")
    if args.out:
        save_confusion_csv(args.out, res.confusion, classes)
        print(f"confusion matrix -> {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    model, _, feats, labels = _load_eval_set(args)
    results = length_sweep(model, feats, labels, lengths_s=args.lengths)
    print(f"{model.config.task}: accuracy by evaluation length ({len(feats)} clips)")
    for length, acc in results:
        shown = "n/a (clips too short)" if acc is None else f"{acc * 100:6.2f} %"
        print(f"  {length:4.1f} s  {shown}")
    if args.out:
        write_csv(args.out, ["length_s", "accuracy"],
                  ([length, "" if acc is None else f"{acc:.6f}"] for length, acc in results))
        print(f"sweep table -> {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    report = build_report(ModelConfig(task=args.task))
    print(report.format_text())
    if args.out:
        report.to_csv(args.out)
        print(f"report -> {args.out}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    classes = TASK_CLASSES[model.config.task]
    feats = dsp.log_mel_spectrogram(dsp.load_wav(args.wav))
    x = model.normalize(feats[None, None, :, :])
    pred, probs = model.predict(x)
    print(f"{args.wav}: {classes[pred[0]]}")
    order = np.argsort(probs[0])[::-1]
    for i in order:
        print(f"  {classes[i]}: {probs[0][i]:.3f}")
    return 0


def _positive(text: str) -> float:
    """argparse type for a length in seconds or a learning rate: a positive,
    finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive, finite number, got {text!r}")
    return value


def _length_or_full(text: str) -> float | None:
    return None if text == "full" else _positive(text)


def _length_list(text: str) -> tuple[float, ...]:
    return tuple(_positive(s) for s in text.split(","))


def _count(text: str, lowest: int = 1) -> int:
    """argparse type for a count: an integer no smaller than `lowest`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"expected an integer >= {lowest}, got {text!r}")
    return value


def _seed(text: str) -> int:
    return _count(text, lowest=0)


def _splits(text: str) -> tuple[int, int, int]:
    """argparse type for --splits: train,val,test clip counts, each >= 0."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected train,val,test counts, got {text!r}")
    return tuple(_count(p, lowest=0) for p in parts)


def _join(counts: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in counts)


def _per_family(table: dict, show) -> str:
    """A per-family recipe default as help text, 'default by task family:
    6 gesture / 7 emotion', each value as `show` writes it."""
    return "default by task family: " + " / ".join(f"{show(v)} {family}" for family, v in table.items())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="touch-audition",
        description="Sound-based touch gesture and emotion recognition toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    _add_task(p)
    p.add_argument("--per-class", type=_count, default=20, help="clips per class (default 20)")
    p.add_argument("--seed", type=_seed, default=0, help="corpus seed (default 0)")
    p.add_argument("--seconds", type=_positive, default=10.0, help="clip length (default 10.0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="compute log-mel features (.melf)")
    p.add_argument("--wav", help="single WAV input")
    p.add_argument("--manifest", help="featurize every clip in a manifest")
    p.add_argument("--out", required=True, help=".melf path (--wav) or directory (--manifest)")
    p.set_defaults(func=cmd_featurize)

    # Options left out are left out of the namespace, so the defaults come
    # from TrainSettings and data's per-family recipe tables; the help texts
    # are built from them.
    d = TrainSettings()
    p = sub.add_parser("train", help="train one or more runs", argument_default=argparse.SUPPRESS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--task", choices=TASK_CLASSES, help=f"classification task (default {d.task})")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help=f"output directory (default {d.out_dir})")
    p.add_argument("--seed", type=_seed, help=f"master seed (default {d.seed})")
    p.add_argument("--epochs", type=_count, help=f"training epochs (default {d.epochs})")
    p.add_argument("--batch-size", type=_count, help=f"batch size (default {d.batch_size})")
    p.add_argument("--lr", type=_positive, help=f"Adam learning rate (default {d.lr:g})")
    p.add_argument("--crop-s", type=_positive,
                   help=f"training crop seconds ({_per_family(DEFAULT_CROP_S, lambda s: f'{s:g}')})")
    p.add_argument("--splits", type=_splits,
                   help=f"train,val,test totals ({_per_family(DEFAULT_SPLITS, _join)})")
    p.add_argument("--by-participant", action="store_true",
                   help="assign whole participants to a single split")
    p.add_argument("--runs", type=_count, help=f"independent runs (default {d.runs})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", help="split to evaluate (default test; '' = all)")
    p.add_argument("--length", type=_length_or_full, default=None,
                   help="evaluation length in seconds, or 'full' (default full clips)")
    p.add_argument("--out", default=None, help="write confusion matrix CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs. evaluation length")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", help="split to evaluate (default test)")
    # A tuple default skips `type`, so it reaches cmd_sweep as floats.
    p.add_argument("--lengths", type=_length_list, default=LENGTH_GRID_S,
                   help="comma-separated seconds (default 1..10)")
    p.add_argument("--out", default=None, help="write sweep CSV here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="static resource report (params, RF, MACs, budget)")
    _add_task(p)
    p.add_argument("--out", default=None, help="write report CSV here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("infer", help="classify a single WAV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.set_defaults(func=cmd_infer)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TouchAuditionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
