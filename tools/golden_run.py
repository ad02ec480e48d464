"""The golden run: a seeded end-to-end sequence whose bytes a refactor must keep.

    python tools/golden_run.py
    PYTHONPATH=<other checkout>/src python tools/golden_run.py

Runs every subcommand (synth, train, eval, sweep, infer, featurize, eval on
the .melf manifest, analyze) on a gesture corpus, then synth, train and eval
of the aro_val task on an emotion corpus, as `python -m touch_audition.cli`
subprocesses in a temporary directory with OPENBLAS_NUM_THREADS=1, then
prints `sha256  name` for each command's stdout (`stdout:<command>`, with
the train commands' per-epoch `(N.Ns)` timings taken out) and for every
file the commands wrote. Two checkouts that print the same lines wrote the same bytes.
The package is imported from PYTHONPATH when it is set (a relative entry
is taken from the directory the tool is started in), else from this
checkout's src/.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CKPT = "runs/run0/model.ckpt"
COMMANDS = (
    ("synth", "synth --per-class 6 --seed 5 --seconds 4 --out corpus"),
    ("train", "train --manifest corpus/manifest.csv --out runs --seed 7 --epochs 3 "
              "--batch-size 8 --crop-s 2 --splits 18,9,9"),
    ("eval", f"eval --checkpoint {CKPT} --manifest runs/manifest.csv --length full --out eval.csv"),
    ("sweep", f"sweep --checkpoint {CKPT} --manifest runs/manifest.csv --lengths 1,2,3,4 "
              "--out sweep.csv"),
    ("infer", f"infer --checkpoint {CKPT} --wav corpus/tap_003.wav"),
    ("featurize", "featurize --manifest runs/manifest.csv --out feats"),
    ("eval_melf", f"eval --checkpoint {CKPT} --manifest feats/manifest.csv --length full "
                  "--out eval_melf.csv"),
    ("analyze", "analyze --out analyze.csv"),
    ("synth_emotion", "synth --task aro_val --per-class 3 --seed 6 --seconds 3 --out emo"),
    ("train_emotion", "train --manifest emo/manifest.csv --task aro_val --out emo_runs --seed 8 "
                      "--epochs 1 --batch-size 5 --crop-s 2 --splits 10,10,10"),
    ("eval_emotion", "eval --checkpoint emo_runs/run0/model.ckpt --manifest emo_runs/manifest.csv "
                     "--length full --out eval_emotion.csv"),
)
TIMING = re.compile(rb" *\(\d+\.\ds\)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    path = os.pathsep.join(map(os.path.abspath, path.split(os.pathsep))) if path else SRC
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    with tempfile.TemporaryDirectory(prefix="golden-run-") as work:
        for name, args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "touch_audition.cli", *args.split()],
                                  cwd=work, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.buffer.write(proc.stderr)
                print(f"golden_run: {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            stdout = TIMING.sub(b"", proc.stdout) if name.startswith("train") else proc.stdout
            print(f"{sha256(stdout)}  stdout:{name}")
        written = sorted(
            os.path.relpath(os.path.join(root, f), work) for root, _, files in os.walk(work) for f in files
        )
        for rel in written:
            with open(os.path.join(work, rel), "rb") as fh:
                print(f"{sha256(fh.read())}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
