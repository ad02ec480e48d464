"""Smoke test of tools/golden_run.py: every command of the golden run exits 0
and gets a hash line. The hashes depend on the BLAS build, so none is pinned."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "golden_run.py")


def test_golden_run_with_a_relative_pythonpath():
    spec = importlib.util.spec_from_file_location("golden_run", TOOL)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    # The commands run in a temporary directory, so a relative entry must be
    # resolved against the directory the tool starts in.
    proc = subprocess.run([sys.executable, TOOL], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", ln) for ln in lines), lines
    names = [ln.split("  ", 1)[1] for ln in lines]
    assert [n for n in names if n.startswith("stdout:")] == [
        f"stdout:{name}" for name, _ in golden.COMMANDS]
    assert "runs/run0/model.ckpt" in names
