"""Outside-in tracing: spans and counts recorded by wrapping public names.

Nothing under `src/` changes. The tracer replaces functions and methods on
the objects where callers look them up, and restores them on `uninstall`:

- class attributes (`Tensor.conv2d`, `Mtrcnn.forward`, `Adam.step`, ...)
  are looked up on the class, so patching the class reaches every call,
  `__slots__` notwithstanding;
- a function another module imported by name is patched in that module
  (`training.crop_frames`, `training.cross_entropy`, `model.concat`); the
  defining module's binding is never consulted by those callers;
- backward time per op comes from replacing the `_backward` closure of each
  output tensor with a timed wrapper, so the spans nest under
  `Tensor.backward`.

Each span is (name, start, end, parent span, run id). The run id is the
workload operation the span belongs to, or "setup".
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

CONV_TAGS = tuple(f"k{k}b{b}" for k in (3, 5, 7) for b in (1, 2, 3))
OP_KINDS = ("batch_norm", "relu", "avg_pool2d", "mean_pool", "matmul", "add", "concat",
            "dropout", "cross_entropy")
_TENSOR_OPS = {"batch_norm": "batch_norm", "relu": "relu", "avg_pool2d": "avg_pool2d",
               "mean_pool": "mean_pool", "matmul": "matmul", "__add__": "add",
               "dropout": "dropout"}
_CONV_WEIGHT = re.compile(r"branch(\d+)\.conv(\d+)\.weight$")


def _per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [
        ("dsp.load_wav_ms", "ms", "lower"),
        ("dsp.log_mel_ms", "ms", "lower"),
        ("model.load_checkpoint_ms", "ms", "lower"),
        ("model.normalize_ms", "ms", "lower"),
        ("model.forward_ms", "ms", "lower"),
        ("model.forward_clips_per_call", "count", "higher"),
    ]
    for way in ("fwd", "bwd"):
        for tag in CONV_TAGS:
            out.append((f"autograd.conv2d_{way}.{tag}_ms", "ms", "lower"))
            out.append((f"autograd.conv2d_{way}.{tag}_gmacs_per_s", "GMAC/s", "higher"))
    for op in OP_KINDS:
        out.append((f"autograd.{op}.fwd_ms", "ms", "lower"))
        out.append((f"autograd.{op}.bwd_ms", "ms", "lower"))
    out += [
        ("autograd.backward_self_ms", "ms", "lower"),
        ("autograd.graph_peak_mb", "MB", "lower"),
        ("autograd.conv2d.macs", "count", "lower"),
        ("autograd.conv2d.bytes_computed", "bytes", "lower"),
        ("analysis.conv2d.macs", "count", "lower"),
        ("optim.adam_step_ms", "ms", "lower"),
        ("data.crop_frames_ms", "ms", "lower"),
        ("training.evaluate_self_ms", "ms", "lower"),
        ("training.train_run_self_s", "s", "lower"),
        ("machine.gemm_gflops", "GFLOP/s", "higher"),
        ("trace.clips_per_s_delta", "1/s", "higher"),
    ]
    return out


PER_LAYER_METRICS = _per_layer_metrics()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self.run: object = "setup"
        self.counts: dict[str, float] = defaultdict(float)
        self._conv_tag: dict[int, tuple[str, int]] = {}   # id(weight) -> (tag, branch)
        self._branch_macs: dict[int, int] = defaultdict(int)
        self.mismatched_runs: set = set()
        self.graph_peak_mb: float | None = None
        self._tracemalloc_base: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _time_backward(self, out, name: str, on_run=None) -> None:
        inner = out._backward
        if inner is None:
            return

        def timed():
            if on_run is not None:
                on_run()
            self.call(name, inner)

        out._backward = timed

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda orig: lambda *a, **k: self.call(name, orig, *a, **k))

    def install(self) -> None:
        from touch_audition import analysis, dsp, optim, training
        from touch_audition import model as model_mod
        from touch_audition.autograd import Tensor

        self._analysis = analysis
        self._span(dsp, "load_wav", "dsp.load_wav")
        self._span(dsp, "log_mel_spectrogram", "dsp.log_mel")
        self._span(model_mod, "load_checkpoint", "model.load_checkpoint")
        self._span(model_mod.Mtrcnn, "normalize", "model.normalize")
        self._span(training, "crop_frames", "data.crop_frames")
        self._span(training, "evaluate", "training.evaluate")
        self._span(training, "featurize_rows", "training.featurize_rows")
        self._span(training, "train_run", "training.train_run")
        self._span(Tensor, "backward", "autograd.backward")
        self._patch(optim.Adam, "step", self._make_adam_step)
        self._patch(model_mod.Mtrcnn, "forward", self._make_forward)
        self._patch(Tensor, "conv2d", self._make_conv2d)
        for attr, op in _TENSOR_OPS.items():
            self._patch(Tensor, attr, functools.partial(self._make_op, op))
        self._patch(model_mod, "concat", functools.partial(self._make_op, "concat"))
        self._patch(training, "cross_entropy", functools.partial(self._make_op, "cross_entropy"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- wrappers -------------------------------------------------------------

    def _make_op(self, op: str, orig):
        def wrapper(*args, **kwargs):
            out = self.call(f"autograd.{op}.fwd", orig, *args, **kwargs)
            if not any(out is a for a in args):
                self._time_backward(out, f"autograd.{op}.bwd")
            return out
        return wrapper

    def _make_conv2d(self, orig):
        def conv2d(x, weight, bias, dilation=(1, 1)):
            tag, branch = self._conv_tag[id(weight)]
            out = self.call(f"autograd.conv2d_fwd.{tag}", orig, x, weight, bias, dilation)
            n, c, _, _ = x.data.shape
            o, _, kt, kf = weight.data.shape
            _, _, to, fo = out.data.shape
            macs = n * o * to * fo * c * kt * kf
            self.counts[f"macs.fwd.{tag}"] += macs
            self.counts["conv2d.bytes_computed"] += x.data.nbytes + weight.data.nbytes + out.data.nbytes
            self._branch_macs[branch] += macs
            grads = int(x.requires_grad) + int(weight.requires_grad)

            def count_bwd():
                self.counts[f"macs.bwd.{tag}"] += macs * grads
            self._time_backward(out, f"autograd.conv2d_bwd.{tag}", count_bwd)
            return out
        return conv2d

    def _make_forward(self, orig):
        from touch_audition.autograd import Tensor

        def forward(model, x, training=False, dropout_rng=None):
            self._conv_tag = {}
            for name, p in model.parameters().items():
                m = _CONV_WEIGHT.match(name)
                if m:
                    self._conv_tag[id(p)] = (f"k{m.group(1)}b{m.group(2)}", int(m.group(1)))
            if training and self.graph_peak_mb is None and self._tracemalloc_base is None:
                tracemalloc.start()
                self._tracemalloc_base = tracemalloc.get_traced_memory()[0]
            self._branch_macs.clear()
            out = self.call("model.forward", orig, model, x, training, dropout_rng)
            n, _, t, _ = (x.data if isinstance(x, Tensor) else np.asarray(x)).shape
            self.counts["forward.calls"] += 1
            self.counts["forward.clips"] += n
            self._reconcile(model.config, n, t)
            return out
        return forward

    def _make_adam_step(self, orig):
        def step(opt):
            out = self.call("optim.adam_step", orig, opt)
            if self._tracemalloc_base is not None and self.graph_peak_mb is None:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.graph_peak_mb = (peak - self._tracemalloc_base) / 2**20
            return out
        return step

    def _reconcile(self, config, n: int, t: int) -> None:
        """Per-branch conv MACs seen live against `analysis.count_flops`."""
        static = self._analysis.count_flops(config, t)
        embed = config.filters[-1] * config.embed_dim
        for k in config.kernel_sizes:
            expected = (static[f"branch{k}"] - embed) * n
            self.counts["analysis.conv2d.macs"] += expected
            if self._branch_macs.get(k) != expected:
                self.mismatched_runs.add(self.run)

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def per_layer(self, runs: list, machine_gflops: float, cps_delta: float) -> dict[str, float]:
        """Per-layer metrics over the traced operations `runs`.

        `cps_delta` is the traced minus the untraced phase's `clips_per_s`.
        """
        own = self.self_times()
        per_run: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        inclusive: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, list[float]] = defaultdict(list)
        for s, self_s in zip(self.spans, own):
            per_run[s[0]][s[4]] += self_s
            inclusive[s[0]][s[4]] += s[2] - s[1]
            calls[s[0]].append(s[2] - s[1])

        def per_op(name: str, scale: float = 1e3, times=per_run) -> float:
            """Median over operations of the span's summed (self) time."""
            return statistics.median(times[name].get(r, 0.0) for r in runs) * scale

        def per_call_ms(name: str) -> float:
            return statistics.median(calls[name]) * 1e3 if calls[name] else 0.0

        n_ops = len(runs)
        fwd_calls = self.counts["forward.calls"]
        m: dict[str, float] = {
            "dsp.load_wav_ms": per_call_ms("dsp.load_wav"),
            "dsp.log_mel_ms": per_call_ms("dsp.log_mel"),
            "model.load_checkpoint_ms": per_call_ms("model.load_checkpoint"),
            "model.normalize_ms": per_op("model.normalize"),
            "model.forward_ms": per_op("model.forward", times=inclusive),
            "model.forward_clips_per_call": (self.counts["forward.clips"] / fwd_calls
                                             if fwd_calls else 0.0),
        }
        for way in ("fwd", "bwd"):
            for tag in CONV_TAGS:
                name = f"autograd.conv2d_{way}.{tag}"
                busy = sum(per_run[name].values())
                m[f"{name}_ms"] = per_op(name)
                macs = self.counts[f"macs.{way}.{tag}"]
                m[f"{name}_gmacs_per_s"] = macs / busy / 1e9 if busy else 0.0
        for op in OP_KINDS:
            m[f"autograd.{op}.fwd_ms"] = per_op(f"autograd.{op}.fwd")
            m[f"autograd.{op}.bwd_ms"] = per_op(f"autograd.{op}.bwd")
        fwd_macs = sum(self.counts[f"macs.fwd.{tag}"] for tag in CONV_TAGS)
        m.update({
            "autograd.backward_self_ms": per_op("autograd.backward"),
            "autograd.graph_peak_mb": self.graph_peak_mb or 0.0,
            "autograd.conv2d.macs": fwd_macs / n_ops,
            "autograd.conv2d.bytes_computed": self.counts["conv2d.bytes_computed"] / n_ops,
            "analysis.conv2d.macs": self.counts["analysis.conv2d.macs"] / n_ops,
            "optim.adam_step_ms": per_call_ms("optim.adam_step"),
            "data.crop_frames_ms": (sum(per_run["data.crop_frames"].get(r, 0.0) for r in runs)
                                    / fwd_calls * 1e3 if fwd_calls else 0.0),
            "training.evaluate_self_ms": per_op("training.evaluate"),
            "training.train_run_self_s": per_op("training.train_run", scale=1.0),
            "machine.gemm_gflops": machine_gflops,
            "trace.clips_per_s_delta": cps_delta,
        })
        return m

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans}, fh)


def gemm_gflops(n: int = 2048, reps: int = 5) -> float:
    """float32 GEMM peak, best of `reps`, under the process's BLAS setting."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=c)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9
