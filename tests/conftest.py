"""Shared test oracles: finite-difference gradient checks, a naive
convolution reference, a corrupt-file generator for parser fuzzing, an
impulse-dependency footprint probe, and a live MAC count."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from touch_audition.autograd import Tensor, no_grad
from touch_audition.model import ModelConfig, Mtrcnn


def numerical_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x (float64)."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_grads(build, arrays: dict[str, np.ndarray], tol: float = 1e-4) -> None:
    """Compare autograd gradients against finite differences.

    `build(tensors)` maps {name: Tensor} to a scalar Tensor. Every array is
    float64 and marked requires_grad.
    """
    tensors = {k: Tensor(v.astype(np.float64), requires_grad=True) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()
    for name, t in tensors.items():
        def f(x, _name=name):
            local = {
                k: Tensor(x if k == _name else v.data.copy(), requires_grad=False)
                for k, v in tensors.items()
            }
            return float(build(local).data)

        num = numerical_grad(f, arrays[name].astype(np.float64))
        ana = t.grad if t.grad is not None else np.zeros_like(num)
        err = rel_err(ana, num)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e} >= {tol}"


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation=(1, 1)) -> np.ndarray:
    """Reference dilated valid convolution with explicit loops."""
    rt, rf = dilation
    n, c, t, f = x.shape
    o, _, kt, kf = w.shape
    to = t - (kt - 1) * rt
    fo = f - (kf - 1) * rf
    out = np.zeros((n, o, to, fo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for ti in range(to):
                for fi in range(fo):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kt):
                            for j in range(kf):
                                acc += x[ni, ci, ti + i * rt, fi + j * rf] * w[oi, ci, i, j]
                    out[ni, oi, ti, fi] = acc + b[oi]
    return out


def kink_free_bn_input(rng, shape, mean, std) -> np.ndarray:
    """An (n, c, t, f) input, n even, for gradient checks through BN -> ReLU.

    Per channel, the values come in +/- pairs across the two batch halves,
    each 0.5..1.5 units of `std` from `mean`. Normalized by its batch
    statistics (or by `mean` and `std` themselves) every value stays well away
    from zero, so a small `beta` keeps the ReLU input off its kink.
    """
    n = shape[0]
    half = rng.uniform(0.5, 1.5, (n // 2, *shape[1:])) * rng.choice([-1.0, 1.0], (n // 2, *shape[1:]))
    units = np.concatenate([half, -half])
    return np.reshape(mean, (1, -1, 1, 1)) + np.reshape(std, (1, -1, 1, 1)) * units


def corrupted(valid: bytes, magic: bytes):
    """Byte strings from nothing like the format to one byte off a valid file."""
    at = st.integers(0, len(valid) - 1)
    return st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda tail: magic + tail),
        at.map(lambda k: valid[:k]),
        st.tuples(at, st.integers(0, 255)).map(lambda p: valid[: p[0]] + bytes([p[1]]) + valid[p[0] + 1 :]),
        st.binary(min_size=1, max_size=16).map(lambda tail: valid + tail),
    )


def dependency_footprint(chain: list[tuple], t_in: int, f_in: int = 16) -> int:
    """Time-axis input footprint of the first output element of a layer chain.

    chain items: ("conv", kernel_t, dilation_t) or ("pool",). Convs use
    all-ones weights on the time axis (kernel (k, 1)), so the gradient from
    the first output element is strictly positive exactly on the dependency
    cone; its time extent is the exact receptive field.
    """
    x = Tensor(np.zeros((1, 1, t_in, f_in), dtype=np.float64), requires_grad=True)
    h = x
    for item in chain:
        if item[0] == "conv":
            _, k, r = item
            w = Tensor(np.ones((1, 1, k, 1), dtype=np.float64))
            bias = Tensor(np.zeros(1, dtype=np.float64))
            h = h.conv2d(w, bias, (r, 1))
        elif item[0] == "pool":
            h = h.avg_pool2d()
        else:
            raise ValueError(item)
    mask = np.zeros_like(h.data)
    mask[0, 0, 0, 0] = 1.0
    (h * Tensor(mask)).sum().backward()
    touched = np.nonzero(np.abs(x.grad[0, 0]).sum(axis=1) > 0)[0]
    assert touched.size > 0
    return int(touched.max() - touched.min() + 1)


def live_mac_count(cfg: ModelConfig, t: int) -> int:
    """Brute-force cost oracle: run the real layers and count one MAC per
    output element per kernel tap, straight from the produced array shapes."""
    model = Mtrcnn(cfg, np.random.default_rng(0))
    x = np.zeros((1, 1, t, cfg.n_mels), dtype=np.float32)
    macs = 0
    with no_grad():
        for branch in model.branches:
            h = Tensor(x)
            for conv, bn in zip(branch.convs, branch.bns):
                h = conv(h)
                _, c, kt, kf = conv.weight.data.shape
                macs += h.data.size * c * kt * kf
                h = bn(h, training=False).relu().avg_pool2d()
            h = branch.embed(h.mean_pool())
            macs += branch.embed.weight.data.size
        macs += model.fusion.weight.data.size
        macs += model.head.weight.data.size
    return macs


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small gesture corpus for fast unit tests: 3 clips per class."""
    from touch_audition.synth import synth_corpus

    out = tmp_path_factory.mktemp("tiny_corpus")
    manifest = synth_corpus(str(out), "gesture", per_class=3, seed=11)
    return manifest


@pytest.fixture(scope="session")
def gesture_corpus(tmp_path_factory):
    """Acceptance-scale gesture corpus: 20 clips per class, fixed seed."""
    from touch_audition.synth import synth_corpus

    out = tmp_path_factory.mktemp("gesture_corpus")
    manifest = synth_corpus(str(out), "gesture", per_class=20, seed=7)
    return manifest
