"""Independent float64 reference forward pass of the MTRCNN, in plain numpy.

It shares no code with the package's autograd engine: convolution is a
sliding-window view contracted with `tensordot`, one time tap at a time so
the temporaries stay small; batch norm is the eval-mode affine; then ReLU,
2x2 average pooling with floor semantics, global average pooling and the
dense layers. Only the checkpointed tensors are read from the model, by
their registry names.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: tuple[int, int]) -> np.ndarray:
    """Valid stride-1 dilated convolution of x (c, t, f) with w (o, c, kt, kf)."""
    rt, rf = dilation
    _, t, f = x.shape
    o, _, kt, kf = w.shape
    to = t - (kt - 1) * rt
    fo = f - (kf - 1) * rf
    # (c, t, fo, kf): every dilated frequency window of every frame.
    win = sliding_window_view(x, (kf - 1) * rf + 1, axis=2)[..., ::rf]
    out = np.zeros((o, to, fo))
    for i in range(kt):
        out += np.tensordot(w[:, :, i, :], win[:, i * rt : i * rt + to], axes=([1, 2], [0, 3]))
    return out + b[:, None, None]


def avg_pool2x2(x: np.ndarray) -> np.ndarray:
    c, t, f = x.shape
    x = x[:, : t // 2 * 2, : f // 2 * 2]
    return x.reshape(c, t // 2, 2, f // 2, 2).mean(axis=(2, 4))


def reference_probs(model, features: np.ndarray) -> np.ndarray:
    """Class probabilities (1, K) for one normalized (T, F) clip, in float64."""
    tensors = {name: np.asarray(p.data, dtype=np.float64) for name, p in model.parameters().items()}
    tensors.update({name: np.asarray(b, dtype=np.float64) for name, b in model.buffers().items()})
    cfg = model.config
    x = np.asarray(features, dtype=np.float64)[None]
    embeddings = []
    for k in cfg.kernel_sizes:
        h = x
        for block, dilation in enumerate(cfg.dilations, start=1):
            conv, bn = f"branch{k}.conv{block}", f"branch{k}.bn{block}"
            h = conv2d(h, tensors[f"{conv}.weight"], tensors[f"{conv}.bias"], dilation)
            scale = tensors[f"{bn}.gamma"] / np.sqrt(tensors[f"{bn}.running_var"] + BN_EPS)
            shift = tensors[f"{bn}.beta"] - tensors[f"{bn}.running_mean"] * scale
            h = np.maximum(h * scale[:, None, None] + shift[:, None, None], 0.0)
            h = avg_pool2x2(h)
        gap = h.mean(axis=(1, 2))
        embeddings.append(np.maximum(gap @ tensors[f"branch{k}.embed.weight"]
                                     + tensors[f"branch{k}.embed.bias"], 0.0))
    h = np.maximum(np.concatenate(embeddings) @ tensors["fusion.weight"] + tensors["fusion.bias"], 0.0)
    logits = h @ tensors["head.weight"] + tensors["head.bias"]
    e = np.exp(logits - logits.max())
    return (e / e.sum())[None]
