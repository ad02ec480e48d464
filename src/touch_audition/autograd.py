"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus a gradient slot and a backward closure; ops
build the graph eagerly and `backward()` runs the closures in reverse
topological order. Only the ops this model needs are implemented: broadcast
add/mul, matmul, relu, reshape, sum, dilated valid conv2d, 2x2 average
pooling, global average pooling, batch norm, the fused conv-block tail
(batch norm -> ReLU -> 2x2 average pooling, `bn_relu_pool`), dropout,
concat, and softmax cross-entropy.

Closures treat `out.grad` as read-only: a gradient handed to `_accumulate`
may be stored as is, so the same array can be another node's gradient too.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

# Grad mode is per thread (each thread starts in a fresh context), so a
# `no_grad` block in one worker cannot switch graph building off in another.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / eval)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _sum_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# Frames per forward tile: conv2d's output frames and bn_relu_pool's pooled
# frames. Short enough that a tile's channels-first lowering, its (o, rows)
# accumulator and the tail's rectified rows stay in cache, long enough that
# each GEMM keeps BLAS busy. On a 10 s clip with one BLAS thread, the nine
# conv forwards took about as long with tiles of 32 and 64 frames, and
# longer with 16 (+45 %) or 128 (+13 %); 32 keeps the buffers small.
_TILE_FRAMES = 32


def _lower_freq_taps(x: np.ndarray, kf: int, rf: int, out: np.ndarray) -> np.ndarray:
    """Lower a channels-first span of frames x (c, T, f) into out[:, :, :T].

    out is (kf, c, T', fo), T' >= T, fo = f - (kf-1)*rf, and becomes
    out[j, ch, u, v] = x[ch, u, v + j*rf]: kf copies of contiguous frequency
    runs. Returns Y^T (kf*c, T'*fo), rows in the weights' (kf, c) order;
    time is the outer column axis, so the columns of one time tap, shifted
    i*rt frames, are the contiguous column block from i*rt*fo.
    """
    fo = out.shape[3]
    for j in range(kf):
        out[j, :, : x.shape[1]] = x[:, :, j * rf : j * rf + fo]
    return out.reshape(kf * x.shape[0], -1)


def _channel(v: np.ndarray) -> np.ndarray:
    """A per-channel vector shaped to broadcast over (n, c, t, f)."""
    return v.reshape(1, -1, 1, 1)


def _bn_stats(x, running_mean, running_var, training: bool, momentum: float):
    """Per-channel (mean, var) to normalize with.

    Training mode takes biased batch statistics and blends them into the
    running buffers in place; eval mode returns copies of the buffers, so a
    later update cannot change what a pending backward recomputes.
    """
    if not training:
        return running_mean.copy(), running_var.copy()
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var
    return mu, var


def _bn_fold(gamma, beta, mu, var, eps: float):
    """Fold normalization and affine into per-channel (inv_std, scale, shift),
    so that gamma * (x - mu) * inv_std + beta == x * scale + shift."""
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    return inv_std, scale, beta - mu * scale


def _bn_affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, out=None) -> np.ndarray:
    """x * scale + shift per channel, built in `out` or one new buffer."""
    h = np.multiply(x, _channel(scale), out=out)
    h += _channel(shift)
    return h


def _bn_backward(g: np.ndarray, xhat: np.ndarray, scale: np.ndarray, training: bool):
    """Batch-norm gradients from the output gradient `g` (read only).

    Returns (d input, d gamma, d beta). The input gradient is built in
    `xhat`'s buffer, which is overwritten: in training mode it is
    scale * (g - mean(g) - xhat * mean(g * xhat)), in eval mode scale * g.
    """
    n, c = g.shape[:2]
    gbeta = g.reshape(n, c, -1).sum(axis=2).sum(axis=0)
    ggamma = np.einsum("nck,nck->c", g.reshape(n, c, -1), xhat.reshape(n, c, -1))
    if training:
        m = g.size // c
        xhat *= _channel(-ggamma / m)
        xhat += g
        xhat -= _channel(gbeta / m)
        xhat *= _channel(scale)
    else:
        np.multiply(g, _channel(scale), out=xhat)
    return xhat, ggamma, gbeta


def _bn_accumulate(*pairs: tuple["Tensor", np.ndarray]) -> None:
    """Hand each (tensor, gradient) pair's gradient over if the tensor wants one."""
    for t, grad in pairs:
        if t.requires_grad:
            t._accumulate(grad)


def _pooled_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """(n, c, t // 2, f // 2): 2x2 pooling drops an odd trailing row or
    column (floor semantics) and needs both spatial dims >= 2."""
    t2, f2 = shape[2] // 2, shape[3] // 2
    if t2 < 1 or f2 < 1:
        raise ValueError(f"avg_pool2d needs both spatial dims >= 2, got input shape {shape}")
    return (*shape[:2], t2, f2)


def _pool2x2(x: np.ndarray, out=None) -> np.ndarray:
    """2x2 average pooling, stride 2, over the last two axes, into `out` or
    one new buffer of `_pooled_shape(x.shape)`."""
    t2, f2 = _pooled_shape(x.shape)[2:]
    out = np.add(x[:, :, 0 : t2 * 2 : 2, 0 : f2 * 2 : 2], x[:, :, 1 : t2 * 2 : 2, 0 : f2 * 2 : 2],
                 out=out)
    out += x[:, :, 0 : t2 * 2 : 2, 1 : f2 * 2 : 2]
    out += x[:, :, 1 : t2 * 2 : 2, 1 : f2 * 2 : 2]
    out *= 0.25
    return out


def _unpool2x2(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Backward of `_pool2x2`: a new `shape` buffer with grad * 0.25 in each
    window's four cells and zeros in a dropped odd row or column."""
    t2, f2 = grad.shape[2], grad.shape[3]
    g = np.empty(shape, dtype=grad.dtype)
    spread = grad * 0.25
    g[:, :, 0 : t2 * 2 : 2, 0 : f2 * 2 : 2] = spread
    g[:, :, 1 : t2 * 2 : 2, 0 : f2 * 2 : 2] = spread
    g[:, :, 0 : t2 * 2 : 2, 1 : f2 * 2 : 2] = spread
    g[:, :, 1 : t2 * 2 : 2, 1 : f2 * 2 : 2] = spread
    g[:, :, t2 * 2 :] = 0
    g[:, :, :, f2 * 2 :] = 0
    return g


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        # The first gradient is stored as given, later ones are added out of
        # place: `grad` may also be another node's gradient (`__add__` hands
        # the same array to both parents; `reshape` and `concat` pass views).
        grad = grad.astype(self.data.dtype, copy=False)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                # The graph is consumed as it runs. An interior node's grad is
                # fully used by its own closure, and dropping the closure and
                # parent links matters beyond the grads themselves: each
                # closure captures its output tensor, a reference cycle that
                # would otherwise park every step's activations until the
                # cycle collector got around to them. Leaf tensors (parameters,
                # inputs) have no closure and keep their grads.
                node._backward = None
                node.grad = None
                node._parents = ()

    # -- graph helpers -----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        track = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._parents = parents
        return out

    # -- ops ---------------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        out = Tensor._make(self.data + other.data, (self, other))
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_sum_to(out.grad, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_sum_to(out.grad, other.data.shape))
            out._backward = _backward
        return out

    def __mul__(self, other: "Tensor") -> "Tensor":
        out = Tensor._make(self.data * other.data, (self, other))
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_sum_to(out.grad * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_sum_to(out.grad * self.data, other.data.shape))
            out._backward = _backward
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        out = Tensor._make(self.data @ other.data, (self, other))
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad @ other.data.T)
                if other.requires_grad:
                    other._accumulate(self.data.T @ out.grad)
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor._make(np.maximum(self.data, 0), (self,))
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * (self.data > 0))
            out._backward = _backward
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor._make(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad.reshape(self.data.shape))
            out._backward = _backward
        return out

    def sum(self) -> "Tensor":
        """Sum to a scalar (used by gradient checks)."""
        out = Tensor._make(np.asarray(self.data.sum()), (self,))
        if out.requires_grad:
            def _backward():
                self._accumulate(np.broadcast_to(out.grad, self.data.shape).copy())
            out._backward = _backward
        return out

    def mean_pool(self) -> "Tensor":
        """Global average pool over the two spatial axes: (n,c,t,f) -> (n,c)."""
        n, c, t, f = self.data.shape
        out = Tensor._make(self.data.mean(axis=(2, 3)), (self,))
        if out.requires_grad:
            def _backward():
                g = out.grad[:, :, None, None] / (t * f)
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
            out._backward = _backward
        return out

    def avg_pool2d(self) -> "Tensor":
        """2x2 average pooling, stride 2, floor semantics on odd sizes."""
        out = Tensor._make(_pool2x2(self.data), (self,))
        if out.requires_grad:
            def _backward():
                self._accumulate(_unpool2x2(out.grad, self.data.shape))
            out._backward = _backward
        return out

    def conv2d(self, weight: "Tensor", bias: "Tensor", dilation: tuple[int, int] = (1, 1)) -> "Tensor":
        """Valid (unpadded) stride-1 2-D convolution with dilation.

        self: (n, c, t, f); weight: (o, c, kt, kf); bias: (o,).
        Output: (n, o, t - (kt-1)*rt, f - (kf-1)*rf).

        Both passes work one sample at a time on one channels-first lowering
        of its frequency taps (`_lower_freq_taps`), read straight from the
        (c, t, f) input: Y^T (kf*c, t*fo), kt times smaller than a full
        im2col, where time tap i is the column block from i*rt*fo. Forward
        lowers one tile of `_TILE_FRAMES` output frames at a time (Anderson
        et al., arXiv:1709.03395), sums one GEMM per time tap,
        W_i @ Y^T[:, tap i], into a tile-sized (o, rows) accumulator, adds
        the bias and copies the tile into the output as it stands. Backward
        lowers the sample's whole Y^T into one reused buffer instead of
        keeping it in the graph, accumulates gW_i.T += Y^T[:, tap i] @ g[s].T,
        builds dY^T[:, tap i] += W_i.T @ g[s] and folds dY^T onto the
        sample's input gradient with kf adds of contiguous (c, t, fo) blocks.
        Scratch does not grow with the batch: forward holds one tile's
        lowering and two tile-sized GEMM results, backward one lowering,
        dY^T and one GEMM result.
        """
        rt, rf = dilation
        n, c, t, f = self.data.shape
        o, c2, kt, kf = weight.data.shape
        if c != c2:
            raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c2}")
        kt_eff = (kt - 1) * rt + 1
        kf_eff = (kf - 1) * rf + 1
        if t < kt_eff or f < kf_eff:
            raise ValueError(
                f"conv2d input {t}x{f} smaller than effective kernel {kt_eff}x{kf_eff}"
            )
        to = t - kt_eff + 1
        fo = f - kf_eff + 1
        rows = to * fo
        k = kf * c
        rtype = np.result_type(self.data.dtype, weight.data.dtype)
        # Per-tap transposed weights W_i.T, (kt, kf*c, o), rows in Y^T's
        # (kf, c) row order. The forward hands W_i to BLAS as the transposed
        # view wt[i].T: with a contiguous W_i, OpenBLAS sends small tiles to
        # a small-matrix kernel that sums in another order, and an output's
        # bits would depend on the size of the tile it falls in.
        wt = np.ascontiguousarray(weight.data.transpose(2, 3, 1, 0), dtype=rtype).reshape(kt, k, o)
        taps = [i * rt * fo for i in range(kt)]

        out_data = np.empty((n, o, to, fo), dtype=rtype)
        out3 = out_data.reshape(n, o, rows)
        tile = min(_TILE_FRAMES, to)
        y_tile = np.empty((kf, c, tile + kt_eff - 1, fo), dtype=rtype)
        acc = np.empty((o, tile * fo), dtype=rtype)
        tmp = np.empty_like(acc)
        for s in range(n):
            for u0 in range(0, to, tile):
                u1 = min(u0 + tile, to)
                r = (u1 - u0) * fo
                y = _lower_freq_taps(self.data[s, :, u0 : u1 + kt_eff - 1], kf, rf, y_tile)
                # Summed in contiguous buffers: numpy's in-place adds run
                # several times slower on a strided (o, r) view of the output.
                a, b = acc[:, :r], tmp[:, :r]
                np.matmul(wt[0].T, y[:, :r], out=a)
                for i in range(1, kt):
                    np.matmul(wt[i].T, y[:, taps[i] : taps[i] + r], out=b)
                    a += b
                a += bias.data[:, None]
                out3[s, :, u0 * fo : u1 * fo] = a
        out = Tensor._make(out_data, (self, weight, bias))
        if out.requires_grad:
            def _backward():
                if bias.requires_grad:
                    bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
                need_w = weight.requires_grad
                need_x = self.requires_grad
                if not (need_w or need_x):
                    return
                g3 = out.grad.reshape(n, o, rows)
                if need_w:
                    gwt = np.zeros((kt, k, o), dtype=rtype)
                    tmp_w = np.empty((k, o), dtype=rtype)
                    y_full = np.empty((kf, c, t, fo), dtype=rtype)
                if need_x:
                    gx = np.empty((n, c, t, f), dtype=rtype)
                    dy = np.empty((k, t * fo), dtype=rtype)
                    dy4 = dy.reshape(kf, c, t, fo)
                    tmp_y = np.empty((k, rows), dtype=rtype)
                for s in range(n):
                    gs = g3[s]
                    if need_w:
                        y = _lower_freq_taps(self.data[s], kf, rf, y_full)
                        for i in range(kt):
                            np.matmul(y[:, taps[i] : taps[i] + rows], gs.T, out=tmp_w)
                            gwt[i] += tmp_w
                    if need_x:
                        # Tap 0 and frequency tap 0 are written, not added;
                        # the columns past them start at 0.
                        np.matmul(wt[0], gs, out=dy[:, :rows])
                        dy[:, rows:] = 0
                        for i in range(1, kt):
                            np.matmul(wt[i], gs, out=tmp_y)
                            dy[:, taps[i] : taps[i] + rows] += tmp_y
                        gxs = gx[s]
                        gxs[:, :, :fo] = dy4[0]
                        gxs[:, :, fo:] = 0
                        for j in range(1, kf):
                            gxs[:, :, j * rf : j * rf + fo] += dy4[j]
                if need_w:
                    weight._accumulate(gwt.reshape(kt, kf, c, o).transpose(3, 2, 0, 1))
                if need_x:
                    self._accumulate(gx)
            out._backward = _backward
        return out

    def batch_norm(
        self,
        gamma: "Tensor",
        beta: "Tensor",
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
        momentum: float = 0.1,
        eps: float = 1e-5,
    ) -> "Tensor":
        """Per-channel batch normalization over (n, c, t, f).

        Training mode normalizes with biased batch statistics and updates the
        running buffers in place; eval mode uses the buffers. The model runs
        `bn_relu_pool` instead; this op is its unfused reference.
        """
        x = self.data
        mu, var = _bn_stats(x, running_mean, running_var, training, momentum)
        inv_std, scale, shift = _bn_fold(gamma.data, beta.data, mu, var, eps)
        track = _GRAD_ENABLED.get() and (self.requires_grad or gamma.requires_grad or beta.requires_grad)
        if track:
            xhat = (x - _channel(mu)) * _channel(inv_std)
            out_data = _channel(gamma.data) * xhat + _channel(beta.data)
        else:
            out_data = _bn_affine(x, scale, shift)
        out = Tensor._make(out_data.astype(x.dtype, copy=False), (self, gamma, beta))
        if out.requires_grad:
            def _backward():
                # The graph is single-use, so xhat's buffer is free to reuse.
                gx, ggamma, gbeta = _bn_backward(out.grad, xhat, scale, training)
                _bn_accumulate((self, gx), (gamma, ggamma), (beta, gbeta))
            out._backward = _backward
        return out

    def bn_relu_pool(
        self,
        gamma: "Tensor",
        beta: "Tensor",
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
        momentum: float = 0.1,
        eps: float = 1e-5,
    ) -> "Tensor":
        """Batch norm, ReLU and 2x2 average pooling as one op.

        Same result as `batch_norm(...).relu().avg_pool2d()`, but the graph
        keeps only the input (this op's parent) and per-channel vectors.
        Forward never builds the normalized, rectified array whole: per
        sample, it fills one tile-sized buffer with the 2 * `_TILE_FRAMES`
        input frames behind one tile of pooled frames, rectifies it and pools
        it into the output. Backward recomputes the full-size array with the
        same expression, so the ReLU mask has the same bits, and recomputes
        xhat from the input (recompute-in-backward, Chen et al.,
        arXiv:1604.06174).
        """
        x = self.data
        mu, var = _bn_stats(x, running_mean, running_var, training, momentum)
        inv_std, scale, shift = (
            v.astype(x.dtype, copy=False) for v in _bn_fold(gamma.data, beta.data, mu, var, eps)
        )
        mu = mu.astype(x.dtype, copy=False)
        out_data = np.empty(_pooled_shape(x.shape), dtype=x.dtype)
        t2 = out_data.shape[2]
        tile = min(_TILE_FRAMES, t2)
        h_tile = np.empty((1, x.shape[1], 2 * tile, x.shape[3]), dtype=x.dtype)
        for s in range(x.shape[0]):
            for u0 in range(0, t2, tile):
                u1 = min(u0 + tile, t2)
                h = _bn_affine(x[s : s + 1, :, 2 * u0 : 2 * u1], scale, shift,
                               out=h_tile[:, :, : 2 * (u1 - u0)])
                np.maximum(h, 0, out=h)
                _pool2x2(h, out=out_data[s : s + 1, :, u0:u1])
        out = Tensor._make(out_data, (self, gamma, beta))
        if out.requires_grad:
            def _backward():
                g = _unpool2x2(out.grad, x.shape)
                h = _bn_affine(x, scale, shift)
                np.greater(h, 0, out=h)  # the ReLU mask, as 1.0 / 0.0
                g *= h
                np.subtract(x, _channel(mu), out=h)
                h *= _channel(inv_std)
                gx, ggamma, gbeta = _bn_backward(g, h, scale, training)
                del g
                _bn_accumulate((self, gx), (gamma, ggamma), (beta, gbeta))
            out._backward = _backward
        return out

    def dropout(self, p: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout: zero with probability p, scale kept units by 1/(1-p)."""
        if not training or p <= 0.0:
            return self
        mask = (rng.random(self.data.shape) >= p).astype(self.data.dtype) / (1.0 - p)
        out = Tensor._make(self.data * mask, (self,))
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along an axis; backward splits the gradient."""
    out = Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _backward():
            for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * out.grad.ndim
                    idx[axis] = slice(a, b)
                    t._accumulate(out.grad[tuple(idx)])
        out._backward = _backward
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain ndarray helper)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; labels are integer class indices (n,)."""
    n = logits.data.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    nll = logsumexp - z[np.arange(n), labels]
    out = Tensor._make(np.asarray(nll.mean(), dtype=logits.data.dtype).reshape(()), (logits,))
    if out.requires_grad:
        def _backward():
            probs = softmax(logits.data)
            probs[np.arange(n), labels] -= 1.0
            logits._accumulate(out.grad * probs / n)
        out._backward = _backward
    return out
