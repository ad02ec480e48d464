"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus a gradient slot and a backward closure; ops
build the graph eagerly and `backward()` runs the closures in reverse
topological order. Only the ops this model needs are implemented: broadcast
add/mul, matmul, relu, reshape, sum, dilated valid conv2d, 2x2 average
pooling, global average pooling, batch norm, the fused conv-block tail
(batch norm -> ReLU -> 2x2 average pooling, `bn_relu_pool`), a whole conv
block (`conv_bn_relu_pool`), dropout, concat, and softmax cross-entropy.

Closures treat `out.grad` as read-only: a gradient handed to `_accumulate`
may be stored as is, so the same array can be another node's gradient too.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# Frames per tile of the backward kernels: output frames in block 1's weight
# gradient (`_conv_all_taps_wgrad`), input frames in `_conv_stacked_backward`.
# Short enough that a tile's channels-first lowering and its GEMM results
# stay in cache, long enough that each GEMM keeps BLAS busy. At the 32 x 6 s
# training shapes with one BLAS thread, the blocks 2-3 backward took as long
# at 64 frames as at 32, and 6 % longer at 16. The forward kernels size their
# tiles by `_forward_tile` instead.
_TILE_FRAMES = 32

# The forward tile rule (`_forward_tile`). numpy's OpenBLAS (0.3.31) on an
# AVX-512 host runs its SkylakeX core, which hands an sgemm of at most 100^3
# M*N*K MACs to its small-matrix kernels. With one BLAS thread a
# (32 x 112) @ (112 x N) GEMM ran at 54 GMAC/s up to N = 279 (999,936 MACs)
# and at 37 from N = 280; (16 x 50) @ (50 x N) at 53 up to N = 1250 and at
# 32 from 1251. So a tile takes the most output frames, capped at 64, whose
# GEMM stays within the cutoff. Block 3's GEMMs would then get 65-156
# columns, and its forwards ran 2-29 % slower at such tiles than at 32
# frames, so a GEMM of fewer than 256 columns keeps 32-frame tiles. On a core
# without the small kernels (OPENBLAS_CORETYPE=Haswell) the rule's tiles ran
# the nine forwards of a 10 s clip 6 % slower than 32-frame tiles did.
_SMALL_GEMM_MACS = 100**3
_MAX_TILE_FRAMES = 64
_MIN_TILE_COLUMNS = 256
_FALLBACK_TILE_FRAMES = 32

# Input bytes per tile of the fused conv-block tail: `bn_relu_pool`'s forward
# and backward and the training-mode batch statistics (`_bn_stats`) all walk
# x in the same tiles, whole channels of one sample, x[s, c0:c1], which are
# contiguous; a tile holds at least one channel. Counted in bytes, not
# elements, so that a tile and the float64 scratch built from it stay in
# cache whatever the dtype. At the 32 x 6 s training shapes with one BLAS
# thread, tiles of 64, 256 and 512 KB were no faster.
#
# The tail's scratch is one tile in each direction, plus half a tile for the
# backward's unpooled rows. numpy 2.4 gives a ufunc an 8192-element buffer
# (32 KB in float32) for each operand that is row-strided, such as a tile's
# even rows, but none for a column-strided one or for `np.copyto` from the
# same view. So the forward copies each tile's even and odd rows into the
# two halves of its buffer and does all its arithmetic on contiguous or
# column-strided arrays. At a one-channel float64 tile, a no-grad forward
# that summed row pairs from strided views of the rectified tile into a
# half-tile row buffer held 0.63 of x beyond its output; copying the even
# rows and adding the odd ones held 0.50; the split copy holds 0.26.
_TAIL_TILE_BYTES = 128 * 1024


def _tap_windows(x: np.ndarray, kl: int, kf: int, dilation: tuple[int, int]) -> np.ndarray:
    """The (n, kl, kf, c, t - (kl-1)*rt, fo) view of x (n, c, t, f) whose
    element [s, i, j, ch, u, v] is x[s, ch, u + i*rt, v + j*rf]: the first kl
    time taps and all kf frequency taps of every output position."""
    rt, rf = dilation
    win = sliding_window_view(x, ((kl - 1) * rt + 1, (kf - 1) * rf + 1), axis=(2, 3))
    return win[..., ::rt, ::rf].transpose(0, 4, 5, 1, 2, 3)


def _lower(win: np.ndarray, u0: int, u1: int, y: np.ndarray) -> None:
    """Copy frames u0:u1 of one sample's windows win (kl, kf, c, tl, fo) into
    the first kl*kf*c rows of Y^T, y (rows, T'*fo) with T' >= u1 - u0. Rows
    follow the weights' (kt, kf, c) order and time is the outer column axis,
    so the columns of the taps shifted i*rt frames on are the contiguous
    column block from i*rt*fo. Rows past kl*kf*c are kept."""
    kl, kf, c, _, fo = win.shape
    np.copyto(y[: kl * kf * c].reshape(kl, kf, c, -1, fo)[:, :, :, : u1 - u0], win[:, :, :, u0:u1])


def _tiles(frames: int, tile: int) -> list[tuple[int, int]]:
    """Spans (u0, u1) of at most `tile` frames that cover frames 0:frames in
    order; the last may be shorter."""
    return [(u0, min(u0 + tile, frames)) for u0 in range(0, frames, tile)]


def _forward_tile(o: int, k: int, fo: int) -> int:
    """Output frames per tile of a forward kernel whose GEMMs are
    (o x k) @ (k x frames*fo): the most frames, up to `_MAX_TILE_FRAMES`,
    whose GEMM stays within `_SMALL_GEMM_MACS`, if that gives a GEMM at
    least `_MIN_TILE_COLUMNS` columns, else `_FALLBACK_TILE_FRAMES`."""
    frames = min(_MAX_TILE_FRAMES, _SMALL_GEMM_MACS // (o * k * fo))
    return frames if frames * fo >= _MIN_TILE_COLUMNS else _FALLBACK_TILE_FRAMES


def _w_aug(dtype, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """W_aug for the conv kernels, in the result type of the input's `dtype`
    and the weights': W^T, rows in (kt, kf, c) order, with the bias as its
    last row, (kt*kf*c + 1, o)."""
    o = weight.shape[0]
    w_aug = np.empty((weight[0].size + 1, o), dtype=np.result_type(dtype, weight.dtype))
    w_aug[:-1] = weight.transpose(2, 3, 1, 0).reshape(-1, o)
    w_aug[-1] = bias
    return w_aug


# The conv kernels. Each runs one algorithm over a batch of windows from
# `_tap_windows` and allocates its tile scratch once per call, sized when
# called by `_forward_tile` (forwards) or `_TILE_FRAMES` (backwards) from
# shapes that do not depend on the batch, so one sample's recompute is one
# call on win[s:s+1] and gives that sample's bytes of the batch call
# (`conv_bn_relu_pool`'s backward recomputes block 1 so). W_aug is W^T with
# the bias as its last row, (kt*kf*c + 1, o), rows in the lowering's
# (kt, kf, c) order (`_w_aug`).


def _conv_all_taps(win: np.ndarray, w_aug: np.ndarray) -> np.ndarray:
    """One-channel forward: win (n, kt, kf, 1, to, fo) holds all kt*kf taps
    (the im2col of Chellapilla, Puri & Simard, 2006), so a tile of output
    frames is one GEMM, W_aug^T @ Y^T, whose Y^T ends in a row of ones for
    the bias, written by BLAS straight into the (n, o, to, fo) output.
    A tile holds `_forward_tile(o, kt*kf + 1, fo)` frames: 64, 40 and 21
    for the model's 3 x 3, 5 x 5 and 7 x 7 block 1. Scratch: one tile's
    lowering, (kt*kf + 1, tile*fo).

    OpenBLAS gets W_aug^T as the transposed view w_aug.T: with a contiguous
    operand it sends small tiles to a small-matrix kernel that sums in
    another order, and an output's bits would depend on the size of the
    tile it falls in."""
    n, _, _, _, to, fo = win.shape
    out = np.empty((n, w_aug.shape[1], to * fo), dtype=w_aug.dtype)
    tile = min(_forward_tile(w_aug.shape[1], len(w_aug), fo), to)
    y = np.ones((len(w_aug), tile * fo), dtype=w_aug.dtype)  # `_lower` keeps the last row
    for s in range(n):
        for u0, u1 in _tiles(to, tile):
            _lower(win[s], u0, u1, y)
            np.matmul(w_aug.T, y[:, : (u1 - u0) * fo], out=out[s, :, u0 * fo : u1 * fo])
    return out.reshape(n, -1, to, fo)


def _conv_freq_taps(win: np.ndarray, w_aug: np.ndarray, rt: int) -> np.ndarray:
    """Forward with several channels: win (n, 1, kf, c, t, fo) holds the kf
    frequency taps, K = kf*c, kt times smaller than a full im2col. A tile
    of output frames lowers the input frames its kt time taps read, so
    time tap i is that lowering's column block from i*rt*fo. The tile sums
    one GEMM per time tap, W_i @ Y^T[:, tap i], with W_i^T passed as a
    transposed view of w_aug as in `_conv_all_taps`, adds the bias and
    copies the tile into the (n, o, to, fo) output. It sums in contiguous
    (o, tile*fo) buffers: numpy's in-place adds run several times slower on
    a strided view of the output. A tile holds `_forward_tile(o, kf*c, fo)`
    frames: 22, 15 and 12 for the model's 3 x 3, 5 x 5 and 7 x 7 block 2,
    and 32 for block 3. Scratch: one tile's lowering with its
    (kt-1)*rt halo frames, (kf*c, (tile + (kt-1)*rt)*fo), and two
    tile-sized GEMM results."""
    n, _, kf, c, t, fo = win.shape
    wt = w_aug[:-1].reshape(-1, kf * c, w_aug.shape[1])  # W_i^T for each time tap i
    kt, k, o = wt.shape
    halo = (kt - 1) * rt
    to = t - halo
    out = np.empty((n, o, to * fo), dtype=w_aug.dtype)
    tile = min(_forward_tile(o, k, fo), to)
    y = np.empty((k, (tile + halo) * fo), dtype=w_aug.dtype)
    acc, tmp = np.empty((2, o, tile * fo), dtype=w_aug.dtype)
    for s in range(n):
        for u0, u1 in _tiles(to, tile):
            r = (u1 - u0) * fo
            _lower(win[s], u0, u1 + halo, y)
            a, b = acc[:, :r], tmp[:, :r]
            np.matmul(wt[0].T, y[:, :r], out=a)
            for i in range(1, kt):
                np.matmul(wt[i].T, y[:, i * rt * fo : i * rt * fo + r], out=b)
                a += b
            a += w_aug[-1][:, None]
            out[s, :, u0 * fo : u1 * fo] = a
    return out.reshape(n, o, to, fo)


def _conv_all_taps_wgrad(win: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Block 1's weight and bias gradient, in W_aug's layout, over the
    windows of `_conv_all_taps` and the output gradient g (n, o, to, fo):
    one GEMM per tile of output frames, gW_aug += Y^T @ g^T, whose ones row
    makes the last row the bias gradient. Scratch: one tile's lowering and
    one (kt*kf + 1, o) GEMM result."""
    n, kt, kf, _, to, fo = win.shape
    g3 = g.reshape(n, -1, to * fo)
    gw = np.zeros((kt * kf + 1, g.shape[1]), dtype=g.dtype)
    tmp = np.empty_like(gw)
    tile = min(_TILE_FRAMES, to)
    y = np.ones((len(gw), tile * fo), dtype=g.dtype)  # `_lower` keeps the last row
    for s in range(n):
        for u0, u1 in _tiles(to, tile):
            _lower(win[s], u0, u1, y)
            np.matmul(y[:, : (u1 - u0) * fo], g3[s, :, u0 * fo : u1 * fo].T, out=tmp)
            gw += tmp
    return gw


def _conv_stacked_backward(win: np.ndarray, g: np.ndarray, w_aug: np.ndarray,
                           dilation: tuple[int, int], wgrad: bool, xgrad: bool):
    """(gW_st (kt*o, kf*c) if `wgrad` else None, the input gradient
    (n, c, t, f) if `xgrad` else None), from the kf-only windows of
    `_conv_freq_taps` and the output gradient g (n, o, to, fo).

    Tiles input frames u. A tile fills G (kt*o, frames*fo), whose block i
    is the output gradient of frames u - i*rt (zeros past either edge), so
    every tap's share lines up with the tile's own frames and its kf-only
    lowering needs no halo (a time-tap-stacked gradient, after Georganas
    et al., arXiv:1808.05567). Two GEMMs a tile give both gradients:
    gW_st += G @ Y, with N = kf*c, and dY^T = W_st @ G, with K = kt*o,
    where W_st (kf*c, kt*o) stacks each tap's W_i^T. dY^T's kf frequency
    taps fold into the tile's frames of the input gradient while they are
    in cache. The weight gradient is G @ Y, not its transpose Y^T @ G^T,
    which ran 7-14 % slower at the blocks 2-3 tile shapes (one BLAS
    thread). Scratch: one tile's G and one buffer that holds its lowering,
    then dY^T; neither grows with the batch or the sample length."""
    rt, rf = dilation
    n, _, kf, c, t, fo = win.shape
    _, o, to, _ = g.shape
    w_st = w_aug[:-1].reshape(-1, kf * c, o).transpose(1, 0, 2).reshape(kf * c, -1)
    k, kt = kf * c, w_st.shape[1] // o
    tile = min(_TILE_FRAMES, t)
    g_buf = np.empty(kt * o * tile * fo, dtype=g.dtype)
    y_buf = np.empty(k * tile * fo, dtype=g.dtype)
    gw = np.zeros((kt * o, k), dtype=g.dtype) if wgrad else None
    tmp = np.empty_like(gw) if wgrad else None
    gx = np.empty((n, c, t, fo + (kf - 1) * rf), dtype=g.dtype) if xgrad else None
    for s in range(n):
        for u0, u1 in _tiles(t, tile):
            m = u1 - u0
            g_t = g_buf[: kt * o * m * fo].reshape(kt, o, m, fo)
            for i in range(kt):
                d = u0 - i * rt  # output frame of G's first column
                lo = min(max(-d, 0), m)
                hi = max(min(to - d, m), lo)
                g_t[i, :, :lo] = 0
                g_t[i, :, lo:hi] = g[s, :, d + lo : d + hi]
                g_t[i, :, hi:] = 0
            g2 = g_t.reshape(kt * o, m * fo)
            y = y_buf[: k * m * fo].reshape(k, m * fo)
            if wgrad:
                _lower(win[s], u0, u1, y)
                np.matmul(g2, y.T, out=tmp)
                gw += tmp
            if xgrad:
                np.matmul(w_st, g2, out=y)
                dy4 = y.reshape(kf, c, m, fo)
                gxs = gx[s, :, u0:u1]
                gxs[:, :, :fo] = dy4[0]
                gxs[:, :, fo:] = 0
                for j in range(1, kf):
                    gxs[:, :, j * rf : j * rf + fo] += dy4[j]
    return gw, gx


def _channel(v: np.ndarray) -> np.ndarray:
    """A per-channel vector shaped to broadcast over (n, c, t, f)."""
    return v.reshape(1, -1, 1, 1)


# Batch norm's running-statistics blend factor and variance floor.
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def _channel_groups(x: np.ndarray) -> list[tuple[int, int]]:
    """Spans (c0, c1) of whole channels of x (n, c, t, f), each one tile of
    at most `_TAIL_TILE_BYTES` per sample, and never empty; the last may be
    shorter."""
    c = x.shape[1]
    per = max(1, _TAIL_TILE_BYTES // (x.shape[2] * x.shape[3] * x.itemsize))
    return [(c0, min(c0 + per, c)) for c0 in range(0, c, per)]


def _bn_stats(x, running_mean, running_var, training: bool):
    """Per-channel (mean, var) to normalize with, in x's dtype.

    Training mode takes biased batch statistics and blends them into the
    running buffers in place; eval mode returns copies of the buffers, so a
    later update cannot change what a pending backward recomputes.

    The batch statistics take one pass over x, one channel group
    (`_channel_groups`) of one sample at a time: the group is copied to
    float64, and each channel's sum and then its sum of squares about its
    own mean are taken while the group is in cache. The per-sample results
    merge by the pairwise update of Chan, Golub & LeVeque (1979); all samples
    hold m values per channel, so it reads mean = the mean of the sample
    means and M2 = sum M2_s + m * sum (mean_s - mean)^2.
    """
    if not training:
        return running_mean.copy(), running_var.copy()
    n, c = x.shape[:2]
    m = x.shape[2] * x.shape[3]
    means = np.empty((n, c))
    m2 = np.empty((n, c))
    groups = _channel_groups(x)
    d = np.empty((groups[0][1], m))
    for s in range(n):
        for c0, c1 in groups:
            ds = d[: c1 - c0]
            np.copyto(ds, x[s, c0:c1].reshape(c1 - c0, m))
            means[s, c0:c1] = mu_s = ds.sum(axis=1) / m
            ds -= mu_s[:, None]
            m2[s, c0:c1] = np.matmul(ds[:, None], ds[:, :, None])[:, 0, 0]  # a dot per channel
    mu = means.mean(axis=0)
    var = (m2.sum(axis=0) + m * np.square(means - mu).sum(axis=0)) / (n * m)
    mu, var = mu.astype(x.dtype), var.astype(x.dtype)
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var
    return mu, var


def _bn_fold(gamma, beta, mu, var):
    """Fold normalization and affine into per-channel (inv_std, scale, shift),
    so that gamma * (x - mu) * inv_std + beta == x * scale + shift."""
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    scale = gamma * inv_std
    return inv_std, scale, beta - mu * scale


def _pooled_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """(n, c, t // 2, f // 2): 2x2 pooling drops an odd trailing row or
    column (floor semantics) and needs both spatial dims >= 2."""
    t2, f2 = shape[2] // 2, shape[3] // 2
    if t2 < 1 or f2 < 1:
        raise ValueError(f"avg_pool2d needs both spatial dims >= 2, got input shape {shape}")
    return (*shape[:2], t2, f2)


def _pool_windows(a: np.ndarray) -> np.ndarray:
    """The (..., t // 2, 2, f // 2, 2) view of a (..., t, f)'s whole 2x2
    pooling windows; an odd trailing row or column is left out. Splitting
    an axis never needs a copy, so writes to the view land in a."""
    t2, f2 = a.shape[-2] // 2, a.shape[-1] // 2
    return a[..., : 2 * t2, : 2 * f2].reshape(*a.shape[:-2], t2, 2, f2, 2)


def _bn_relu_pool(x, gamma, beta, running_mean, running_var, training: bool):
    """The fused tail's arithmetic over x (n, c, t, f): its pooled output
    and backward(g, sample) -> (x's gradient, gamma's, beta's), for the
    output gradient g. backward reads sample s of x, (c, t, f), as
    sample(s), once in each of its passes, and keeps no reference to x, so
    a caller can hand it the stored samples or recompute them. Every pass
    walks x in the batch statistics' tiles, whole channels of one sample
    (`_channel_groups`).

    With `_bn_fold`'s per-channel scale s and shift b, relu(s*x + b) =
    max(s*x, -b) + b, and the pool's 1/4 folds into both terms: q = s/4
    and the clamp -b/4. Scaling by a power of two is exact outside the
    subnormal range, so x*q is (x*s)/4 to the bit. Forward, one tile at a
    time: copy the tile's whole windows into one buffer, even rows in one
    half and odd rows in the other; take h = max(x*q, -b/4) there; add
    the halves (the row pairs, contiguous), then the column pairs; add b
    to the quarter-size output. A window whose four cells are all
    clamped sums to exactly -b and pools to 0.0, and rounding is
    monotone, so no output is negative.

    Backward recomputes from the input (Chen et al., arXiv:1604.06174)
    in two passes. The first takes the ReLU mask as x*q > -b/4. That is
    the forward's own active set, and it has the bits of s*x + b > 0,
    since a rounded sum is positive exactly when the exact sum is. It
    writes the masked, unpooled gradient gp into the input gradient,
    without the 1/4, which lives in q, and sums gp and gp * (x - mean)
    per channel. The second turns gp into the input gradient in place:
    q * gp in eval mode; q * gp - k * x + (k * mean - c) in training
    mode, where k and c carry d gamma and d beta over the m values per
    channel.
    """
    mu, var = _bn_stats(x, running_mean, running_var, training)
    inv_std, scale, shift = (v.astype(x.dtype, copy=False) for v in _bn_fold(gamma, beta, mu, var))
    # Per-channel (c, 1, 1) columns, broadcast over one sample's tile.
    q = (0.25 * scale).reshape(-1, 1, 1)
    b = shift.reshape(-1, 1, 1)
    clamp = -0.25 * b
    mu = mu.astype(x.dtype, copy=False)
    dtype = x.dtype
    n, c, t, f = x.shape
    out = np.empty(_pooled_shape(x.shape), dtype=dtype)
    t2, f2 = out.shape[2:]
    groups = _channel_groups(x)
    # One tile's whole windows, (2, channels, t2, f2, 2): its even rows,
    # then its odd rows.
    h_buf = np.empty(groups[0][1] * t2 * f2 * 4, dtype=dtype)
    for s in range(n):
        for c0, c1 in groups:
            h = h_buf[: (c1 - c0) * t2 * f2 * 4].reshape(2, c1 - c0, t2, f2, 2)
            np.copyto(h, _pool_windows(x[s, c0:c1]).transpose(2, 0, 1, 3, 4))
            np.multiply(h, q[c0:c1, None], out=h)
            np.maximum(h, clamp[c0:c1, None], out=h)
            rows = np.add(h[0], h[1], out=h[0])
            pooled = out[s, c0:c1]
            np.add(rows[..., 0], rows[..., 1], out=pooled)
            pooled += b[c0:c1]

    def backward(g, sample):
        gx = np.empty((n, c, t, f), dtype=dtype)
        sums = np.zeros((2, c))  # sum gp, sum gp * (x - mean)
        h_buf = np.empty(groups[0][1] * t * f, dtype=dtype)
        row_buf = np.empty(groups[0][1] * t2 * f2 * 2, dtype=dtype)
        ones = np.ones(t * f, dtype=dtype)
        mean = mu.reshape(-1, 1, 1)
        for s in range(n):
            x_s = sample(s)
            for c0, c1 in groups:
                xs, gp = x_s[c0:c1], gx[s, c0:c1]
                h = np.multiply(xs, q[c0:c1], out=h_buf[: xs.size].reshape(xs.shape))
                np.greater(h, clamp[c0:c1], out=h)  # the ReLU mask, as 1.0 / 0.0
                # Unpool: each window's row of gradients, built
                # contiguous, then copied into both of its rows.
                rows = row_buf[: (c1 - c0) * t2 * f2 * 2].reshape(c1 - c0, t2, 1, f2, 2)
                rows[..., 0] = rows[..., 1] = g[s, c0:c1, :, None]
                np.copyto(_pool_windows(gp), rows)
                gp[:, 2 * t2 :] = 0
                gp[:, :, 2 * f2 :] = 0
                gp *= h
                # Per-channel sums as BLAS products, two to four times
                # faster than numpy's pairwise sum on these rows.
                gp2 = gp.reshape(c1 - c0, -1)
                h2 = np.subtract(xs, mean[c0:c1], out=h).reshape(c1 - c0, -1)
                sums[0, c0:c1] += gp2 @ ones
                sums[1, c0:c1] += np.matmul(gp2[:, None], h2[:, :, None])[:, 0, 0]
                if not training:
                    gp *= q[c0:c1]
        gbeta, ggamma = 0.25 * sums[0], 0.25 * sums[1] * inv_std
        if training:
            m = n * t * f
            k = scale * inv_std * ggamma / m
            kc = (k * mu - scale * gbeta / m).astype(dtype).reshape(-1, 1, 1)
            k = k.astype(dtype).reshape(-1, 1, 1)
            for s in range(n):
                x_s = sample(s)
                for c0, c1 in groups:
                    xs, gp = x_s[c0:c1], gx[s, c0:c1]
                    gp *= q[c0:c1]
                    gp -= np.multiply(xs, k[c0:c1], out=h_buf[: xs.size].reshape(xs.shape))
                    gp += kc[c0:c1]
        return gx, ggamma, gbeta

    return out, backward


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
        # A tensor that does not require a gradient never receives one, so
        # closures hand every parent its gradient without asking.
        if not self.requires_grad:
            return
        # The first gradient is stored as given, later ones are added out of
        # place: `grad` may also be another node's gradient (`__add__` hands
        # the same array to both parents; `reshape` and `concat` pass views).
        grad = grad.astype(self.data.dtype, copy=False)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

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
        # The graph is consumed as it runs. Every node that reads a node's
        # output runs before it and then drops its parent links, and popping
        # the node drops the engine's own reference. So a node's output array
        # and grad are freed once its own closure has run, unless the caller
        # still holds the tensor; no activation waits for backward to return.
        # Clearing the closure matters too: each captures its output tensor,
        # a reference cycle that would otherwise park the activation until
        # the cycle collector got around to it. Leaf tensors (parameters,
        # inputs) have no closure and keep their grads.
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
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
                self._accumulate(_sum_to(out.grad, self.data.shape))
                other._accumulate(_sum_to(out.grad, other.data.shape))
            out._backward = _backward
        return out

    def __mul__(self, other: "Tensor") -> "Tensor":
        out = Tensor._make(self.data * other.data, (self, other))
        if out.requires_grad:
            def _backward():
                self._accumulate(_sum_to(out.grad * other.data, self.data.shape))
                other._accumulate(_sum_to(out.grad * self.data, other.data.shape))
            out._backward = _backward
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        out = Tensor._make(self.data @ other.data, (self, other))
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad @ other.data.T)
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
        """2x2 average pooling, stride 2, floor semantics on odd sizes.

        The model runs `bn_relu_pool` instead; this op is its unfused
        reference, a mean over each window of the cropped even-sized input.
        """
        n, c, t2, f2 = _pooled_shape(self.data.shape)
        even = self.data[:, :, : 2 * t2, : 2 * f2]
        out = Tensor._make(even.reshape(n, c, t2, 2, f2, 2).mean(axis=(3, 5)), (self,))
        if out.requires_grad:
            def _backward():
                g = np.zeros(self.data.shape, out.grad.dtype)
                g[:, :, : 2 * t2, : 2 * f2] = (0.25 * out.grad).repeat(2, axis=2).repeat(2, axis=3)
                self._accumulate(g)
            out._backward = _backward
        return out

    def conv2d(self, weight: "Tensor", bias: "Tensor", dilation: tuple[int, int] = (1, 1)) -> "Tensor":
        """Valid (unpadded) stride-1 2-D convolution with dilation.

        self: (n, c, t, f); weight: (o, c, kt, kf); bias: (o,).
        Output: (n, o, t - (kt-1)*rt, f - (kf-1)*rf).

        Both passes lower window views of the input (`_tap_windows`) one
        short tile of frames at a time (Anderson et al., arXiv:1709.03395),
        and lower again in backward instead of keeping a lowering in the
        graph. A forward tile is as long as `_forward_tile` lets its GEMMs
        stay within OpenBLAS's small-matrix cutoff, and the output's bits
        do not depend on it; a backward tile is `_TILE_FRAMES` frames. With
        one input channel the forward is `_conv_all_taps` and the weight and
        bias gradient `_conv_all_taps_wgrad`. With several, the forward is
        `_conv_freq_taps`, the bias gradient sums the output gradient and
        the weight gradient is `_conv_stacked_backward`'s. That kernel gives
        every input gradient.
        """
        rt, rf = dilation
        _, c, t, f = self.data.shape
        o, c2, kt, kf = weight.data.shape
        if c != c2:
            raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c2}")
        kt_eff, kf_eff = (kt - 1) * rt + 1, (kf - 1) * rf + 1
        if t < kt_eff or f < kf_eff:
            raise ValueError(
                f"conv2d input {t}x{f} smaller than effective kernel {kt_eff}x{kf_eff}"
            )
        w_aug = _w_aug(self.data.dtype, weight.data, bias.data)
        if c == 1:
            out_data = _conv_all_taps(_tap_windows(self.data, kt, kf, dilation), w_aug)
        else:
            out_data = _conv_freq_taps(_tap_windows(self.data, 1, kf, dilation), w_aug, rt)
        out = Tensor._make(out_data, (self, weight, bias))
        if out.requires_grad:
            def _backward():
                g = out.grad
                wgrad = c > 1 and weight.requires_grad
                if c > 1:
                    bias._accumulate(g.sum(axis=(0, 2, 3)))
                elif weight.requires_grad or bias.requires_grad:
                    gw = _conv_all_taps_wgrad(_tap_windows(self.data, kt, kf, dilation), g)
                    weight._accumulate(gw[:-1].reshape(kt, kf, c, o).transpose(3, 2, 0, 1))
                    bias._accumulate(gw[-1])
                if wgrad or self.requires_grad:
                    gw, gx = _conv_stacked_backward(_tap_windows(self.data, 1, kf, dilation), g, w_aug,
                                                    dilation, wgrad, self.requires_grad)
                    if wgrad:
                        weight._accumulate(gw.reshape(kt, o, kf, c).transpose(1, 3, 0, 2))
                    self._accumulate(gx)  # None only when self needs no gradient
            out._backward = _backward
        return out

    def batch_norm(
        self,
        gamma: "Tensor",
        beta: "Tensor",
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
    ) -> "Tensor":
        """Per-channel batch normalization over (n, c, t, f).

        Training mode normalizes with biased batch statistics and updates the
        running buffers in place; eval mode uses the buffers. The model runs
        `bn_relu_pool` instead; this op is its unfused reference, the
        textbook form of Ioffe & Szegedy (arXiv:1502.03167), and shares only
        `_bn_stats` with the fused op.
        """
        x = self.data
        mu, var = _bn_stats(x, running_mean, running_var, training)
        inv_std = _channel(1.0 / np.sqrt(var + _BN_EPS))
        xhat = (x - _channel(mu)) * inv_std
        out_data = _channel(gamma.data) * xhat + _channel(beta.data)
        out = Tensor._make(out_data.astype(x.dtype, copy=False), (self, gamma, beta))
        if out.requires_grad:
            def _backward():
                g = out.grad
                axes = (0, 2, 3)
                gxhat = g * _channel(gamma.data)
                if training:
                    gxhat = (gxhat - gxhat.mean(axis=axes, keepdims=True)
                             - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True))
                self._accumulate(gxhat * inv_std)
                gamma._accumulate((g * xhat).sum(axis=axes))
                beta._accumulate(g.sum(axis=axes))
            out._backward = _backward
        return out

    def bn_relu_pool(
        self,
        gamma: "Tensor",
        beta: "Tensor",
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
    ) -> "Tensor":
        """Batch norm, ReLU and 2x2 average pooling as one op.

        Same result as `batch_norm(...).relu().avg_pool2d()`, but the graph
        keeps only the input (this op's parent) and per-channel vectors, and
        no pass holds a full-size array besides the input gradient. The
        arithmetic is `_bn_relu_pool`'s; its backward reads the stored
        input's samples.
        """
        x = self.data
        out_data, tail_backward = _bn_relu_pool(x, gamma.data, beta.data, running_mean, running_var, training)
        out = Tensor._make(out_data, (self, gamma, beta))
        if out.requires_grad:
            def _backward():
                gx, ggamma, gbeta = tail_backward(out.grad, x.__getitem__)
                self._accumulate(gx)
                gamma._accumulate(ggamma)
                beta._accumulate(gbeta)
            out._backward = _backward
        return out

    def conv_bn_relu_pool(
        self,
        weight: "Tensor",
        bias: "Tensor",
        dilation: tuple[int, int],
        gamma: "Tensor",
        beta: "Tensor",
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
    ) -> "Tensor":
        """One conv block: `conv2d`, then `bn_relu_pool`, with the same bits
        in every output, gradient and running buffer.

        The conv runs as one `self.conv2d` call on the whole batch, looked up
        on the class. A training-mode graph over a one-channel input (block 1)
        does not keep that conv output, the largest array the graph would
        hold (Chen et al., arXiv:1604.06174): its data is dropped once the
        tail's forward has read it. Each of the tail's backward passes
        recomputes sample s as `_conv_all_taps` on that sample's windows,
        which gives the bytes of sample s of the batch forward. The tail's
        input gradient then becomes the conv output's gradient, and the
        conv output's own backward closure, as it stands when backward runs,
        runs once and is released. Blocks 2-3 (their recompute would cost a
        GEMM pass per sample), no-grad and eval-mode forwards run the plain
        composition.
        """
        y = self.conv2d(weight, bias, dilation)
        if not (training and y.requires_grad and self.data.shape[1] == 1):
            return y.bn_relu_pool(gamma, beta, running_mean, running_var, training)
        out_data, tail_backward = _bn_relu_pool(y.data, gamma.data, beta.data, running_mean, running_var, training)
        y.data = None
        win = _tap_windows(self.data, *weight.data.shape[2:], dilation)
        w_aug = _w_aug(self.data.dtype, weight.data, bias.data)
        out = Tensor._make(out_data, (*y._parents, gamma, beta))

        def _backward():
            y.grad, ggamma, gbeta = tail_backward(out.grad, lambda s: _conv_all_taps(win[s : s + 1], w_aug)[0])
            y._backward()
            y.grad = y._backward = None
            y._parents = ()
            gamma._accumulate(ggamma)
            beta._accumulate(gbeta)
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
