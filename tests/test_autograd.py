"""Autograd engine tests: finite-difference checks for every op, the naive
convolution oracle, and optimizer arithmetic."""

import threading
import weakref

import numpy as np
import pytest
from conftest import TracedMemory, check_grads, kink_free_bn_input, naive_conv2d, rel_err

from touch_audition import autograd
from touch_audition.autograd import Tensor, concat, cross_entropy, no_grad, softmax
from touch_audition.data import target_frames
from touch_audition.dsp import N_MELS
from touch_audition.model import ModelConfig
from touch_audition.optim import Adam

RNG = np.random.default_rng(123)


def test_add_broadcast_grads():
    check_grads(
        lambda t: (t["a"] + t["b"]).sum(),
        {"a": RNG.standard_normal((3, 4)), "b": RNG.standard_normal((4,))},
    )
    check_grads(
        lambda t: ((t["a"] + t["b"]) * t["c"]).sum(),
        {
            "a": RNG.standard_normal((2, 3, 4)),
            "b": RNG.standard_normal((1, 3, 1)),
            "c": RNG.standard_normal((2, 3, 4)),
        },
    )


def test_mul_broadcast_grads():
    check_grads(
        lambda t: (t["a"] * t["b"]).sum(),
        {"a": RNG.standard_normal((3, 5)), "b": RNG.standard_normal((3, 1))},
    )


def test_matmul_grads():
    check_grads(
        lambda t: (t["a"].matmul(t["b"]) * t["c"]).sum(),
        {
            "a": RNG.standard_normal((4, 3)),
            "b": RNG.standard_normal((3, 5)),
            "c": RNG.standard_normal((4, 5)),
        },
    )


def test_relu_grads():
    # Keep inputs away from the kink at 0.
    x = RNG.standard_normal((4, 6))
    x[np.abs(x) < 0.1] += 0.2
    check_grads(lambda t: (t["x"].relu() * t["c"]).sum(), {"x": x, "c": RNG.standard_normal((4, 6))})


def test_reshape_and_sum_grads():
    check_grads(
        lambda t: (t["x"].reshape(2, 6) * t["c"]).sum(),
        {"x": RNG.standard_normal((3, 4)), "c": RNG.standard_normal((2, 6))},
    )


def test_mean_pool_grads():
    check_grads(
        lambda t: (t["x"].mean_pool() * t["c"]).sum(),
        {"x": RNG.standard_normal((2, 3, 4, 5)), "c": RNG.standard_normal((2, 3))},
    )


@pytest.mark.parametrize("shape", [(1, 1, 4, 4), (2, 3, 5, 7), (1, 2, 6, 3)])
def test_avg_pool_grads(shape):
    n, c, t, f = shape
    check_grads(
        lambda ts: (ts["x"].avg_pool2d() * ts["c"]).sum(),
        {"x": RNG.standard_normal(shape), "c": RNG.standard_normal((n, c, t // 2, f // 2))},
    )


def test_avg_pool_floor_semantics():
    x = Tensor(np.arange(2 * 1 * 5 * 3, dtype=np.float64).reshape(2, 1, 5, 3))
    out = x.avg_pool2d()
    assert out.data.shape == (2, 1, 2, 1)
    # First cell = mean of the top-left 2x2 block.
    assert out.data[0, 0, 0, 0] == pytest.approx(x.data[0, 0, :2, :2].mean())
    with pytest.raises(ValueError):
        Tensor(np.zeros((1, 1, 1, 4))).avg_pool2d()


# Each conv case below names its own test id, so a case added anywhere
# renames no other test. The ids are the names pytest first gave these cases
# by list position (`dilationN`), kept so that recorded test lists still
# name them; a new case's id should name its values instead.
@pytest.mark.parametrize("dilation", [(1, 1), (2, 1), (3, 2)],
                         ids=["dilation0", "dilation1", "dilation2"])
def test_conv2d_grads(dilation):
    rt, rf = dilation
    kt = kf = 3
    t = (kt - 1) * rt + 1 + 2
    f = (kf - 1) * rf + 1 + 1
    x = RNG.standard_normal((2, 2, t, f))
    w = RNG.standard_normal((3, 2, kt, kf))
    b = RNG.standard_normal(3)
    to, fo = t - (kt - 1) * rt, f - (kf - 1) * rf
    c = RNG.standard_normal((2, 3, to, fo))
    check_grads(
        lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], dilation) * ts["c"]).sum(),
        {"x": x, "w": w, "b": b, "c": c},
    )


def test_conv2d_matches_naive_oracle_exhaustively():
    # Exhaustive small-shape sweep; float64 agreement to 1e-6.
    worst = 0.0
    for kt in (1, 2, 3):
        for kf in (1, 2, 3):
            for rt in (1, 2, 3):
                for rf in (1, 2):
                    for cin, cout in ((1, 1), (2, 3)):
                        t = (kt - 1) * rt + 1 + 2
                        f = (kf - 1) * rf + 1 + 1
                        x = RNG.standard_normal((2, cin, t, f))
                        w = RNG.standard_normal((cout, cin, kt, kf))
                        b = RNG.standard_normal(cout)
                        got = Tensor(x).conv2d(Tensor(w), Tensor(b), (rt, rf)).data
                        want = naive_conv2d(x, w, b, (rt, rf))
                        worst = max(worst, rel_err(got, want))
    assert worst < 1e-6


# A batch of 5 through the per-sample loops: c_in 1 and 3, kt != kf,
# dilations (2, 1) and (3, 2), and the model's widest block-1 geometry.
BATCH_CASES = {
    # id: (c_in, c_out, kt, kf, dilation)
    "1-2-3-2-dilation0": (1, 2, 3, 2, (2, 1)),
    "3-2-2-3-dilation1": (3, 2, 2, 3, (3, 2)),
    "3-4-3-1-dilation2": (3, 4, 3, 1, (2, 1)),
    "1-3-1-3-dilation3": (1, 3, 1, 3, (3, 2)),
    "1-4-7-7-dilation4": (1, 4, 7, 7, (1, 1)),
}


def _cases(cases):
    """`pytest.mark.parametrize` keyword arguments for an {id: values} grid."""
    return {"argvalues": list(cases.values()), "ids": list(cases)}


@pytest.mark.parametrize("c, o, kt, kf, dilation", **_cases(BATCH_CASES))
def test_conv2d_batch_matches_naive(c, o, kt, kf, dilation):
    rt, rf = dilation
    t = (kt - 1) * rt + 4
    f = (kf - 1) * rf + 3
    x = RNG.standard_normal((5, c, t, f))
    w = RNG.standard_normal((o, c, kt, kf))
    b = RNG.standard_normal(o)
    got = Tensor(x).conv2d(Tensor(w), Tensor(b), dilation).data
    assert rel_err(got, naive_conv2d(x, w, b, dilation)) < 1e-6


@pytest.mark.parametrize("c, o, kt, kf, dilation", **_cases(BATCH_CASES))
def test_conv2d_batch_grads(c, o, kt, kf, dilation):
    rt, rf = dilation
    t = (kt - 1) * rt + 3
    f = (kf - 1) * rf + 2
    to, fo = t - (kt - 1) * rt, f - (kf - 1) * rf
    check_grads(
        lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], dilation) * ts["m"]).sum(),
        {
            "x": RNG.standard_normal((5, c, t, f)),
            "w": RNG.standard_normal((o, c, kt, kf)),
            "b": RNG.standard_normal(o),
            "m": RNG.standard_normal((5, o, to, fo)),
        },
    )


# Inputs of 100+ frames (101 output frames, a prime count), so the forward's
# time tiles split them several times with a partial last tile, and the kt
# taps' halos cross tile edges: c_in 1 and 3, kt 3 and 5, dilation (3, 1),
# and the model's widest block-1 geometry (c_in 1, 7 x 7).
TILE_CASES = {
    # id: (c_in, c_out, kt, kf, dilation)
    "1-2-3-2-dilation0": (1, 2, 3, 2, (3, 1)),
    "3-2-5-3-dilation1": (3, 2, 5, 3, (1, 1)),
    "3-3-5-1-dilation2": (3, 3, 5, 1, (3, 1)),
    "1-4-7-7-dilation3": (1, 4, 7, 7, (1, 1)),
}


def _long_input_shape(n, c, kt, kf, dilation):
    rt, rf = dilation
    return n, c, (kt - 1) * rt + 101, (kf - 1) * rf + 2


@pytest.mark.parametrize("c, o, kt, kf, dilation", **_cases(TILE_CASES))
def test_conv2d_long_input_matches_naive(c, o, kt, kf, dilation):
    x = RNG.standard_normal(_long_input_shape(2, c, kt, kf, dilation))
    w = RNG.standard_normal((o, c, kt, kf))
    b = RNG.standard_normal(o)
    got = Tensor(x).conv2d(Tensor(w), Tensor(b), dilation).data
    assert got.shape[2] == 101
    assert rel_err(got, naive_conv2d(x, w, b, dilation)) < 1e-6


@pytest.mark.parametrize("c, o, kt, kf, dilation", **_cases(TILE_CASES))
def test_conv2d_long_input_grads(c, o, kt, kf, dilation):
    n, _, t, f = _long_input_shape(2, c, kt, kf, dilation)
    check_grads(
        lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], dilation) * ts["m"]).sum(),
        {
            "x": RNG.standard_normal((n, c, t, f)),
            "w": RNG.standard_normal((o, c, kt, kf)),
            "b": RNG.standard_normal(o),
            "m": RNG.standard_normal((n, o, 101, f - (kf - 1) * dilation[1])),
        },
    )


# The backward's input tiles and the forward's output tiles at 1, 5 and 32
# frames. Cases: the c_in > 1 rows of TILE_CASES, a 23-frame input whose
# (kt-1)*rt = 14 halo frames are wider than a 5-frame tile, then the
# c_in = 1 rows, which check block 1's all-tap weight gradient and the
# one-channel input gradient.
TILE_GRAD_CASES = {
    # id: (c_in, c_out, kt, kf, dilation, output frames)
    "3-2-5-3-dilation0-101": (3, 2, 5, 3, (1, 1), 101),
    "3-3-5-1-dilation1-101": (3, 3, 5, 1, (3, 1), 101),
    "2-3-3-2-dilation2-9": (2, 3, 3, 2, (7, 1), 9),
    "1-2-3-2-dilation3-101": (1, 2, 3, 2, (3, 1), 101),
    "1-4-7-7-dilation4-101": (1, 4, 7, 7, (1, 1), 101),
}
TILE_GRAD_FRAMES = (1, 5, 32)


def _tile_edges(t, to, kt, rt, tile):
    """The edges that tiles of `tile` input frames meet over t frames: a
    partial last tile, a tile where some tap reads no output frame, and an
    input shorter than a tile."""
    size = min(tile, t)
    starts = range(0, t, size)
    empty = any(min(u0 + size, t) - i * rt <= 0 or u0 - i * rt >= to
                for u0 in starts for i in range(kt))
    return {"partial": t % size != 0, "empty": empty, "short": t < tile}


def test_tile_grad_cases_meet_every_tile_edge():
    met = set()
    assert {case[:5] for case in TILE_GRAD_CASES.values() if case[5] == 101} == set(TILE_CASES.values())
    for _, _, kt, _, (rt, _), to in TILE_GRAD_CASES.values():
        for tile in TILE_GRAD_FRAMES:
            met |= {edge for edge, hit in _tile_edges((kt - 1) * rt + to, to, kt, rt, tile).items() if hit}
    assert met == {"partial", "empty", "short"}


@pytest.mark.parametrize("tile", TILE_GRAD_FRAMES)
@pytest.mark.parametrize("c, o, kt, kf, dilation, to", **_cases(TILE_GRAD_CASES))
def test_conv2d_tiled_backward_grads(monkeypatch, c, o, kt, kf, dilation, to, tile):
    monkeypatch.setattr(autograd, "_TILE_FRAMES", tile)
    monkeypatch.setattr(autograd, "_forward_tile", lambda o, k, fo: tile)
    rt, rf = dilation
    t, f = (kt - 1) * rt + to, (kf - 1) * rf + 2
    check_grads(
        lambda ts: (ts["x"].conv2d(ts["w"], ts["b"], dilation) * ts["m"]).sum(),
        {
            "x": RNG.standard_normal((1, c, t, f)),
            "w": RNG.standard_normal((o, c, kt, kf)),
            "b": RNG.standard_normal(o),
            "m": RNG.standard_normal((1, o, to, 2)),
        },
    )


# The model's block-1 geometry and one of blocks 2-3: (c_in, c_out, kt, kf,
# dilation).
RECOMPUTE_CASES = {"1-16-7-7-dilation0": (1, 16, 7, 7, (1, 1)), "16-32-5-5-dilation1": (16, 32, 5, 5, (2, 1))}


@pytest.mark.parametrize("tile", TILE_GRAD_FRAMES)
@pytest.mark.parametrize("c, o, kt, kf, dilation", **_cases(RECOMPUTE_CASES))
def test_conv_kernels_recompute_one_sample_bit_for_bit(monkeypatch, c, o, kt, kf, dilation, tile):
    # A forward kernel called on one sample's windows gives the bytes of that
    # sample in the batch output, and `_conv_stacked_backward` that sample's
    # bytes of the batch input gradient: a per-sample recompute inside another
    # op's backward keeps checkpoints byte-identical. Every kernel must size
    # its tiles by `_forward_tile` or `_TILE_FRAMES` as it reads when called.
    monkeypatch.setattr(autograd, "_TILE_FRAMES", tile)
    monkeypatch.setattr(autograd, "_forward_tile", lambda o, k, fo: tile)
    sizes = []
    tiles = autograd._tiles
    monkeypatch.setattr(autograd, "_tiles", lambda frames, size: sizes.append(size) or tiles(frames, size))
    rt, rf = dilation
    n, t, f = 3, (kt - 1) * rt + 40, (kf - 1) * rf + 12
    x = Tensor(RNG.standard_normal((n, c, t, f)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((o, c, kt, kf)).astype(np.float32), requires_grad=True)
    b = Tensor(RNG.standard_normal(o).astype(np.float32), requires_grad=True)
    out = x.conv2d(w, b, dilation)
    g = RNG.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()  # hands conv2d g as its output gradient
    w_aug = np.concatenate([w.data.transpose(2, 3, 1, 0).reshape(-1, o), b.data[None]])
    for s in range(n):
        x1 = x.data[s : s + 1]
        freq_taps = autograd._tap_windows(x1, 1, kf, dilation)
        if c == 1:
            y = autograd._conv_all_taps(autograd._tap_windows(x1, kt, kf, dilation), w_aug)
        else:
            y = autograd._conv_freq_taps(freq_taps, w_aug, rt)
        assert y.tobytes() == out.data[s : s + 1].tobytes()
        _, gx = autograd._conv_stacked_backward(freq_taps, g[s : s + 1], w_aug, dilation, False, True)
        assert gx.tobytes() == x.grad[s : s + 1].tobytes()
    assert set(sizes) == {tile}


def test_conv2d_forward_scratch_is_a_fraction_of_one_lowering():
    # A no-grad forward lowers a few frames at a time, straight from the
    # channels-first input: beyond its output it holds one tile's lowering
    # and two tile-sized GEMM buffers, at the tile `_forward_tile` picks
    # (64 frames, 0.29 lowerings here), not a channels-last copy of the
    # sample (0.38) nor the sample's whole (kf, c) lowering plus a full-size
    # GEMM result.
    c, o, kt, kf, dilation = 3, 4, 3, 5, (2, 1)
    t, f = 400, 40
    fo = f - (kf - 1) * dilation[1]
    lowering = t * fo * kf * c * 8
    tile = autograd._forward_tile(o, kf * c, fo)
    tile_scratch = (kf * c * (tile + (kt - 1) * dilation[0]) + 2 * o * tile) * fo * 8
    assert tile_scratch < 0.3 * lowering
    x = Tensor(RNG.standard_normal((1, c, t, f)))
    w = Tensor(RNG.standard_normal((o, c, kt, kf)))
    b = Tensor(RNG.standard_normal(o))
    with TracedMemory() as mem, no_grad():
        out = x.conv2d(w, b, dilation)
    assert mem.peak - out.data.nbytes < 1.25 * tile_scratch


def _conv2d_scratch(n, t):
    """Peak bytes that a forward and backward of conv2d hold beyond the
    output and the gradients it hands back: input (n, 3, t, 40), 4 filters
    of 3 x 5 taps at dilation (2, 1), so fo = 36."""
    x = Tensor(RNG.standard_normal((n, 3, t, 40)), requires_grad=True)
    w = Tensor(RNG.standard_normal((4, 3, 3, 5)), requires_grad=True)
    b = Tensor(RNG.standard_normal(4), requires_grad=True)
    with TracedMemory() as mem:
        out = x.conv2d(w, b, (2, 1))
        out.sum().backward()
    grads = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes + out.data.nbytes  # incl. out.grad
    return mem.peak - out.data.nbytes - grads


def test_conv2d_scratch_is_one_sample_lowering():
    # Beyond its output and the gradients it hands back, conv2d holds only
    # one tile's scratch: the backward's time-tap-stacked gradient G and the
    # tile's kf-only lowering, which then holds dY^T (1.22 of a sample's
    # lowering here). Not one sample's lowering, dY^T and GEMM result with
    # numpy's buffers for strided tap adds over the sample (3.47), two
    # samples' lowerings (4.4) nor the whole batch lowered at once (21.7).
    lowering = 60 * 36 * 5 * 3 * 8  # t * fo * kf * c float64s
    assert _conv2d_scratch(16, 60) < 1.5 * lowering


def test_conv2d_backward_scratch_does_not_grow_with_sample_length():
    # With more than one input channel the backward walks tiles of input
    # frames, so it holds the same scratch for a sample of t and of 4*t
    # frames: the two differ by less than one tile's G buffer (0.0001 of one
    # here). A backward that lowers the whole sample holds more at 4*t by
    # three samples' lowerings, dY^T and GEMM results (21 G buffers).
    g_tile = 3 * 4 * autograd._TILE_FRAMES * 36 * 8  # (kt*o, tile*fo) float64s
    assert abs(_conv2d_scratch(2, 4 * 60) - _conv2d_scratch(2, 60)) < g_tile


def test_conv2d_one_channel_scratch_is_one_tile_lowering():
    # With one input channel a tile lowers all kt*kf taps and a ones row,
    # (kt*kf + 1, tile*fo). A no-grad forward holds about one such tile of
    # the frames `_forward_tile` picks (64 here) beyond its output, and the
    # weight-gradient backward one of `_TILE_FRAMES` frames beyond the
    # gradients. Neither holds a sample's whole (kt*kf, to*fo) lowering (6.0
    # and 12.1 such tiles).
    o, kt, kf = 4, 7, 7
    t, f = 400, 40
    fo = f - kf + 1

    def tile_lowering(frames):
        return (kt * kf + 1) * frames * fo * 8

    x = Tensor(RNG.standard_normal((2, 1, t, f)))
    w = Tensor(RNG.standard_normal((o, 1, kt, kf)), requires_grad=True)
    b = Tensor(RNG.standard_normal(o), requires_grad=True)
    with TracedMemory() as mem, no_grad():
        out = x.conv2d(w, b)
    assert mem.peak - out.data.nbytes < 1.25 * tile_lowering(autograd._forward_tile(o, kt * kf + 1, fo))
    loss = x.conv2d(w, b).sum()
    with TracedMemory() as mem:
        loss.backward()
    grads = w.grad.nbytes + b.grad.nbytes + out.data.nbytes  # incl. the output's gradient
    assert mem.peak < grads + 1.25 * tile_lowering(autograd._TILE_FRAMES)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv2d_block1_float32_matches_float64_oracle(k):
    # The model's block-1 geometry (c_in 1, 16 filters, k x k, a 10 s clip of
    # 64 mel bins) in float32: output, weight and bias gradients within 1e-5
    # of the float64 oracle. The weight gradient of loss sum(out * m) is
    # linear in the oracle's output: tap (i, j) reads sum(m * conv(x, e_ij)).
    x = RNG.standard_normal((2, 1, 1001, 64)).astype(np.float32)
    bound = np.sqrt(6.0 / (k * k))
    w = RNG.uniform(-bound, bound, (16, 1, k, k)).astype(np.float32)
    b = RNG.uniform(-0.5, 0.5, 16).astype(np.float32)
    x64, w64, b64 = x.astype(np.float64), w.astype(np.float64), b.astype(np.float64)
    m = RNG.standard_normal((2, 16, 1001 - k + 1, 64 - k + 1)).astype(np.float32)
    m64 = m.astype(np.float64)
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    out = Tensor(x).conv2d(wt, bt)
    (out * Tensor(m)).sum().backward()
    assert out.data.dtype == wt.grad.dtype == bt.grad.dtype == np.float32
    assert rel_err(out.data, naive_conv2d(x64, w64, b64)) < 1e-5
    gw = np.zeros((16, 1, k, k))
    for i in range(k):
        for j in range(k):
            tap = np.zeros((1, 1, k, k))
            tap[0, 0, i, j] = 1.0
            gw[:, 0, i, j] = (m64 * naive_conv2d(x64, tap, np.zeros(1))).sum(axis=(0, 2, 3))
    assert rel_err(wt.grad, gw) < 1e-5
    assert rel_err(bt.grad, m64.sum(axis=(0, 2, 3))) < 1e-5
    # Zero weights give the bias bit for bit: the ones row carries it alone.
    with no_grad():
        zero = Tensor(x).conv2d(Tensor(np.zeros_like(w)), bt).data
    assert np.array_equal(zero, np.broadcast_to(b[None, :, None, None], zero.shape))


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv2d_blocks23_float32_matches_float64_oracle(k, block):
    # The model's block-2 and block-3 geometries (16 -> 32 channels at
    # dilation (2, 1), 32 -> 64 at (3, 1)) at a 6 s crop, 2 samples, in
    # float32: output, input, weight and bias gradients within 1e-5 of a
    # float64 oracle. Of loss sum(out * m), tap (i, j) adds m contracted with
    # w[:, :, i, j] into its window of the input gradient, and its weight
    # gradient is m contracted with that window of x.
    chans = (1,) + ModelConfig.filters
    t, f = target_frames(6.0), N_MELS
    for rt, rf in ModelConfig.dilations[: block - 1]:
        t, f = (t - (k - 1) * rt) // 2, (f - (k - 1) * rf) // 2
    c, o = chans[block - 1], chans[block]
    rt, rf = ModelConfig.dilations[block - 1]
    to, fo = t - (k - 1) * rt, f - (k - 1) * rf
    x = RNG.standard_normal((2, c, t, f)).astype(np.float32)
    bound = np.sqrt(6.0 / (c * k * k))
    w = RNG.uniform(-bound, bound, (o, c, k, k)).astype(np.float32)
    b = RNG.uniform(-0.5, 0.5, o).astype(np.float32)
    m = RNG.standard_normal((2, o, to, fo)).astype(np.float32)
    x64, w64, b64, m64 = (a.astype(np.float64) for a in (x, w, b, m))
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = xt.conv2d(wt, bt, (rt, rf))
    (out * Tensor(m)).sum().backward()
    assert out.data.dtype == xt.grad.dtype == wt.grad.dtype == bt.grad.dtype == np.float32
    assert rel_err(out.data, naive_conv2d(x64, w64, b64, (rt, rf))) < 1e-5
    gx = np.zeros(x.shape)
    gw = np.empty(w.shape)
    for i in range(k):
        for j in range(k):
            window = (slice(None), slice(None), slice(i * rt, i * rt + to), slice(j * rf, j * rf + fo))
            gx[window] += np.einsum("nouv,oc->ncuv", m64, w64[:, :, i, j])
            gw[:, :, i, j] = np.einsum("nouv,ncuv->oc", m64, x64[window])
    assert rel_err(xt.grad, gx) < 1e-5
    assert rel_err(wt.grad, gw) < 1e-5
    assert rel_err(bt.grad, m64.sum(axis=(0, 2, 3))) < 1e-5


def test_conv2d_backward_holds_one_input_gradient():
    # The input gradient is built once and stored as the leaf's grad, not
    # added into a second, zeroed input-sized array.
    x = Tensor(RNG.standard_normal((32, 4, 40, 40)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 4, 3, 3)))
    loss = x.conv2d(w, Tensor(np.zeros(2))).sum()
    out_bytes = 32 * 2 * 38 * 38 * 8  # out.grad
    with TracedMemory() as mem:
        loss.backward()
    assert mem.peak < out_bytes + 1.5 * x.data.nbytes


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 2, 10, 10)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    with pytest.raises(ValueError):
        x.conv2d(w, Tensor(np.zeros(4)))
    w2 = Tensor(np.zeros((4, 2, 7, 7)))
    with pytest.raises(ValueError):  # effective kernel 13 > 10
        x.conv2d(w2, Tensor(np.zeros(4)), (2, 1))


def test_batch_norm_training_grads():
    x = RNG.standard_normal((3, 2, 4, 5))
    gamma = RNG.uniform(0.5, 1.5, 2)
    beta = RNG.standard_normal(2)
    c = RNG.standard_normal((3, 2, 4, 5))

    def build(ts):
        rm = np.zeros(2)
        rv = np.ones(2)
        out = ts["x"].batch_norm(ts["gamma"], ts["beta"], rm, rv, training=True)
        return (out * ts["c"]).sum()

    check_grads(build, {"x": x, "gamma": gamma, "beta": beta, "c": c})


def test_batch_norm_eval_grads_and_running_stats():
    x = RNG.standard_normal((4, 3, 5, 6))
    rm = np.zeros(3)
    rv = np.ones(3)
    t = Tensor(x, requires_grad=True)
    g = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = t.batch_norm(g, b, rm, rv, training=True)
    # Running buffers blend toward batch stats.
    assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)))
    assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))
    # Training-mode output is standardized per channel (biased variance).
    assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-10
    assert np.abs(out.data.std(axis=(0, 2, 3)) - 1.0).max() < 1e-3

    # Eval mode: pure affine via buffers; gradient check.
    rm2 = RNG.standard_normal(3)
    rv2 = RNG.uniform(0.5, 2.0, 3)

    def build(ts):
        out = ts["x"].batch_norm(ts["gamma"], ts["beta"], rm2.copy(), rv2.copy(), training=False)
        return (out * ts["c"]).sum()

    check_grads(
        build,
        {
            "x": RNG.standard_normal((2, 3, 3, 4)),
            "gamma": RNG.uniform(0.5, 1.5, 3),
            "beta": RNG.standard_normal(3),
            "c": RNG.standard_normal((2, 3, 3, 4)),
        },
    )


def _gamma_beta(c, rng=RNG):
    """BN affine parameters; beta stays small, so a `kink_free_bn_input`
    keeps the ReLU input off zero."""
    return rng.uniform(0.5, 1.5, c), rng.uniform(-0.1, 0.1, c)


@pytest.mark.parametrize("training", [True, False])
def test_bn_relu_pool_matches_unfused_composition(training):
    n, c, t, f = 4, 3, 9, 7  # odd t and f: a trailing row and column are dropped
    rng = np.random.default_rng(17)
    start_mean = rng.standard_normal(c).astype(np.float32)
    start_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    # Centred on the running statistics, so the ReLU clips whole windows in
    # eval mode too.
    x = Tensor((start_mean.reshape(1, -1, 1, 1)
                + np.sqrt(start_var).reshape(1, -1, 1, 1) * rng.standard_normal((n, c, t, f))
                ).astype(np.float32))
    gamma, beta = (Tensor(v.astype(np.float32)) for v in _gamma_beta(c, rng))
    bufs = [(start_mean.copy(), start_var.copy()) for _ in range(2)]
    fused = x.bn_relu_pool(gamma, beta, *bufs[0], training=training)
    ref = x.batch_norm(gamma, beta, *bufs[1], training=training).relu().avg_pool2d()
    assert fused.data.dtype == np.float32
    assert fused.data.shape == ref.data.shape == (n, c, 4, 3)
    assert np.allclose(fused.data, ref.data, rtol=1e-5, atol=1e-6)
    assert (fused.data > 0).any() and (fused.data == 0).any()
    for got, want in zip(bufs[0], bufs[1]):
        assert np.array_equal(got, want)
    if not training:
        assert np.array_equal(bufs[0][0], start_mean) and np.array_equal(bufs[0][1], start_var)


@pytest.mark.parametrize("training", [True, False])
def test_bn_relu_pool_long_input_matches_unfused_composition(monkeypatch, training):
    # 203 frames: 101 pooled frames, a prime count; the odd trailing frame
    # is dropped. Five channels split into tiles of 2, 2 and 1.
    n, c, t, f = 2, 5, 203, 7
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((n, c, t, f)))
    gamma, beta = (Tensor(v) for v in _gamma_beta(c, rng))
    _uneven_groups(monkeypatch, x.data)
    rm, rv = 0.1 * rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
    bufs = [(rm.copy(), rv.copy()) for _ in range(2)]
    fused = x.bn_relu_pool(gamma, beta, *bufs[0], training=training)
    ref = x.batch_norm(gamma, beta, *bufs[1], training=training).relu().avg_pool2d()
    assert fused.data.shape == ref.data.shape == (n, c, 101, 3)
    assert rel_err(fused.data, ref.data) < 1e-12
    assert (fused.data > 0).any() and (fused.data == 0).any()
    for got, want in zip(bufs[0], bufs[1]):
        assert np.array_equal(got, want)


# Negative and zero gamma: q = gamma * inv_std / 4 changes sign or is 0, so
# the clamp holds cells above the kink, or every cell of a channel.
SIGNED_GAMMA = np.array([-0.8, 0.0, 0.0, 1.2])
SIGNED_BETA = np.array([0.05, -0.07, 0.06, 0.03])


@pytest.mark.parametrize("training", [True, False])
def test_bn_relu_pool_signed_gamma_matches_unfused_composition(training):
    n, c, t, f = 2, 4, 9, 7
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((n, c, t, f)))
    gamma, beta = Tensor(SIGNED_GAMMA), Tensor(SIGNED_BETA)
    rm, rv = 0.1 * rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
    fused = x.bn_relu_pool(gamma, beta, rm.copy(), rv.copy(), training=training)
    ref = x.batch_norm(gamma, beta, rm.copy(), rv.copy(), training=training).relu().avg_pool2d()
    assert rel_err(fused.data, ref.data) < 1e-12
    assert (fused.data[:, 0] > 0).any() and (fused.data[:, 0] == 0).any()
    # gamma = 0: every cell is beta; a negative beta clamps every window.
    assert np.array_equal(fused.data[:, 1], np.zeros_like(fused.data[:, 1]))
    assert np.allclose(fused.data[:, 2], SIGNED_BETA[2], rtol=1e-15, atol=0)


@pytest.mark.parametrize("training", [True, False])
def test_bn_relu_pool_signed_gamma_grads(training):
    n, c, t, f = 4, 4, 5, 7
    rm, rv = RNG.standard_normal(c), RNG.uniform(0.5, 2.0, c)
    x = kink_free_bn_input(RNG, (n, c, t, f), rm, np.sqrt(rv + 1e-5))

    def build(ts):
        out = ts["x"].bn_relu_pool(ts["gamma"], ts["beta"], rm.copy(), rv.copy(), training=training)
        return (out * ts["c"]).sum()

    check_grads(build, {"x": x, "gamma": SIGNED_GAMMA, "beta": SIGNED_BETA,
                        "c": RNG.standard_normal((n, c, t // 2, f // 2))})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_relu_pool_inputs_on_the_clamp(dtype):
    # Eval mode with zero running means, so the shift is beta itself. Each
    # channel gets an x0 with x0 * q on the clamp exactly (beta = -4 * x0 * q),
    # and every cell is x0, or on the clamped side of it, or well past it.
    # Odd t and f: the dropped row and column get no gradient either.
    n, c, t, f = 2, 3, 9, 7
    rng = np.random.default_rng(31)
    gamma = np.array([0.7, -1.3, 0.45], dtype=dtype)
    rm, rv = np.zeros(c, dtype=dtype), np.array([0.8, 1.7, 0.3], dtype=dtype)
    scale = autograd._bn_fold(gamma, np.zeros(c, dtype=dtype), rm, rv)[1].astype(dtype)
    x0 = np.array([0.37, -0.52, 1.1], dtype=dtype)
    beta = -4 * (x0 * (0.25 * scale))
    side = rng.choice([-1.0, 0.0, 1.0], (n, c, t, f)) * rng.uniform(0.1, 1.0, (n, c, t, f))
    side[:, :, :2, :2] = 0.0  # the first window: all four cells on the clamp
    side[:, :, :2, 2:4] = -np.abs(side[:, :, :2, 2:4])  # the second: clamped, some on it
    x = (x0[:, None, None] + np.sign(scale)[:, None, None] * side).astype(dtype)
    clamped = side <= 0
    xt = Tensor(x, requires_grad=True)
    out = xt.bn_relu_pool(Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(), training=False)
    windows = clamped[:, :, :8, :6].reshape(n, c, 4, 2, 3, 2).all(axis=(3, 5))
    assert windows[:, :, 0, :2].all() and not windows.all()
    assert np.array_equal(out.data[windows], np.zeros(windows.sum(), dtype=dtype))
    assert (out.data >= 0).all() and (out.data[~windows] > 0).all()
    ref = Tensor(x).batch_norm(Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(), training=False)
    assert np.allclose(out.data, ref.relu().avg_pool2d().data, rtol=1e-5, atol=1e-6)
    out.sum().backward()
    assert np.array_equal(xt.grad[clamped], np.zeros(clamped.sum(), dtype=dtype))
    assert (xt.grad[:, :, 8:] == 0).all() and (xt.grad[:, :, :, 6:] == 0).all()
    active = ~clamped
    active[:, :, 8:] = active[:, :, :, 6:] = False
    want = np.broadcast_to((0.25 * scale)[:, None, None], x.shape)
    assert np.allclose(xt.grad[active], want[active], rtol=1e-6, atol=0)


@pytest.mark.parametrize("training", [True, False])
def test_unfused_references_run_no_tail_helper(monkeypatch, training):
    # The references share only `_bn_stats` with `bn_relu_pool`, so a fault
    # in one of the fused op's helpers cannot show up on both sides of the
    # equivalence tests and cancel out.
    def forbidden(*args, **kwargs):
        raise AssertionError("an unfused reference ran a fused-tail helper")

    for name in ("_bn_fold", "_pool_windows"):
        monkeypatch.setattr(autograd, name, forbidden)
    n, c, t, f = 2, 3, 5, 7
    x = Tensor(RNG.standard_normal((n, c, t, f)), requires_grad=True)
    gamma, beta = (Tensor(v, requires_grad=True) for v in _gamma_beta(c))
    out = x.batch_norm(gamma, beta, np.zeros(c), np.ones(c), training=training).relu().avg_pool2d()
    out.sum().backward()
    assert x.grad.shape == (n, c, t, f) and gamma.grad.shape == beta.grad.shape == (c,)
    with no_grad():
        out = x.batch_norm(gamma, beta, np.zeros(c), np.ones(c), training=training).relu().avg_pool2d()
    assert out.data.shape == (n, c, 2, 3)


def test_bn_relu_pool_forward_never_builds_a_full_size_array():
    # A no-grad forward rectifies one channel group at a time: beyond its
    # quarter-size output it holds one tile, not a second full-size array.
    # Float64 with 4 channels of 128,000 bytes: a tile budget counted in
    # elements rather than bytes would put all four in one tile and fail.
    c, t, f = 4, 400, 40
    x = Tensor(RNG.standard_normal((1, c, t, f)))
    gamma, beta = (Tensor(v) for v in _gamma_beta(c))
    with TracedMemory() as mem, no_grad():
        out = x.bn_relu_pool(gamma, beta, np.zeros(c), np.ones(c), training=False)
    assert mem.peak - out.data.nbytes < 0.5 * x.data.nbytes


def _uneven_groups(monkeypatch, x: np.ndarray) -> None:
    """Shrink the tail's tile budget to two channels of x, so its channels
    split unevenly into groups: 5 channels as 2, 2, 1."""
    monkeypatch.setattr(autograd, "_TAIL_TILE_BYTES", 2 * x[0, 0].nbytes)
    assert autograd._channel_groups(x) == [(0, 2), (2, 4), (4, 5)]


@pytest.mark.parametrize("training", [True, False])
def test_bn_relu_pool_channel_groups_grads(monkeypatch, training):
    # Tiles of 2, 2 and 1 channels, and odd t and f: the dropped row and
    # column get no pooled gradient, only the batch-statistics terms in
    # training mode.
    n, c, t, f = 4, 5, 9, 7
    rm, rv = RNG.standard_normal(c), RNG.uniform(0.5, 2.0, c)
    x = kink_free_bn_input(RNG, (n, c, t, f), rm, np.sqrt(rv + 1e-5))
    gamma, beta = _gamma_beta(c)
    _uneven_groups(monkeypatch, x)

    def build(ts):
        out = ts["x"].bn_relu_pool(ts["gamma"], ts["beta"], rm.copy(), rv.copy(), training=training)
        return (out * ts["c"]).sum()

    check_grads(build, {"x": x, "gamma": gamma, "beta": beta,
                        "c": RNG.standard_normal((n, c, t // 2, f // 2))})


def test_bn_stats_float32_far_from_zero(monkeypatch):
    # |mean| >> std in float32: each group is centred in float64 before it is
    # squared, so the variance is off only by its rounding to float32
    # (3.6e-8 here; a float32 `x.var` read 6.9e-8).
    rng = np.random.default_rng(29)
    x = (100.0 + 0.1 * rng.standard_normal((6, 5, 33, 17))).astype(np.float32)
    _uneven_groups(monkeypatch, x)
    mu, var = autograd._bn_stats(x, np.zeros(5), np.ones(5), training=True)
    want = x.astype(np.float64)
    assert mu.dtype == var.dtype == np.float32
    assert rel_err(mu, want.mean(axis=(0, 2, 3))) < 1e-7
    assert np.abs(var / want.var(axis=(0, 2, 3)) - 1).max() < 1e-6


def test_bn_relu_pool_backward_scratch_is_one_tile():
    # Training-mode backward walks x one channel group at a time: beyond the
    # input gradient and the incoming gradient it holds one tile and a few
    # smaller buffers (0.25 of the input here), not a full-size unpooled
    # gradient plus a full-size recomputed array (1.07).
    n, c, t, f = 4, 8, 100, 40
    x = Tensor(RNG.standard_normal((n, c, t, f)), requires_grad=True)
    gamma, beta = (Tensor(v, requires_grad=True) for v in _gamma_beta(c))
    loss = x.bn_relu_pool(gamma, beta, np.zeros(c), np.ones(c), training=True).sum()
    incoming = n * c * (t // 2) * (f // 2) * 8
    with TracedMemory() as mem:
        loss.backward()
    assert mem.peak - incoming - x.grad.nbytes < 0.5 * x.data.nbytes


def test_bn_relu_pool_training_grads():
    n, c, t, f = 4, 2, 5, 7
    mean, std = RNG.standard_normal(c), RNG.uniform(0.5, 2.0, c)
    x = kink_free_bn_input(RNG, (n, c, t, f), mean, std)
    gamma, beta = _gamma_beta(c)

    def build(ts):
        out = ts["x"].bn_relu_pool(ts["gamma"], ts["beta"], np.zeros(c), np.ones(c), training=True)
        return (out * ts["c"]).sum()

    # The ReLU input sits well off its kink, so finite differences are exact.
    h = Tensor(x).batch_norm(Tensor(gamma), Tensor(beta), np.zeros(c), np.ones(c), training=True)
    assert np.abs(h.data).min() > 0.1
    check_grads(build, {"x": x, "gamma": gamma, "beta": beta,
                        "c": RNG.standard_normal((n, c, t // 2, f // 2))})


def test_bn_relu_pool_eval_grads():
    n, c, t, f = 2, 3, 4, 5
    rm, rv = RNG.standard_normal(c), RNG.uniform(0.5, 2.0, c)
    x = kink_free_bn_input(RNG, (n, c, t, f), rm, np.sqrt(rv + 1e-5))
    gamma, beta = _gamma_beta(c)

    def build(ts):
        out = ts["x"].bn_relu_pool(ts["gamma"], ts["beta"], rm.copy(), rv.copy(), training=False)
        return (out * ts["c"]).sum()

    check_grads(build, {"x": x, "gamma": gamma, "beta": beta,
                        "c": RNG.standard_normal((n, c, t // 2, f // 2))})


def _graph_bytes(block) -> tuple[int, int]:
    """Bytes a conv -> `block` graph at batch 8 keeps alive after forward,
    and the size of one full-size (conv output) array."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((8, 1, 60, 64)).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 1, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    gamma = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    bufs = (np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32))
    with TracedMemory() as mem:
        out = block(x.conv2d(w, b), gamma, beta, *bufs)
    assert out.requires_grad
    return mem.held, 8 * 16 * 58 * 62 * 4


def test_bn_relu_pool_graph_keeps_one_full_size_array():
    kept, full = _graph_bytes(lambda h, g, b, rm, rv: h.bn_relu_pool(g, b, rm, rv, training=True))
    # The conv output plus the quarter-size pooled output and a few vectors.
    assert kept < 1.5 * full


@pytest.mark.parametrize("tail_bytes", [1, 64 * 1024 * 1024], ids=["tail-1B", "tail-64MiB"])
@pytest.mark.parametrize("tile", TILE_GRAD_FRAMES)
@pytest.mark.parametrize("training", [True, False])
def test_conv_bn_relu_pool_matches_the_composition_bit_for_bit(monkeypatch, training, tile, tail_bytes):
    # A one-channel training block recomputes its conv output one sample at
    # a time in each of the tail's two backward passes; the output, every
    # gradient and the running buffers keep the bits of conv2d ->
    # bn_relu_pool at any forward tile and tail tile.
    monkeypatch.setattr(autograd, "_forward_tile", lambda o, k, fo: tile)
    monkeypatch.setattr(autograd, "_TAIL_TILE_BYTES", tail_bytes)
    calls = []
    kernel = autograd._conv_all_taps
    monkeypatch.setattr(autograd, "_conv_all_taps", lambda win, w_aug: calls.append(len(win)) or kernel(win, w_aug))
    rng = np.random.default_rng(37)
    n, o, k, dilation = 3, 6, 5, (2, 1)
    x = rng.standard_normal((n, 1, 41, 19)).astype(np.float32)
    params = {"w": rng.standard_normal((o, 1, k, k)), "b": 0.1 * rng.standard_normal(o),
              "gamma": rng.uniform(0.5, 1.5, o), "beta": rng.uniform(-0.1, 0.1, o)}
    g = Tensor(rng.standard_normal((n, o, 16, 7)).astype(np.float32))

    def run(fused: bool) -> list[np.ndarray]:
        xt = Tensor(x, requires_grad=True)
        w, b, gamma, beta = (Tensor(v.astype(np.float32), requires_grad=True) for v in params.values())
        bufs = (np.full(o, 0.1, np.float32), np.full(o, 1.5, np.float32))
        if fused:
            out = xt.conv_bn_relu_pool(w, b, dilation, gamma, beta, *bufs, training)
        else:
            out = xt.conv2d(w, b, dilation).bn_relu_pool(gamma, beta, *bufs, training)
        (out * g).sum().backward()
        return [out.data, xt.grad, w.grad, b.grad, gamma.grad, beta.grad, *bufs]

    fused = run(True)
    assert calls == ([n] + [1] * 2 * n if training else [n])
    for got, want in zip(fused, run(False), strict=True):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_conv_bn_relu_pool_one_channel_training_grads():
    # Float64 finite differences through the recompute: a one-channel input
    # in training mode, the path that keeps no conv output in the graph.
    rng = np.random.default_rng(43)
    n, o, k, dilation = 2, 2, 3, (2, 1)
    x = rng.standard_normal((n, 1, 14, 10))
    w, b = rng.standard_normal((o, 1, k, k)), rng.standard_normal(o)
    gamma, beta = _gamma_beta(o, rng)
    # The ReLU input sits off its kink, so finite differences are exact.
    h = Tensor(x).conv2d(Tensor(w), Tensor(b), dilation)
    h = h.batch_norm(Tensor(gamma), Tensor(beta), np.zeros(o), np.ones(o), training=True)
    assert np.abs(h.data).min() > 1e-3

    # The batch mean takes the conv bias out, so its gradient is zero up to
    # rounding and no relative error is defined; it stays a constant here.
    def build(ts):
        out = ts["x"].conv_bn_relu_pool(ts["w"], Tensor(b), dilation, ts["gamma"], ts["beta"],
                                        np.zeros(o), np.ones(o), training=True)
        return (out * ts["c"]).sum()

    check_grads(build, {"x": x, "w": w, "gamma": gamma, "beta": beta,
                        "c": rng.standard_normal((n, o, 5, 4))})


def test_dropout_grads_and_scaling():
    x = RNG.standard_normal((8, 10))
    p = 0.4

    def build(ts):
        rng = np.random.default_rng(99)  # same mask every call
        return (ts["x"].dropout(p, rng, training=True) * ts["c"]).sum()

    check_grads(build, {"x": x, "c": RNG.standard_normal((8, 10))})

    t = Tensor(x, requires_grad=True)
    out = t.dropout(p, np.random.default_rng(99), training=True)
    kept = out.data != 0
    assert np.allclose(out.data[kept], x[kept] / (1 - p))
    # Eval mode is the identity.
    assert t.dropout(p, np.random.default_rng(0), training=False) is t


def test_concat_grads():
    check_grads(
        lambda ts: (concat([ts["a"], ts["b"], ts["c"]], axis=1) * ts["m"]).sum(),
        {
            "a": RNG.standard_normal((3, 2)),
            "b": RNG.standard_normal((3, 4)),
            "c": RNG.standard_normal((3, 1)),
            "m": RNG.standard_normal((3, 7)),
        },
    )


def test_softmax_and_cross_entropy():
    logits = RNG.standard_normal((5, 4))
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)
    # Invariance to per-row shift.
    assert np.allclose(softmax(logits + 100.0), probs)

    labels = np.array([0, 3, 1, 2, 2])
    check_grads(lambda ts: cross_entropy(ts["x"], labels), {"x": logits})
    # Analytic gradient = (softmax - onehot) / n.
    t = Tensor(logits.astype(np.float64), requires_grad=True)
    loss = cross_entropy(t, labels)
    loss.backward()
    onehot = np.zeros_like(logits)
    onehot[np.arange(5), labels] = 1.0
    assert np.allclose(t.grad, (softmax(logits) - onehot) / 5, atol=1e-12)
    # Loss value matches direct formula.
    expected = -np.log(softmax(logits)[np.arange(5), labels]).mean()
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_backward_frees_each_activation_once_it_has_run():
    # `mid` is held by nothing but the graph. Its closure runs before
    # `first`'s, so by the time `first`'s closure runs, backward must have
    # let go of `mid`'s output array.
    x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)

    def build():
        first = x * Tensor(RNG.standard_normal((3, 4)))
        mid = first.relu()
        loss = (mid * Tensor(RNG.standard_normal((3, 4)))).sum()
        return first, weakref.ref(mid.data), loss

    first, mid_data, loss = build()
    freed = []
    inner = first._backward

    def spy():
        freed.append(mid_data() is None)
        inner()

    first._backward = spy
    loss.backward()
    assert freed == [True]
    assert x.grad is not None


def test_no_grad_blocks_graph():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = (a + a) * a
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_is_per_thread():
    # Two threads' no_grad blocks overlap and exit in entry order: the first
    # thread leaves while the second is still inside. A process-wide flag
    # would be restored to "off" by the second thread's exit.
    steps = [threading.Event() for _ in range(3)]
    seen = {}

    def first():
        with no_grad():
            steps[0].set()
            steps[1].wait(5)
        steps[2].set()

    def second():
        steps[0].wait(5)
        a = Tensor(np.ones(2), requires_grad=True)
        seen["before"] = (a * a).requires_grad  # other thread is in no_grad
        with no_grad():
            steps[1].set()
            steps[2].wait(5)
            seen["inside"] = (a * a).requires_grad

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(10)
    assert not any(th.is_alive() for th in threads)
    assert all(e.is_set() for e in steps)
    assert seen == {"before": True, "inside": False}
    a = Tensor(np.ones(2), requires_grad=True)
    assert (a * a).requires_grad


def test_grad_accumulates_over_reuse():
    a = Tensor(np.array([2.0]), requires_grad=True)
    out = (a * a) + a  # d/da = 2a + 1 = 5
    out.sum().backward()
    assert a.grad[0] == pytest.approx(5.0)


def test_accumulate_keeps_aliased_gradients_apart():
    # `__add__` hands the same array to both parents, so the first gradient
    # a leaf stores can be another leaf's gradient as well.
    a = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    c = RNG.standard_normal((3, 4))

    def loss():
        return (((a + b) + a) * Tensor(c)).sum()

    loss().backward()
    assert np.array_equal(a.grad, c + c)
    assert np.array_equal(b.grad, c)
    first_a, first_b = a.grad, b.grad
    loss().backward()  # no zero_grad: gradients add up
    assert np.array_equal(a.grad, (c + c) + (c + c))
    assert np.array_equal(b.grad, c + c)
    assert np.array_equal(first_a, c + c) and np.array_equal(first_b, c)


def test_constant_operands_receive_no_gradient():
    # A tensor that does not require a gradient never gets one, whichever op
    # it feeds, while the operands that do require one get theirs.
    def pair(*shape):
        return (Tensor(RNG.standard_normal(shape), requires_grad=True),
                Tensor(RNG.standard_normal(shape)))

    (a, ca), (m, cm), (w, cw), (e, ce) = pair(3, 4), pair(3, 4), pair(4, 2), pair(3, 1)
    x = Tensor(RNG.standard_normal((1, 2, 6, 6)), requires_grad=True)
    weight = Tensor(RNG.standard_normal((3, 2, 3, 3)), requires_grad=True)
    bias, gamma, beta = (Tensor(RNG.standard_normal(3)) for _ in range(3))
    h = x.conv2d(weight, bias).bn_relu_pool(gamma, beta, np.zeros(3), np.ones(3), training=True)
    loss = ((a + ca).sum() + (m * cm).sum() + a.matmul(cw).sum() + ca.matmul(w).sum()
            + concat([e, ce], axis=1).sum() + h.sum())
    loss.backward()
    for t in (ca, cm, cw, ce, bias, gamma, beta):
        assert t.grad is None
    for t in (a, m, w, e, x, weight):
        assert t.grad is not None and t.grad.shape == t.shape


def test_adam_first_step_hand_value():
    # One step with grad 1: m_hat = 1, v_hat = 1 -> theta -= lr / (1 + eps).
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(1.0 - 1e-3 / (1.0 + 1e-8), abs=1e-12)


def test_adam_matches_scalar_reference():
    # Independent scalar implementation carried along for 20 steps.
    rng = np.random.default_rng(7)
    p = Tensor(np.array([0.5, -1.2]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    theta = p.data.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    for step in range(1, 21):
        g = rng.standard_normal(2)
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** step)
        vhat = v / (1 - 0.999 ** step)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.data, theta, atol=1e-12)


def test_adam_skips_params_without_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 2.0
    opt.zero_grad()
    assert p.grad is None
