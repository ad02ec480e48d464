"""Autograd engine tests: finite-difference checks for every op, the naive
convolution oracle, and optimizer arithmetic."""

import threading
import tracemalloc

import numpy as np
import pytest
from conftest import check_grads, kink_free_bn_input, naive_conv2d, rel_err

from touch_audition.autograd import Tensor, concat, cross_entropy, no_grad, softmax
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


@pytest.mark.parametrize("dilation", [(1, 1), (2, 1), (3, 2)])
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
BATCH_CASES = [
    # (c_in, c_out, kt, kf, dilation)
    (1, 2, 3, 2, (2, 1)),
    (3, 2, 2, 3, (3, 2)),
    (3, 4, 3, 1, (2, 1)),
    (1, 3, 1, 3, (3, 2)),
    (1, 4, 7, 7, (1, 1)),
]


@pytest.mark.parametrize("c, o, kt, kf, dilation", BATCH_CASES)
def test_conv2d_batch_matches_naive(c, o, kt, kf, dilation):
    rt, rf = dilation
    t = (kt - 1) * rt + 4
    f = (kf - 1) * rf + 3
    x = RNG.standard_normal((5, c, t, f))
    w = RNG.standard_normal((o, c, kt, kf))
    b = RNG.standard_normal(o)
    got = Tensor(x).conv2d(Tensor(w), Tensor(b), dilation).data
    assert rel_err(got, naive_conv2d(x, w, b, dilation)) < 1e-6


@pytest.mark.parametrize("c, o, kt, kf, dilation", BATCH_CASES)
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
TILE_CASES = [
    # (c_in, c_out, kt, kf, dilation)
    (1, 2, 3, 2, (3, 1)),
    (3, 2, 5, 3, (1, 1)),
    (3, 3, 5, 1, (3, 1)),
    (1, 4, 7, 7, (1, 1)),
]


def _long_input_shape(n, c, kt, kf, dilation):
    rt, rf = dilation
    return n, c, (kt - 1) * rt + 101, (kf - 1) * rf + 2


@pytest.mark.parametrize("c, o, kt, kf, dilation", TILE_CASES)
def test_conv2d_long_input_matches_naive(c, o, kt, kf, dilation):
    x = RNG.standard_normal(_long_input_shape(2, c, kt, kf, dilation))
    w = RNG.standard_normal((o, c, kt, kf))
    b = RNG.standard_normal(o)
    got = Tensor(x).conv2d(Tensor(w), Tensor(b), dilation).data
    assert got.shape[2] == 101
    assert rel_err(got, naive_conv2d(x, w, b, dilation)) < 1e-6


@pytest.mark.parametrize("c, o, kt, kf, dilation", TILE_CASES)
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


def test_conv2d_forward_scratch_is_a_fraction_of_one_lowering():
    # A no-grad forward lowers a few frames at a time, straight from the
    # channels-first input: beyond its output it holds one tile's lowering
    # and two tile-sized GEMM buffers (0.16 lowerings here), not a
    # channels-last copy of the sample (0.38) nor the sample's whole (kf, c)
    # lowering plus a full-size GEMM result.
    c, o, kt, kf, dilation = 3, 4, 3, 5, (2, 1)
    t, f = 400, 40
    fo = f - (kf - 1) * dilation[1]
    lowering = t * fo * kf * c * 8
    x = Tensor(RNG.standard_normal((1, c, t, f)))
    w = Tensor(RNG.standard_normal((o, c, kt, kf)))
    b = Tensor(RNG.standard_normal(o))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with no_grad():
            out = x.conv2d(w, b, dilation)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.data.nbytes < 0.25 * lowering


def test_conv2d_scratch_is_one_sample_lowering():
    # Beyond its output and the gradients it hands back, conv2d holds only
    # single-sample scratch: one lowering, dY, one GEMM result and numpy's
    # fixed-size buffers for the strided tap and fold adds (3.46 lowerings
    # here). Not the channels-last lowering with its transposed input-gradient
    # fold (3.82), two samples' lowerings (4.4) nor the whole batch lowered
    # at once (21.7).
    n, c, o, kt, kf, dilation = 16, 3, 4, 3, 5, (2, 1)
    t, f = 60, 40
    fo = f - (kf - 1) * dilation[1]
    lowering = t * fo * kf * c * 8
    x = Tensor(RNG.standard_normal((n, c, t, f)), requires_grad=True)
    w = Tensor(RNG.standard_normal((o, c, kt, kf)), requires_grad=True)
    b = Tensor(RNG.standard_normal(o), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = x.conv2d(w, b, dilation)
        out.sum().backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    grads = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes + out.data.nbytes  # incl. out.grad
    assert peak < out.data.nbytes + grads + 3.6 * lowering


def test_conv2d_backward_holds_one_input_gradient():
    # The input gradient is built once and stored as the leaf's grad, not
    # added into a second, zeroed input-sized array.
    x = Tensor(RNG.standard_normal((32, 4, 40, 40)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 4, 3, 3)))
    loss = x.conv2d(w, Tensor(np.zeros(2))).sum()
    out_bytes = 32 * 2 * 38 * 38 * 8  # out.grad
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 1.5 * x.data.nbytes


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
    out = t.batch_norm(g, b, rm, rv, training=True, momentum=0.1)
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
def test_bn_relu_pool_long_input_matches_unfused_composition(training):
    # 203 frames: 101 pooled frames, a prime count, so the forward's time
    # tiles split them several times with a partial last tile; the odd
    # trailing frame is dropped.
    n, c, t, f = 2, 3, 203, 7
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((n, c, t, f)))
    gamma, beta = (Tensor(v) for v in _gamma_beta(c, rng))
    bufs = [(np.zeros(c), np.ones(c)) for _ in range(2)]
    fused = x.bn_relu_pool(gamma, beta, *bufs[0], training=training)
    ref = x.batch_norm(gamma, beta, *bufs[1], training=training).relu().avg_pool2d()
    assert fused.data.shape == ref.data.shape == (n, c, 101, 3)
    assert rel_err(fused.data, ref.data) < 1e-12
    assert (fused.data > 0).any() and (fused.data == 0).any()


def test_bn_relu_pool_forward_never_builds_a_full_size_array():
    # A no-grad forward rectifies a few frames at a time: beyond its
    # quarter-size output it holds one tile, not a second full-size array.
    c, t, f = 4, 400, 40
    x = Tensor(RNG.standard_normal((1, c, t, f)))
    gamma, beta = (Tensor(v) for v in _gamma_beta(c))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with no_grad():
            out = x.bn_relu_pool(gamma, beta, np.zeros(c), np.ones(c), training=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.data.nbytes < 0.5 * x.data.nbytes


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
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = block(x.conv2d(w, b), gamma, beta, *bufs)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return kept, 8 * 16 * 58 * 62 * 4


def test_bn_relu_pool_graph_keeps_one_full_size_array():
    kept, full = _graph_bytes(lambda h, g, b, rm, rv: h.bn_relu_pool(g, b, rm, rv, training=True))
    # The conv output plus the quarter-size pooled output and a few vectors.
    assert kept < 1.5 * full


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
