"""Model tests: parameter ledger, minimum-length contract, impulse
footprints, checkpoint round-trips, and mode behavior."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import TracedMemory, corrupted, dependency_footprint
from hypothesis import given, settings
from hypothesis import strategies as st

from touch_audition import autograd
from touch_audition.analysis import count_params, min_input_frames
from touch_audition.autograd import Tensor, cross_entropy, no_grad
from touch_audition.data import TASK_CLASSES, target_frames
from touch_audition.dsp import SAMPLE_RATE, num_frames
from touch_audition.errors import (
    AudioFormatError,
    CheckpointFormatError,
    InputTooShortError,
    TouchAuditionError,
)
from touch_audition.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    Mtrcnn,
    load_checkpoint,
    save_checkpoint,
)

RNG = np.random.default_rng(5)


def small_input(t=110, n=2):
    return RNG.standard_normal((n, 1, t, 64)).astype(np.float32)


def test_parameter_ledger_matches_live_model():
    # Hand ledger: per branch k -> convs 2576*k^2 + 112, bn 224, embed 4160;
    # fusion 12352; head 64K + K.
    cfg = ModelConfig()
    model = Mtrcnn(cfg, np.random.default_rng(0))
    params = model.parameters()
    n_params = sum(p.data.size for p in params.values())
    assert n_params == 240_038
    by_module: dict[str, int] = {}
    for name, p in params.items():
        head = name.split(".")[0]
        by_module[head] = by_module.get(head, 0) + p.data.size
    for k in (3, 5, 7):
        assert by_module[f"branch{k}"] == (2576 * k * k + 112) + 224 + 4160
    assert by_module["fusion"] == 12_352
    assert by_module["head"] == 6 * 64 + 6

    counted = count_params(cfg)
    assert counted["total"] == n_params
    # 5-class head differs from the 6-class one by exactly 65 parameters.
    five = count_params(ModelConfig(task="aro_val"))
    assert counted["total"] - five["total"] == 65


def test_parameter_names_are_complete_and_disjoint():
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    names = list(model.parameters())
    assert len(names) == len(set(names))
    for k in (3, 5, 7):
        assert f"branch{k}.conv1.weight" in names
        assert f"branch{k}.bn3.gamma" in names
        assert f"branch{k}.embed.bias" in names
    assert "fusion.weight" in names and "head.bias" in names
    buffers = model.buffers()
    assert "feature_mean" in buffers and "branch7.bn2.running_var" in buffers


def test_forward_minimum_length_contract():
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    assert model.min_frames == 110
    out = model.forward(small_input(110))
    assert out.data.shape == (2, 6)
    with pytest.raises(InputTooShortError):
        model.forward(small_input(109))
    with pytest.raises(AudioFormatError, match="expected 64 mel bins, got 32"):
        model.forward(RNG.standard_normal((1, 1, 110, 32)).astype(np.float32))


def test_pooled_footprint_equals_min_frames():
    # The first output of the k=7 branch at its minimum legal length depends
    # on every input frame: exact pooled receptive field == 110.
    chain = []
    for r in (1, 2, 3):
        chain.append(("conv", 7, r))
        chain.append(("pool",))
    assert dependency_footprint(chain, t_in=110, f_in=64) == 110
    assert min_input_frames(ModelConfig()) == 110


def test_unpooled_footprints_match_exact_convention():
    # Impulse truth for the no-pooling k=7 stack: [7, 19, 37].
    for depth, expected in ((1, 7), (2, 19), (3, 37)):
        chain = [("conv", 7, r) for r in (1, 2, 3)[:depth]]
        assert dependency_footprint(chain, t_in=40, f_in=4) == expected


def test_forward_is_deterministic_given_seed():
    x = small_input()
    a = Mtrcnn(ModelConfig(), np.random.default_rng(42)).forward(x).data
    b = Mtrcnn(ModelConfig(), np.random.default_rng(42)).forward(x).data
    c = Mtrcnn(ModelConfig(), np.random.default_rng(43)).forward(x).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_training_mode_uses_dropout_and_updates_bn():
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    x = small_input()
    before = model.buffers()["branch7.bn1.running_mean"].copy()
    with pytest.raises(ValueError):
        model.forward(x, training=True)  # dropout needs an rng
    out1 = model.forward(x, training=True, dropout_rng=np.random.default_rng(1)).data
    after = model.buffers()["branch7.bn1.running_mean"].copy()
    assert not np.array_equal(before, after)
    # Different dropout draws change the output; eval mode is stable.
    out2 = model.forward(x, training=True, dropout_rng=np.random.default_rng(2)).data
    assert not np.array_equal(out1, out2)
    e1 = model.forward(x).data
    e2 = model.forward(x).data
    assert np.array_equal(e1, e2)


def _graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from `root` through its parents, once each."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def test_training_graph_keeps_no_block1_conv_output():
    # Block 1's conv outputs are the largest arrays of a training forward
    # (one channel in, 16 out, at full resolution); its backward recomputes
    # them. No tensor in the graph has one's shape, and tracemalloc sees no
    # more held than the graph's own node arrays plus one copy of the
    # weights (the conv closures' W_aug), so no closure keeps one either.
    # Here a block-1 output is 2.8-3.1 MB and that copy under 1 MB.
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    n, t = 4, 200
    x = RNG.standard_normal((n, 1, t, 64)).astype(np.float32)
    with TracedMemory() as mem:
        logits = model.forward(x, training=True, dropout_rng=np.random.default_rng(1))
    nodes = [node for node in _graph_nodes(logits) if node._parents]
    block1 = {(n, 16, t - k + 1, 64 - k + 1) for k in ModelConfig.kernel_sizes}
    assert not block1 & {node.data.shape for node in nodes}
    weights = sum(p.data.nbytes for p in model.parameters().values())
    assert mem.held < sum(node.data.nbytes for node in nodes) + weights


def test_training_step_matches_the_unfused_blocks_bit_for_bit(monkeypatch):
    # Every conv block runs as one op, and block 1's training graph
    # recomputes its conv output in backward. A training step keeps the bits
    # of conv2d -> bn_relu_pool in the logits, every parameter gradient and
    # every running buffer.
    x = small_input(t=130, n=3)

    def step() -> list[np.ndarray]:
        model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
        logits = model.forward(x, training=True, dropout_rng=np.random.default_rng(1))
        cross_entropy(logits, np.arange(3)).backward()
        return [logits.data, *(p.grad for p in model.parameters().values()), *model.buffers().values()]

    fused = step()
    monkeypatch.setattr(Tensor, "conv_bn_relu_pool",
                        lambda h, w, b, dilation, *tail: h.conv2d(w, b, dilation).bn_relu_pool(*tail))
    for got, want in zip(fused, step(), strict=True):
        assert got.tobytes() == want.tobytes()


def test_training_backward_peak_stays_near_the_forward_graph():
    # Backward frees each activation once its own closure has run, so its
    # peak rises above the forward graph by less than block 1's conv output
    # gradient plus one recomputed sample of that conv output (1.25 block-1
    # outputs at this batch of 4; 1.13 measured), not by everything it
    # computes while every activation waits for it to return (1.89).
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    x = RNG.standard_normal((4, 1, 200, 64)).astype(np.float32)
    labels = np.arange(4)
    unit = 4 * 16 * 198 * 62 * 4  # one block-1 conv output, float32

    def forward():
        logits = model.forward(x, training=True, dropout_rng=np.random.default_rng(1))
        return cross_entropy(logits, labels)

    with TracedMemory() as mem:
        loss = forward()
        graph = mem.held_now()
        tracemalloc.reset_peak()
        loss.backward()
    assert (mem.peak - graph) / unit < 1.25


def test_predict_probabilities():
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    labels, probs = model.predict(small_input(150, n=3))
    assert labels.shape == (3,)
    assert probs.shape == (3, 6)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert np.array_equal(labels, probs.argmax(axis=1))


def test_eval_logits_do_not_depend_on_tile_sizes(monkeypatch):
    # The conv's output-frame tiles and the fused tail's channel tiles bound
    # scratch memory only: a 10 s clip's eval logits keep their bits at any
    # tile size, so eval, sweep and infer score a clip alike on any tiling.
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((1, 1, 997, 64)).astype(np.float32)

    def logits() -> bytes:
        with no_grad():
            return model.forward(x).data.tobytes()

    expected = logits()
    for tile_frames in (1, 5, 32, 997):
        for tail_bytes in (1, 128 * 1024, 64 * 1024 * 1024):
            monkeypatch.setattr(autograd, "_forward_tile", lambda o, k, fo: tile_frames)
            monkeypatch.setattr(autograd, "_TAIL_TILE_BYTES", tail_bytes)
            assert logits() == expected, (tile_frames, tail_bytes)


@pytest.mark.parametrize("frames", [num_frames(10 * SAMPLE_RATE), target_frames(6.0)],
                         ids=["10s_clip", "6s_crop"])
def test_forward_tiles_fit_the_small_gemm_cutoff(monkeypatch, frames):
    # Each conv forward of a 10 s clip and of the 6 s training crop tiles by
    # the frames `_forward_tile` picks from its GEMM's shape: the most, up to
    # 64, whose GEMMs keep within OpenBLAS's 100^3-MAC small-matrix cutoff,
    # or 32 where that would leave a GEMM under 256 columns (block 3).
    sizes = []
    tiles = autograd._tiles
    monkeypatch.setattr(autograd, "_tiles", lambda frames, size: sizes.append(size) or tiles(frames, size))
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    with no_grad():
        model.forward(small_input(frames, n=1))
    # Branches k = 3, 5, 7, each blocks 1-3.
    assert sizes == [64, 22, 32, 40, 15, 32, 21, 12, 32]


def test_checkpoint_round_trip(tmp_path):
    model = Mtrcnn(ModelConfig(task="arousal"), np.random.default_rng(9))
    model.feature_mean[:] = RNG.standard_normal(64)
    model.feature_std[:] = RNG.uniform(0.5, 2.0, 64)
    # Push the BN buffers off their init values so the round trip is honest.
    model.forward(small_input(120), training=True, dropout_rng=np.random.default_rng(0))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.config == model.config
    for name, p in model.parameters().items():
        assert np.array_equal(back.parameters()[name].data, p.data), name
    for name, b in model.buffers().items():
        assert np.array_equal(back.buffers()[name], b), name
    x = small_input(130)
    a = model.normalize(x)
    assert np.array_equal(model.forward(a).data, back.forward(back.normalize(x)).data)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, Mtrcnn(ModelConfig(), np.random.default_rng(3)))
    save_checkpoint(p2, Mtrcnn(ModelConfig(), np.random.default_rng(3)))
    assert open(p1, "rb").read() == open(p2, "rb").read()


# sha256 of the "name shape" lines, one per checkpoint entry in file order,
# for the default model: the 46 parameters, then the 20 buffers.
CHECKPOINT_ENTRIES_SHA256 = "95d7f5f6c7aefa57c8881df1091402be78918f370d33bb2598682967897b8eac"


def _checkpoint_entries(data: bytes) -> list[tuple[str, tuple[int, ...], int, int]]:
    """(name, shape, start, end) of every entry of checkpoint bytes, in file
    order, parsed field by field from the documented layout."""
    (blob_len,) = struct.unpack_from("<I", data, 8)
    off = 12 + blob_len
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    entries = []
    for _ in range(count):
        start = off
        (name_len,) = struct.unpack_from("<H", data, off)
        name = data[off + 2 : off + 2 + name_len].decode()
        off += 2 + name_len
        ndim = data[off]
        shape = struct.unpack_from(f"<{ndim}I", data, off + 1)
        off += 1 + 4 * ndim + 4 * int(np.prod(shape))
        entries.append((name, shape, start, off))
    assert off == len(data)
    return entries


def test_checkpoint_entry_names_and_order_are_pinned(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    entries = [(name, shape) for name, shape, _, _ in _checkpoint_entries(open(path, "rb").read())]
    assert len(entries) == 66
    assert entries[0] == ("branch3.conv1.weight", (16, 1, 3, 3))
    assert entries[45] == ("head.bias", (6,))
    assert entries[46] == ("branch3.bn1.running_mean", (16,))
    assert entries[-1] == ("feature_std", (64,))
    text = "\n".join(f"{name} {shape}" for name, shape in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == CHECKPOINT_ENTRIES_SHA256


def test_checkpoint_rejects_corruption(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    raw = open(path, "rb").read()

    bad_magic = str(tmp_path / "magic.ckpt")
    with open(bad_magic, "wb") as fh:
        fh.write(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(bad_magic)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(tmp_path / "missing.ckpt"))

    for name, blob in [
        ("trunc", raw[: len(raw) - 1000]),
        ("header", raw[:6]),           # magic plus half the version field
        ("trailing", raw + b"\x00"),
    ]:
        bad = str(tmp_path / f"{name}.ckpt")
        with open(bad, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)

    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    model.parameters()["head.weight"].data[0, 0] = np.nan
    nonfinite = str(tmp_path / "nan.ckpt")
    save_checkpoint(nonfinite, model)
    with pytest.raises(CheckpointFormatError, match="non-finite"):
        load_checkpoint(nonfinite)

    # Finite values that would make every prediction NaN: a feature std of
    # 0 (or below) and a negative running variance. A running variance of
    # exactly 0 can come out of training and still loads.
    for name, value, ok in [("feature_std", 0.0, False), ("feature_std", -1.0, False),
                            ("branch3.bn1.running_var", -1.0, False),
                            ("branch3.bn1.running_var", 0.0, True)]:
        model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
        model.buffers()[name][0] = value
        unusable = str(tmp_path / "unusable.ckpt")
        save_checkpoint(unusable, model)
        if ok:
            assert load_checkpoint(unusable).buffers()[name][0] == value
        else:
            with pytest.raises(CheckpointFormatError, match=name.replace(".", r"\.")):
                load_checkpoint(unusable)


def _edited_checkpoint(raw: bytes, case: str) -> bytes:
    """A saved default model's checkpoint with one entry header edited; each
    edit keeps every other byte readable."""
    entries = {name: (shape, start, end) for name, shape, start, end in _checkpoint_entries(raw)}
    _, bias_start, bias_end = entries["branch3.conv1.bias"]
    _, gamma_start, gamma_end = entries["branch3.bn1.gamma"]
    weight_start = entries["branch3.conv1.weight"][1]
    dims = weight_start + 2 + len("branch3.conv1.weight") + 1
    count = 12 + struct.unpack_from("<I", raw, 8)[0]
    if case == "swapped":  # two (16,) entries trade places with their data
        assert bias_end == gamma_start
        return raw[:bias_start] + raw[gamma_start:gamma_end] + raw[bias_start:bias_end] + raw[gamma_end:]
    if case == "renamed":  # branch3.conv1.weight -> cranch3.conv1.weight
        return raw[: weight_start + 2] + b"c" + raw[weight_start + 3 :]
    if case == "reshaped":  # (16, 1, 3, 3) -> (16, 3, 1, 3), the same size
        assert struct.unpack_from("<4I", raw, dims) == (16, 1, 3, 3)
        return raw[:dims] + struct.pack("<4I", 16, 3, 1, 3) + raw[dims + 16 :]
    assert case == "dropped"  # the last entry, feature_std, gone and counted out
    return raw[:count] + struct.pack("<I", len(entries) - 1) + raw[count + 4 : entries["feature_std"][1]]


@pytest.mark.parametrize("case", ["swapped", "renamed", "reshaped", "dropped"])
def test_checkpoint_rejects_edited_entry_headers(tmp_path, case):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    edited = str(tmp_path / f"{case}.ckpt")
    with open(edited, "wb") as fh:
        fh.write(_edited_checkpoint(open(path, "rb").read(), case))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(edited)


def test_config_blob_round_trip():
    for task, classes in TASK_CLASSES.items():
        cfg = ModelConfig(task)
        assert cfg.n_classes == len(classes)
        assert ModelConfig.from_blob(cfg.to_blob()) == cfg
    # One line of a valid blob edited: only the blob a task's model writes loads.
    valid = ModelConfig(task="valence").to_blob()
    for line, edited in [
        (b"n_classes=3", b"n_classes=oops"),
        (b"n_classes=3", b"n_classes=9"),  # more classes than the task names
        (b"n_classes=3", b"n_classes=2"),  # fewer: a class the head cannot give
        (b"task=valence", b"task=valance"),
        (b"kernel_sizes=3,5,7", b"kernel_sizes=3,0"),
        (b"kernel_sizes=3,5,7", b"kernel_sizes=3,3"),
        (b"dilations=1,1;2,1;3,1", b"dilations=1,1;2,1"),
        (b"dropout=0.2", b"dropout=1.0"),
        (b"n_mels=64", b"n_mels=32"),  # the front end makes 64
    ]:
        assert valid.count(line) == 1
        with pytest.raises(CheckpointFormatError, match="bad config blob"):
            ModelConfig.from_blob(valid.replace(line, edited))
    for bad in (b"task=gesture\nn_classes=oops", b"\xff", b""):
        with pytest.raises(CheckpointFormatError, match="bad config blob"):
            ModelConfig.from_blob(bad)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "small.ckpt")
    save_checkpoint(path, Mtrcnn(ModelConfig(), np.random.default_rng(1)))
    with open(path, "rb") as fh:
        return path, fh.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checkpoint_reader_never_leaks_raw_errors(small_checkpoint, data):
    path, valid = small_checkpoint
    fuzz = path + ".fuzz"
    with open(fuzz, "wb") as fh:
        fh.write(data.draw(corrupted(valid, CHECKPOINT_MAGIC)))
    try:
        model = load_checkpoint(fuzz)
    except TouchAuditionError:
        return
    assert all(np.all(np.isfinite(p.data)) for p in model.parameters().values())
