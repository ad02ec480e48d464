"""Model tests: parameter ledger, minimum-length contract, impulse
footprints, checkpoint round-trips, and mode behavior."""

import hashlib
import struct

import numpy as np
import pytest
from conftest import corrupted, dependency_footprint
from hypothesis import given, settings
from hypothesis import strategies as st

from touch_audition.analysis import count_params, min_input_frames
from touch_audition.errors import CheckpointFormatError, InputTooShortError, TouchAuditionError
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
    assert model.num_params() == 240_038
    by_module: dict[str, int] = {}
    for name, p in params.items():
        head = name.split(".")[0]
        by_module[head] = by_module.get(head, 0) + p.data.size
    for k in (3, 5, 7):
        assert by_module[f"branch{k}"] == (2576 * k * k + 112) + 224 + 4160
    assert by_module["fusion"] == 12_352
    assert by_module["head"] == 6 * 64 + 6

    counted = count_params(cfg)
    assert counted["total"] == model.num_params()
    # 5-class head differs from the 6-class one by exactly 65 parameters.
    five = count_params(ModelConfig(task="aro_val", n_classes=5))
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
    with pytest.raises(ValueError):
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


def test_predict_probabilities():
    model = Mtrcnn(ModelConfig(), np.random.default_rng(0))
    labels, probs = model.predict(small_input(150, n=3))
    assert labels.shape == (3,)
    assert probs.shape == (3, 6)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert np.array_equal(labels, probs.argmax(axis=1))


def test_checkpoint_round_trip(tmp_path):
    model = Mtrcnn(ModelConfig(task="arousal", n_classes=3), np.random.default_rng(9))
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


def test_checkpoint_entry_names_and_order_are_pinned(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, Mtrcnn(ModelConfig(), np.random.default_rng(0)))
    data = open(path, "rb").read()
    (blob_len,) = struct.unpack_from("<I", data, 8)
    off = 12 + blob_len
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    entries = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        name = data[off + 2 : off + 2 + name_len].decode()
        off += 2 + name_len
        ndim = data[off]
        shape = struct.unpack_from(f"<{ndim}I", data, off + 1)
        off += 1 + 4 * ndim + 4 * int(np.prod(shape))
        entries.append((name, shape))
    assert off == len(data)
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


def test_config_blob_round_trip():
    cfg = ModelConfig(task="valence", n_classes=3, dropout=0.35)
    assert ModelConfig.from_blob(cfg.to_blob()) == cfg
    for bad in [
        b"task=gesture\nn_classes=oops",
        ModelConfig(kernel_sizes=(3, 0)).to_blob(),
        ModelConfig(kernel_sizes=(3, 3)).to_blob(),
        ModelConfig(dilations=((1, 1), (2, 1))).to_blob(),
        ModelConfig(dropout=1.0).to_blob(),
        b"\xff",
    ]:
        with pytest.raises(CheckpointFormatError):
            ModelConfig.from_blob(bad)


FUZZ_CONFIG = ModelConfig(n_classes=2, kernel_sizes=(3,), filters=(2, 2, 2), embed_dim=4)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "small.ckpt")
    save_checkpoint(path, Mtrcnn(FUZZ_CONFIG, np.random.default_rng(1)))
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
