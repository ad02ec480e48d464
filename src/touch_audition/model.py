"""Three-branch multi-temporal-resolution CNN (MTRCNN) and checkpoint I/O.

Each branch runs three dilated conv blocks (conv, then batch norm -> ReLU ->
2x2 average pool; one op per block, `conv_bn_relu_pool`) at a fixed kernel
size (3, 5, or 7) with time-axis dilations 1, 2, 3, then global average
pooling and a 64-d embedding. Branch embeddings are concatenated (192-d), fused to 64-d,
dropped out, and classified by a linear head.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .analysis import min_input_frames
from .autograd import Tensor, concat, no_grad, softmax
from .data import FRAMES_PER_SECOND, TASK_CLASSES
from .dsp import N_MELS
from .errors import AudioFormatError, CheckpointFormatError, InputTooShortError
from .layers import BatchNorm2d, Conv2d, Dense, Layer, named_state

CHECKPOINT_MAGIC = b"MTRC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """The MTRCNN for one task. The architecture is fixed; the task sets
    only the head's size, its class count."""

    task: str = "gesture"
    kernel_sizes: ClassVar[tuple[int, ...]] = (3, 5, 7)
    filters: ClassVar[tuple[int, ...]] = (16, 32, 64)
    dilations: ClassVar[tuple[tuple[int, int], ...]] = ((1, 1), (2, 1), (3, 1))
    embed_dim: ClassVar[int] = 64
    dropout: ClassVar[float] = 0.2

    @property
    def n_classes(self) -> int:
        return len(TASK_CLASSES[self.task])

    def to_blob(self) -> bytes:
        lines = [
            f"task={self.task}",
            f"n_classes={self.n_classes}",
            f"n_mels={N_MELS}",  # the front end's bins, checked on load
            "kernel_sizes=" + ",".join(str(k) for k in self.kernel_sizes),
            "filters=" + ",".join(str(f) for f in self.filters),
            "dilations=" + ";".join(f"{a},{b}" for a, b in self.dilations),
            f"embed_dim={self.embed_dim}",
            f"dropout={self.dropout!r}",
        ]
        return "\n".join(lines).encode("utf-8")

    @staticmethod
    def from_blob(blob: bytes) -> "ModelConfig":
        """The config that writes `blob`; any other blob (another
        architecture, mel-bin count or class count, or an unknown task) is
        refused."""
        for task in TASK_CLASSES:
            config = ModelConfig(task)
            if config.to_blob() == blob:
                return config
        raise CheckpointFormatError(f"bad config blob: no task's model writes {blob[:120]!r}")


class Branch(Layer):
    """One temporal-resolution branch: 3 conv blocks + GAP + embedding."""

    def __init__(self, config: ModelConfig, kernel_size: int, rng: np.random.Generator):
        chans = (1,) + tuple(config.filters)
        # Block i is also set as attributes conv{i} and bn{i}, which is how
        # named_state names it; batch norm draws nothing from rng.
        self.convs, self.bns = [], []
        for i, (c_in, c_out) in enumerate(zip(chans, chans[1:]), start=1):
            self.convs.append(Conv2d(c_in, c_out, kernel_size, config.dilations[i - 1], rng))
            self.bns.append(BatchNorm2d(c_out))
            setattr(self, f"conv{i}", self.convs[-1])
            setattr(self, f"bn{i}", self.bns[-1])
        self.embed = Dense(config.filters[-1], config.embed_dim, rng)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = x
        for conv, bn in zip(self.convs, self.bns):
            h = h.conv_bn_relu_pool(conv.weight, conv.bias, conv.dilation, bn.gamma, bn.beta,
                                    bn.running_mean, bn.running_var, training)
        h = h.mean_pool()
        return self.embed(h).relu()


class Mtrcnn(Layer):
    """The full multi-branch model. Input: (n, 1, T, N_MELS) float32."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.branches = []
        for k in config.kernel_sizes:
            self.branches.append(Branch(config, k, rng))
            setattr(self, f"branch{k}", self.branches[-1])
        self.fusion = Dense(config.embed_dim * len(config.kernel_sizes), config.embed_dim, rng)
        self.head = Dense(config.embed_dim, config.n_classes, rng)
        self.min_frames = min_input_frames(config)
        # Per-bin standardization of the log-mel input, fit on the training
        # split and shipped inside the checkpoint.
        self.feature_mean = np.zeros(N_MELS, dtype=np.float32)
        self.feature_std = np.ones(N_MELS, dtype=np.float32)

    def forward(
        self,
        x: np.ndarray | Tensor,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
    ) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        n, c, t, f = x.data.shape
        if t < self.min_frames:
            raise InputTooShortError(
                f"input has {t} frames but this architecture needs at least "
                f"{self.min_frames} ({self.min_frames / FRAMES_PER_SECOND:.2f} s at 10 ms hop)"
            )
        if f != N_MELS:
            raise AudioFormatError(f"expected {N_MELS} mel bins, got {f}")
        if training and self.config.dropout > 0.0 and dropout_rng is None:
            raise ValueError("training forward pass needs an explicit dropout_rng")
        embs = [branch(x, training) for branch in self.branches]
        h = self.fusion(concat(embs, axis=1)).relu()
        return self.head(h.dropout(self.config.dropout, dropout_rng, training))

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class indices and softmax probabilities, no graph construction."""
        with no_grad():
            logits = self.forward(x, training=False).data
        probs = softmax(logits)
        return probs.argmax(axis=1), probs

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """Apply the stored per-bin feature standardization."""
        return ((features - self.feature_mean) / self.feature_std).astype(np.float32)

    def parameters(self) -> dict[str, Tensor]:
        return {name: v for name, v in named_state(self) if isinstance(v, Tensor)}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: v for name, v in named_state(self) if isinstance(v, np.ndarray)}

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter's array, then every buffer, each in `named_state`
        order: the checkpoint's entries, in file order. The arrays are the
        model's own, so writing into them sets the model's state."""
        state = list(named_state(self))
        return ([(name, v.data) for name, v in state if isinstance(v, Tensor)]
                + [(name, v) for name, v in state if isinstance(v, np.ndarray)])


def _entry_header(name: str, arr: np.ndarray) -> bytes:
    """A checkpoint entry's header: u16 name length, UTF-8 name, u8 ndim, u32 dims."""
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape)


def save_checkpoint(path: str, model: Mtrcnn) -> None:
    """Serialize config + parameters + buffers.

    Layout: magic "MTRC", u32 version, u32 blob length, config blob (UTF-8
    key=value lines), u32 entry count, then one entry per `state_arrays()`
    item, in its order: `_entry_header(name, arr)`, then the array as
    float32 little-endian data.
    """
    blob = model.config.to_blob()
    entries = model.state_arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            fh.write(_entry_header(name, arr))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> Mtrcnn:
    """Rebuild a model from checkpoint bytes, read against the model that
    writes them: the config blob names the model, each entry's header must
    equal `_entry_header` of that model's `state_arrays()` item in the same
    place, and its data is copied into that array.

    Any malformed file (truncated, trailing bytes, bad config, a missing,
    extra, renamed, reshaped or moved entry, non-finite values, a feature
    std <= 0 or a negative running variance) raises CheckpointFormatError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {e}") from e
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, blob_len = struct.unpack_from("<II", data, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        off = 12
        config = ModelConfig.from_blob(data[off : off + blob_len])
        off += blob_len
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        model = Mtrcnn(config, rng=np.random.default_rng(0))
        entries = model.state_arrays()
        if count != len(entries):
            raise CheckpointFormatError(
                f"{path}: {count} entries, the {config.task} model has {len(entries)}")
        for name, arr in entries:
            header = _entry_header(name, arr)
            if data[off : off + len(header)] != header:
                raise CheckpointFormatError(f"{path}: entry at byte {off} is not {name} {arr.shape}")
            off += len(header)
            arr[...] = np.frombuffer(data, dtype="<f4", count=arr.size, offset=off).reshape(arr.shape)
            off += arr.nbytes
    except (struct.error, ValueError) as e:
        raise CheckpointFormatError(f"{path}: truncated or corrupt checkpoint ({e})") from e
    if off != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - off} trailing bytes after the last tensor")
    nonfinite = sorted(name for name, arr in entries if not np.all(np.isfinite(arr)))
    if nonfinite:
        raise CheckpointFormatError(f"{path}: non-finite values in {nonfinite}")
    # Either would make every prediction NaN. Training floors the feature std
    # at 1e-6 and blends non-negative batch variances into the running ones;
    # a running variance can still underflow to 0, which `_BN_EPS` keeps usable.
    unusable = sorted(
        name for name, arr in entries
        if (name == "feature_std" and np.any(arr <= 0))
        or (name.endswith(".running_var") and np.any(arr < 0))
    )
    if unusable:
        raise CheckpointFormatError(f"{path}: feature std <= 0 or running variance < 0 in {unusable}")
    return model
