"""Three-branch multi-temporal-resolution CNN (MTRCNN) and checkpoint I/O.

Each branch runs three dilated conv blocks (conv, then batch norm -> ReLU ->
2x2 average pool as one fused op) at a fixed kernel size (3, 5, or 7) with
time-axis dilations 1, 2, 3, then global average pooling and a 64-d
embedding. Branch embeddings are concatenated (192-d), fused to 64-d,
dropped out, and classified by a linear head.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, concat, no_grad, softmax
from .errors import CheckpointFormatError, InputTooShortError
from .layers import BatchNorm2d, Conv2d, Dense, Layer, named_state

CHECKPOINT_MAGIC = b"MTRC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    task: str = "gesture"
    n_classes: int = 6
    n_mels: int = 64
    kernel_sizes: tuple[int, ...] = (3, 5, 7)
    filters: tuple[int, ...] = (16, 32, 64)
    dilations: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (3, 1))
    embed_dim: int = 64
    dropout: float = 0.2

    def to_blob(self) -> bytes:
        lines = [
            f"task={self.task}",
            f"n_classes={self.n_classes}",
            f"n_mels={self.n_mels}",
            "kernel_sizes=" + ",".join(str(k) for k in self.kernel_sizes),
            "filters=" + ",".join(str(f) for f in self.filters),
            "dilations=" + ";".join(f"{a},{b}" for a, b in self.dilations),
            f"embed_dim={self.embed_dim}",
            f"dropout={self.dropout!r}",
        ]
        return "\n".join(lines).encode("utf-8")

    @staticmethod
    def from_blob(blob: bytes) -> "ModelConfig":
        try:
            kv = {}
            for line in blob.decode("utf-8").splitlines():
                key, _, value = line.partition("=")
                kv[key] = value
            config = ModelConfig(
                task=kv["task"],
                n_classes=int(kv["n_classes"]),
                n_mels=int(kv["n_mels"]),
                kernel_sizes=tuple(int(s) for s in kv["kernel_sizes"].split(",")),
                filters=tuple(int(s) for s in kv["filters"].split(",")),
                dilations=tuple(
                    tuple(int(x) for x in pair.split(","))  # type: ignore[misc]
                    for pair in kv["dilations"].split(";")
                ),
                embed_dim=int(kv["embed_dim"]),
                dropout=float(kv["dropout"]),
            )
        except (KeyError, ValueError) as e:
            raise CheckpointFormatError(f"bad config blob: {e}") from e
        sizes = (config.n_classes, config.n_mels, config.embed_dim,
                 *config.kernel_sizes, *config.filters, *sum(config.dilations, ()))
        if (
            min(sizes) < 1
            or len(set(config.kernel_sizes)) != len(config.kernel_sizes)  # one branch{k} each
            or len(config.dilations) != len(config.filters)
            or any(len(pair) != 2 for pair in config.dilations)
            or not 0.0 <= config.dropout < 1.0
        ):
            raise CheckpointFormatError(f"bad config blob: values out of range in {config}")
        return config


class Branch(Layer):
    """One temporal-resolution branch: 3 conv blocks + GAP + embedding."""

    def __init__(self, config: ModelConfig, kernel_size: int, rng: np.random.Generator):
        self.kernel_size = kernel_size
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
            h = bn.relu_pool(conv(h), training)
        h = h.mean_pool()
        return self.embed(h).relu()


class Mtrcnn(Layer):
    """The full multi-branch model. Input: (n, 1, T, n_mels) float32."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        from .analysis import min_input_frames  # local import; analysis imports this module

        if rng is None:
            rng = np.random.default_rng(0)
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
        self.feature_mean = np.zeros(config.n_mels, dtype=np.float32)
        self.feature_std = np.ones(config.n_mels, dtype=np.float32)

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
                f"{self.min_frames} ({self.min_frames / 100:.2f} s at 10 ms hop)"
            )
        if f != self.config.n_mels:
            raise ValueError(f"expected {self.config.n_mels} mel bins, got {f}")
        if training and self.config.dropout > 0.0 and dropout_rng is None:
            raise ValueError("training forward pass needs an explicit dropout_rng")
        embs = [branch(x, training) for branch in self.branches]
        h = self.fusion(concat(embs, axis=1)).relu()
        if training:
            h = h.dropout(self.config.dropout, dropout_rng, training)
        return self.head(h)

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

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters().values())


def save_checkpoint(path: str, model: Mtrcnn) -> None:
    """Serialize config + parameters + buffers.

    Layout: magic "MTRC", u32 version, u32 blob length, config blob (UTF-8
    key=value lines), u32 tensor count, then per tensor: u16 name length,
    name bytes, u8 ndim, u32 dims..., float32 little-endian data.
    """
    blob = model.config.to_blob()
    entries: list[tuple[str, np.ndarray]] = []
    for name, p in model.parameters().items():
        entries.append((name, p.data))
    for name, b in model.buffers().items():
        entries.append((name, b))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode("utf-8")
            a = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.tobytes())


def load_checkpoint(path: str) -> Mtrcnn:
    """Rebuild a model from checkpoint bytes, validating names, shapes and values.

    Any malformed file (truncated, trailing bytes, bad config, unknown or
    missing tensors, non-finite values) raises CheckpointFormatError.
    """
    from .analysis import count_params  # local import; analysis imports this module

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {e}") from e
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {data[:4]!r}")
    loaded: dict[str, np.ndarray] = {}
    try:
        version, blob_len = struct.unpack_from("<II", data, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        off = 12
        config = ModelConfig.from_blob(data[off : off + blob_len])
        off += blob_len
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off : off + name_len].decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", data, off)
            off += 4 * ndim
            size = math.prod(shape)
            if 4 * size > len(data) - off:
                raise CheckpointFormatError(f"{path}: tensor {name!r} {shape} runs past the end of the file")
            arr = np.frombuffer(data, dtype="<f4", count=size, offset=off).reshape(shape)
            off += 4 * size
            loaded[name] = arr.copy()
    except (struct.error, ValueError) as e:
        raise CheckpointFormatError(f"{path}: truncated or corrupt checkpoint ({e})") from e
    if off != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - off} trailing bytes after the last tensor")
    nonfinite = sorted(name for name, arr in loaded.items() if not np.all(np.isfinite(arr)))
    if nonfinite:
        raise CheckpointFormatError(f"{path}: non-finite values in {nonfinite}")
    # The parameters and the two feature-statistics vectors are all stored
    # as float32, so a config asking for more than the file holds is
    # corrupt; checking first keeps it from allocating a model of any size.
    if 4 * (count_params(config)["total"] + 2 * config.n_mels) > len(data):
        raise CheckpointFormatError(f"{path}: config describes more parameters than the file holds")

    model = Mtrcnn(config, rng=np.random.default_rng(0))
    params = model.parameters()
    buffers = model.buffers()
    expected = set(params) | set(buffers)
    if set(loaded) != expected:
        missing = sorted(expected - set(loaded))
        extra = sorted(set(loaded) - expected)
        raise CheckpointFormatError(f"{path}: tensor name mismatch (missing {missing}, extra {extra})")
    for name, arr in loaded.items():
        target = params[name].data if name in params else buffers[name]
        if target.shape != arr.shape:
            raise CheckpointFormatError(
                f"{path}: shape mismatch for {name}: checkpoint {arr.shape}, model {target.shape}"
            )
        target[...] = arr
    return model
