"""Parameterized layers built on the autograd Tensor, and the one walk that
names their state.

Initialization is Kaiming-uniform on fan-in (bound sqrt(6 / fan_in)) with
zero biases; batch-norm starts at identity (gamma 1, beta 0).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .autograd import Tensor


class Layer:
    """Marks an object whose attributes `named_state` walks."""


def named_state(layer: Layer, prefix: str = "") -> Iterator[tuple[str, Tensor | np.ndarray]]:
    """Every parameter (a Tensor attribute) and buffer (an ndarray attribute)
    under `layer`, named by its dotted attribute path, in the order the
    attributes were set. Nested layers are walked; anything else (lists,
    configs, numbers) is skipped. `Mtrcnn.state_arrays` lists every
    parameter in this order, then every buffer: the checkpoint's entries.
    """
    for name, value in vars(layer).items():
        if isinstance(value, (Tensor, np.ndarray)):
            yield prefix + name, value
        elif isinstance(value, Layer):
            yield from named_state(value, f"{prefix}{name}.")


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Conv2d(Layer):
    """Valid stride-1 2-D convolution with per-axis dilation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: tuple[int, int],
        rng: np.random.Generator,
    ):
        self.dilation = dilation
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            _kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x.conv2d(self.weight, self.bias, self.dilation)


class BatchNorm2d(Layer):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, num_channels: int):
        self.gamma = Tensor(np.ones(num_channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(num_channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(num_channels, dtype=np.float32)
        self.running_var = np.ones(num_channels, dtype=np.float32)


class Dense(Layer):
    """Fully connected layer: y = x @ W + b, W shaped (in, out)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor(
            _kaiming_uniform(rng, (in_features, out_features), in_features),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias
