"""The dense layer, whose kernel may be block-diagonal, and dropout.

A dense layer with num_blocks = k stores only the k diagonal blocks of its
[in_dim, out_dim] kernel, as one [k, in_dim/k, out_dim/k] parameter: 1/k of
the full weight count. Plain dense is k = 1. The input feature axis is split
into k contiguous chunks, chunk i is multiplied by block i, and the outputs
are laid out contiguously again, which is exactly multiplication by the
expanded block-diagonal matrix.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .params import ParameterStore, glorot_uniform
from .tensor import ConfigError, Tensor

ACTIVATIONS = {
    "none": lambda x: x,
    "tanh": T.tanh,
}


class Dense:
    """x @ expand(kernel) + bias followed by an optional activation.

    Unless kernel_init gives the [k, m, n] blocks, each block draws its own
    Glorot-uniform init, in block order, from the stream named after the
    kernel.
    """

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_dim: int,
        out_dim: int,
        activation: str = "none",
        use_bias: bool = True,
        num_blocks: int = 1,
        kernel_init: Callable[[], np.ndarray] | None = None,
    ):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        if num_blocks < 1:
            raise ConfigError(f"num_blocks must be positive, got {num_blocks}")
        if in_dim % num_blocks or out_dim % num_blocks:
            raise ConfigError(f"dense {name!r}: dims ({in_dim}, {out_dim}) not divisible by num_blocks={num_blocks}")
        self.num_blocks = num_blocks
        self.activation = activation
        m, n = in_dim // num_blocks, out_dim // num_blocks

        def glorot_blocks() -> np.ndarray:
            rng = store.rng(name + ".kernel")
            return np.stack([glorot_uniform(rng, (m, n)) for _ in range(num_blocks)])

        self.kernel = store.create(name + ".kernel", (num_blocks, m, n), kernel_init or glorot_blocks)
        self.bias = store.create(name + ".bias", (out_dim,), lambda: np.zeros(out_dim)) if use_bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = T.block_matmul(x, self.kernel)
        if self.bias is not None:
            out = out + self.bias
        return ACTIVATIONS[self.activation](out)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at inference, kept units scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * T.constant(keep, like=x)
