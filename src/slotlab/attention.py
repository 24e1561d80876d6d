"""Multi-head context attention with a shared trainable query, plus variants.

The default variant scores each key position with one trainable query vector
per head against the projected token plus a learned clipped relative-distance
embedding, then masks the current position so a token's own identity cannot
leak into its attention output. Ablation variants swap the shared query for a
per-position query projection (self_rel), and additionally drop the relative
embeddings in favour of sinusoidal absolute positions (self_abs). A sigmoid
gate blends the attention output with the word embedding afterwards.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import tensor as T
from .layers import Dense, dropout
from .params import ParameterStore, glorot_uniform
from .tensor import ConfigError, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

VARIANTS = ("abstract_rel", "self_rel", "self_abs")


# the cached arrays below are read-only: a caller's write would corrupt every later call


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _bucket_matrix(length: int, max_distance: int) -> np.ndarray:
    """[length, length] bucket of the offset j - i: clipped to [-R, R], shifted to [0, 2R]."""
    offs = np.arange(length)
    return _read_only(np.clip(offs[None, :] - offs[:, None], -max_distance, max_distance) + max_distance)


@lru_cache(maxsize=64)
def sinusoid_table(length: int, dim: int) -> np.ndarray:
    """Standard fixed sin/cos position encodings, [length, dim]."""
    pos = np.arange(length)[:, None].astype(np.float64)
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / dim)
    return _read_only(np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)))


@lru_cache(maxsize=64)
def _current_mask(length: int, dtype: np.dtype) -> np.ndarray:
    """Additive [length, length] mask: -inf on the diagonal, 0 elsewhere."""
    return _read_only(np.where(np.eye(length, dtype=bool), -np.inf, 0.0).astype(dtype))


class ContextAttention:
    """Attention over word embeddings [*, T, d_model], sized and switched by a ModelConfig; see module docstring."""

    def __init__(self, store: ParameterStore, cfg: ModelConfig, num_blocks: int = 1):
        if cfg.variant not in VARIANTS:
            raise ConfigError(f"variant {cfg.variant!r} has no attention; expected one of {VARIANTS}")
        self.store = store
        self.cfg = cfg
        width = cfg.num_heads * cfg.head_size
        init = "attention.init"  # the stream of the query, then of the relative embeddings
        if cfg.variant == "abstract_rel":
            q_shape = (cfg.num_heads, cfg.head_size)
            self.query = store.create("attention.query", q_shape, lambda: glorot_uniform(store.rng(init), q_shape))
        else:
            self.query_proj = Dense(
                store, "attention.query_proj", cfg.d_model, width, use_bias=False, num_blocks=num_blocks
            )
        self.key_proj = Dense(store, "attention.key", cfg.d_model, width, use_bias=False, num_blocks=num_blocks)
        self.value_proj = Dense(store, "attention.value", cfg.d_model, width, use_bias=False, num_blocks=num_blocks)
        self.out_proj = Dense(store, "attention.out", width, cfg.d_model, use_bias=False, num_blocks=num_blocks)
        if cfg.variant in ("abstract_rel", "self_rel"):
            scale = 1.0 / np.sqrt(cfg.head_size)
            r_shape = (2 * cfg.max_relative_distance + 1, cfg.head_size)
            self.rel_embed = store.create(
                "attention.rel_embed", r_shape, lambda: store.rng(init).uniform(-scale, scale, size=r_shape)
            )

    def _mask(self, length: int, lengths: Sequence[int], dtype) -> np.ndarray | None:
        """Additive mask: -inf on padded keys and, under abstract_rel, on the current position.

        [batch, 1, length, length] when a slot is padded. Otherwise the cached
        [length, length] current-position mask, or None when nothing is masked.
        """
        if min(lengths) == length:
            return _current_mask(length, np.dtype(dtype)) if self.cfg.variant == "abstract_rel" else None
        cols = np.arange(length)
        pad = cols[None, None, None, :] >= np.asarray(lengths)[:, None, None, None]
        m = np.where(pad, -np.inf, 0.0).astype(dtype)
        if self.cfg.variant == "abstract_rel":
            m = m + _current_mask(length, np.dtype(dtype))
        return m

    def attend_batch(self, E: Tensor, lengths: Sequence[int], training: bool = False) -> tuple[Tensor, Tensor]:
        """E [B, T, d_model] padded -> (A [B, T, d_model], probs [B, heads, T, T])."""
        cfg = self.cfg
        B, length, _ = E.shape
        h, d = cfg.num_heads, cfg.head_size
        if cfg.variant == "self_abs":
            E = E + T.constant(sinusoid_table(length, cfg.d_model).astype(E.data.dtype))
        V4 = T.reshape(self.value_proj(E), (B, length, h, d))

        if cfg.variant == "abstract_rel":
            # content[b, h, j] = sum_d K[b, j, h, d] q[h, d] reads the keys only through q. A unit of
            # u = gcd(n, d) key columns lies in one [m, n] kernel block and one head, so each unit
            # contracts with q into one kernel column first and the [B, T, h*d] keys are never formed.
            k, m, n = self.key_proj.kernel.shape
            u = math.gcd(n, d)
            kernel_q = self.store.planned(
                "kernel_q",
                lambda: T.einsum2(
                    "imcu,icu->imc",
                    T.reshape(self.key_proj.kernel, (k, m, n // u, u)),
                    T.reshape(self.query, (k, n // u, u)),
                ),
            )
            units = T.reshape(T.block_matmul(E, kernel_q), (B, length, h, d // u))
            if u < d:
                units = T.reduce_sum(units, axis=3, keepdims=True)
            content = T.transpose(units, (0, 2, 3, 1))  # [B, h, 1, T]
            # heads as rows and buckets as columns: a product at least four columns wide runs on BLAS unpadded;
            # gathered from the flat table, the [h, T, T] term is contiguous, and so are the scores it lays out
            buckets = 2 * cfg.max_relative_distance + 1
            rel_by_head = self.store.planned(
                "rel_by_head",
                lambda: T.reshape(T.einsum2("hd,rd->hr", self.query, self.rel_embed), (h * buckets,)),
            )
            index = np.arange(h)[:, None, None] * buckets + _bucket_matrix(length, cfg.max_relative_distance)
            scores = content + T.take_rows(rel_by_head, index)
        else:
            K4 = T.reshape(self.key_proj(E), (B, length, h, d))
            Q4 = T.reshape(self.query_proj(E), (B, length, h, d))
            scores = T.einsum2("bihd,bjhd->bhij", Q4, K4)
            if cfg.variant == "self_rel":
                rel = T.reshape(
                    T.take_rows(self.rel_embed, _bucket_matrix(length, cfg.max_relative_distance).ravel()),
                    (length, length, d),
                )
                scores = scores + T.einsum2("bihd,ijd->bhij", Q4, rel)

        scores = scores * (1.0 / np.sqrt(d))
        mask = self._mask(length, lengths, E.data.dtype)
        if mask is not None:
            scores = scores + T.constant(mask)
        probs = T.softmax_lastdim(scores)
        rng = self.store.rng("attention.dropout") if training else None
        used = dropout(probs, cfg.attention_dropout, training, rng)
        ctx = T.reshape(T.einsum2("bhij,bjhd->bihd", used, V4), (B, length, h * d))
        return self.out_proj(ctx), probs


class FusionGate:
    """Sigmoid gate g = sigmoid([A; E] @ kernel + bias); output g*E + (1-g)*A, one `tensor.fusion_gate` node.

    The parameters are those of a dense layer from 2*d_model to d_model,
    `gate.kernel` (block-diagonal with num_blocks blocks) and `gate.bias`.
    """

    def __init__(self, store: ParameterStore, d_model: int, num_blocks: int = 1):
        self.d_model = d_model
        # a dense layer creates the parameters, with its block init and divisibility check; its call is unused
        layer = Dense(store, "gate", 2 * d_model, d_model, num_blocks=num_blocks)
        self.kernel, self.bias = layer.kernel, layer.bias

    def fuse(self, A: Tensor, E: Tensor) -> Tensor:
        return T.fusion_gate(A, E, self.kernel, self.bias)
