"""Attention variants against enumeration oracles, masking, and the gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotlab import tensor as T
from slotlab.attention import (
    AttentionConfig,
    ContextAttention,
    FusionGate,
    relative_index,
    sinusoid_table,
)
from slotlab.params import ParameterStore, grad_check
from slotlab.tensor import DimensionError, Tensor


def make_attention(variant="abstract_rel", heads=1, head_size=4, d_model=6, R=3, seed=0, mask_current=None):
    store = ParameterStore(seed=seed)
    cfg = AttentionConfig(
        num_heads=heads,
        head_size=head_size,
        d_model=d_model,
        max_relative_distance=R,
        attention_dropout=0.0,
        variant=variant,
        mask_current=mask_current,
    )
    return store, ContextAttention(store, cfg)


def attend(attn, E, training=False):
    """One utterance E [T, d_model] as a batch of one -> (A [T, d_model], probs [heads, T, T])."""
    A, probs = attn.attend_batch(T.reshape(E, (1,) + E.shape), np.array([E.shape[0]]), training)
    return T.reshape(A, E.shape), T.reshape(probs, probs.shape[1:])


def test_relative_index_center():
    assert relative_index(5, 5, 8) == 8


def test_relative_index_next():
    assert relative_index(5, 6, 8) == 9


def test_relative_index_clamps():
    assert relative_index(0, 100, 8) == 16
    assert relative_index(100, 0, 8) == 0


def test_length_one_masked_row_is_zero():
    store, attn = make_attention()
    E = Tensor(np.random.default_rng(0).standard_normal((1, 6)))
    A, probs = attend(attn, E)
    assert np.array_equal(A.data, np.zeros((1, 6)))
    assert np.array_equal(probs.data, np.zeros((1, 1, 1)))


def test_two_token_abstract_matches_enumeration_oracle():
    store, attn = make_attention(mask_current=False)
    rng = np.random.default_rng(1)
    attn.query.data[...] = rng.standard_normal((1, 4))
    E = rng.standard_normal((2, 6))
    A, probs = attend(attn, Tensor(E))

    # oracle: direct enumeration of score(i, j) = q . (K e_j + r_{j-i}) / sqrt(d)
    q = attn.query.data[0]
    K = E @ attn.key_proj.kernel.data[0]  # [2, 4]
    V = E @ attn.value_proj.kernel.data[0]
    r = attn.rel_embed.data
    d = 4
    for i in range(2):
        scores = np.array([q @ (K[j] + r[relative_index(i, j, 3)]) for j in range(2)]) / np.sqrt(d)
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        assert np.max(np.abs(probs.data[0, i] - p)) < 1e-12
        ctx = p[0] * V[0] + p[1] * V[1]
        expected_row = ctx @ attn.out_proj.kernel.data[0]
        assert np.max(np.abs(A.data[i] - expected_row)) < 1e-12


def test_self_rel_matches_enumeration_oracle():
    store, attn = make_attention(variant="self_rel")
    rng = np.random.default_rng(2)
    E = rng.standard_normal((3, 6))
    A, probs = attend(attn, Tensor(E))
    Q = E @ attn.query_proj.kernel.data[0]
    K = E @ attn.key_proj.kernel.data[0]
    V = E @ attn.value_proj.kernel.data[0]
    r = attn.rel_embed.data
    for i in range(3):
        scores = np.array([Q[i] @ (K[j] + r[relative_index(i, j, 3)]) for j in range(3)]) / 2.0
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        assert np.max(np.abs(probs.data[0, i] - p)) < 1e-12
        expected_row = (p @ V) @ attn.out_proj.kernel.data[0]
        assert np.max(np.abs(A.data[i] - expected_row)) < 1e-12


def test_self_abs_uses_positions_and_no_rel_table():
    store, attn = make_attention(variant="self_abs")
    assert not hasattr(attn, "rel_embed")
    rng = np.random.default_rng(3)
    E = rng.standard_normal((3, 6))
    A, probs = attend(attn, Tensor(E))
    Ep = E + sinusoid_table(3, 6)
    Q, K, V = (Ep @ m.kernel.data[0] for m in (attn.query_proj, attn.key_proj, attn.value_proj))
    for i in range(3):
        scores = (Q[i] @ K.T) / 2.0
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        assert np.max(np.abs(probs.data[0, i] - p)) < 1e-12
    assert A.shape == (3, 6)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**31 - 1))
def test_prob_rows_sum_to_one_or_zero(length, seed):
    store, attn = make_attention(heads=2, seed=seed % 1000)
    E = Tensor(np.random.default_rng(seed).standard_normal((length, 6)))
    _, probs = attend(attn, E)
    sums = probs.data.sum(axis=-1)
    if length == 1:
        assert np.array_equal(sums, np.zeros((2, 1)))
    else:
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_masked_output_independent_of_current_token():
    store, attn = make_attention(heads=2, d_model=6)
    rng = np.random.default_rng(4)
    E = rng.standard_normal((5, 6))
    A1, _ = attend(attn, Tensor(E))
    E2 = E.copy()
    E2[2] += rng.standard_normal(6) * 3.0
    A2, _ = attend(attn, Tensor(E2))
    assert np.max(np.abs(A1.data[2] - A2.data[2])) < 1e-12
    assert np.max(np.abs(A1.data[1] - A2.data[1])) > 1e-6  # neighbours do change


def test_asymmetric_relative_embeddings_distinguish_directions():
    store, attn = make_attention(mask_current=True)
    attn.rel_embed.data[...] = 0.0
    attn.rel_embed.data[attn.cfg.max_relative_distance - 1] = 1.0  # offset -1
    attn.rel_embed.data[attn.cfg.max_relative_distance + 1] = -1.0  # offset +1
    rng = np.random.default_rng(5)
    E = rng.standard_normal((3, 6))
    _, probs1 = attend(attn, Tensor(E))
    swapped = E.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    _, probs2 = attend(attn, Tensor(swapped))
    assert np.max(np.abs(probs1.data[0, 1] - probs2.data[0, 1])) > 1e-6


def test_attention_gradients():
    for variant in ("abstract_rel", "self_rel", "self_abs"):
        store, attn = make_attention(variant=variant, heads=2, seed=9)
        E = Tensor(np.random.default_rng(9).standard_normal((4, 6)))

        def f(s):
            A, _ = attend(attn, E)
            return T.reduce_sum(T.tanh(A) * np.arange(24.0).reshape(4, 6))

        assert grad_check(f, store) < 1e-5, variant


def test_attention_dropout_applied_to_values_only_in_training():
    store1, attn = make_attention(seed=11)
    attn.cfg.attention_dropout = 0.5
    E = Tensor(np.random.default_rng(11).standard_normal((4, 6)))
    _, probs = attend(attn, E, training=True)
    assert np.max(np.abs(probs.data.sum(-1) - 1.0)) < 1e-12  # returned probs are pre-dropout


def test_gate_saturates_to_embedding():
    store = ParameterStore(seed=0)
    gate = FusionGate(store, 4)
    gate.layer.bias.data[...] = 30.0
    rng = np.random.default_rng(0)
    A, E = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    out = gate.fuse(A, E).data
    assert np.max(np.abs(out - E.data)) < 1e-9


def test_gate_saturates_to_attention():
    store = ParameterStore(seed=0)
    gate = FusionGate(store, 4)
    gate.layer.bias.data[...] = -30.0
    rng = np.random.default_rng(1)
    A, E = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    out = gate.fuse(A, E).data
    assert np.max(np.abs(out - A.data)) < 1e-9


def test_gate_matches_elementwise_oracle():
    store = ParameterStore(seed=2)
    gate = FusionGate(store, 4)
    rng = np.random.default_rng(2)
    A, E = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    out = gate.fuse(Tensor(A), Tensor(E)).data
    z = np.concatenate([A, E], axis=1) @ gate.layer.kernel.data[0] + gate.layer.bias.data
    g = 1.0 / (1.0 + np.exp(-z))
    expected = g * E + (1.0 - g) * A
    assert np.max(np.abs(out - expected)) < 1e-12


def test_gate_shape_mismatch():
    store = ParameterStore(seed=0)
    gate = FusionGate(store, 4)
    with pytest.raises(DimensionError):
        gate.fuse(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))


def test_gate_gradients():
    store = ParameterStore(seed=3)
    gate = FusionGate(store, 4)
    rng = np.random.default_rng(3)
    A, E = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))

    def f(s):
        return T.reduce_sum(gate.fuse(A, E) * np.arange(12.0).reshape(3, 4))

    assert grad_check(f, store) < 1e-5
