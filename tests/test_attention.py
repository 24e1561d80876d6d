"""Attention variants against enumeration oracles, masking, and the gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import fusion_gate_composed, grad_check, relative_index

from slotlab import tensor as T
from slotlab.attention import (
    ContextAttention,
    FusionGate,
    _bucket_matrix,
    _current_mask,
    sinusoid_table,
)
from slotlab.layers import Dense
from slotlab.model import ModelConfig
from slotlab.params import ParameterStore
from slotlab.synthetic import desk_config
from slotlab.tensor import ConfigError, DimensionError, Tensor, backward


def make_attention(variant="abstract_rel", heads=1, head_size=4, d_model=6, R=3, seed=0):
    store = ParameterStore(seed=seed)
    cfg = ModelConfig(
        num_heads=heads,
        head_size=head_size,
        d_model=d_model,
        max_relative_distance=R,
        attention_dropout=0.0,
        variant=variant,
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
    store, attn = make_attention()
    rng = np.random.default_rng(1)
    attn.query.data[...] = rng.standard_normal((1, 4))
    E = rng.standard_normal((2, 6))
    A, probs = attend(attn, Tensor(E))

    # oracle: direct enumeration of score(i, j) = q . (K e_j + r_{j-i}) / sqrt(d) over j != i
    q = attn.query.data[0]
    K = E @ attn.key_proj.kernel.data[0]  # [2, 4]
    V = E @ attn.value_proj.kernel.data[0]
    r = attn.rel_embed.data
    d = 4
    for i in range(2):
        scores = [q @ (K[j] + r[relative_index(i, j, 3)]) if j != i else -np.inf for j in range(2)]
        scores = np.array(scores) / np.sqrt(d)
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
    store, attn = make_attention()
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


def test_cached_tables_are_read_only():
    for table in (_bucket_matrix(5, 2), sinusoid_table(5, 6), _current_mask(5, np.dtype(np.float64))):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert _current_mask(3, np.dtype(np.float32)).tolist() == [[-np.inf, 0, 0], [0, -np.inf, 0], [0, 0, -np.inf]]


def test_attention_gradients():
    for variant in ("abstract_rel", "self_rel", "self_abs"):
        store, attn = make_attention(variant=variant, heads=2, seed=9)
        E = Tensor(np.random.default_rng(9).standard_normal((4, 6)))

        def f(s):
            A, _ = attend(attn, E)
            return T.reduce_sum(T.tanh(A) * np.arange(24.0).reshape(4, 6))

        assert grad_check(f, store) < 1e-5, variant


def attend_with_key_projection(attn, E, lengths):
    """Reference: abstract_rel attention through the [B, T, h*d] key projection the collapsed keys replaced.

    The shared query's content scores are the projected keys times q, as the
    model computed them before; dropout off.
    """
    cfg = attn.cfg
    B, length, _ = E.shape
    h, d = cfg.num_heads, cfg.head_size
    K4 = T.reshape(attn.key_proj(E), (B, length, h, d))
    V4 = T.reshape(attn.value_proj(E), (B, length, h, d))
    content = T.reshape(T.einsum2("bjhd,hd->bhj", K4, attn.query), (B, h, 1, length))
    rel_by_head = T.einsum2("hd,rd->rh", attn.query, attn.rel_embed)
    gathered = T.reshape(
        T.take_rows(rel_by_head, _bucket_matrix(length, cfg.max_relative_distance).ravel()), (length, length, h)
    )
    scores = (content + T.transpose(gathered, (2, 0, 1))) * (1.0 / np.sqrt(d))
    scores = scores + T.constant(attn._mask(length, lengths, E.data.dtype))
    probs = T.softmax_lastdim(scores)
    ctx = T.reshape(T.einsum2("bhij,bjhd->bihd", probs, V4), (B, length, h * d))
    return attn.out_proj(ctx), probs


# (heads, head_size d, d_model, blocks k): the kernel blocks are n = h*d/k columns wide
_COLLAPSED_KEY_CASES = {
    "desk_config": None,
    "head spans blocks (d > n)": (2, 8, 8, 4),
    "block spans heads (n > d)": (4, 2, 6, 2),
    "units narrower than both (n=4, d=6)": (2, 6, 9, 3),
}


def _collapsed_key_model(case):
    sizes = _COLLAPSED_KEY_CASES[case]
    store = ParameterStore(seed=21)
    if sizes is None:
        cfg, blocks = desk_config(), 1
    else:
        h, d, d_model, blocks = sizes
        cfg = ModelConfig(num_heads=h, head_size=d, d_model=d_model, max_relative_distance=2)
    attn = ContextAttention(store, cfg, num_blocks=blocks)
    rng = np.random.default_rng(21)
    lengths = np.array([4, 1, 3])
    store.create("E", (3, 4, cfg.d_model), lambda: rng.standard_normal((3, 4, cfg.d_model)))
    weights = [Tensor(rng.standard_normal((3, 4, cfg.d_model))), Tensor(rng.standard_normal((3, cfg.num_heads, 4, 4)))]
    return store, attn, lengths, weights


def _weighted(A, probs, weights):
    return T.reduce_sum(A * weights[0]) + T.reduce_sum(probs * weights[1])


@pytest.mark.parametrize("case", list(_COLLAPSED_KEY_CASES))
def test_collapsed_keys_match_the_key_projection(case):
    """Outputs, probabilities and every gradient (the key kernel's and the query's included) to 1e-12."""
    store, attn, lengths, weights = _collapsed_key_model(case)
    runs = []
    for A, probs in (
        attn.attend_batch(store["E"], lengths),
        attend_with_key_projection(attn, store["E"], lengths),
    ):
        store.zero_grads()
        backward(_weighted(A, probs, weights))
        runs.append((A.data, probs.data, {p.name: p.grad.copy() for p in store}))
    (A, probs, grads), (A_ref, probs_ref, grads_ref) = runs
    assert np.max(np.abs(A - A_ref)) < 1e-12
    assert np.max(np.abs(probs - probs_ref)) < 1e-12
    for name, g in grads.items():
        assert np.max(np.abs(g - grads_ref[name])) < 1e-12, name
    assert np.any(grads["attention.key.kernel"] != 0.0) and np.any(grads["attention.query"] != 0.0)


@pytest.mark.parametrize("case", list(_COLLAPSED_KEY_CASES))
def test_collapsed_keys_gradients_match_finite_differences(case):
    store, attn, lengths, weights = _collapsed_key_model(case)
    assert grad_check(lambda s: _weighted(*attn.attend_batch(s["E"], lengths), weights), store) < 1e-5


def test_attention_rejects_the_variant_without_attention():
    with pytest.raises(ConfigError, match="none"):
        make_attention(variant="none")


def test_attention_dropout_applied_to_values_only_in_training():
    store1, attn = make_attention(seed=11)
    attn.cfg.attention_dropout = 0.5
    E = Tensor(np.random.default_rng(11).standard_normal((4, 6)))
    _, probs = attend(attn, E, training=True)
    assert np.max(np.abs(probs.data.sum(-1) - 1.0)) < 1e-12  # returned probs are pre-dropout


def test_gate_saturates_to_embedding():
    store = ParameterStore(seed=0)
    gate = FusionGate(store, 4)
    gate.bias.data[...] = 30.0
    rng = np.random.default_rng(0)
    A, E = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    out = gate.fuse(A, E).data
    assert np.max(np.abs(out - E.data)) < 1e-9


def test_gate_saturates_to_attention():
    store = ParameterStore(seed=0)
    gate = FusionGate(store, 4)
    gate.bias.data[...] = -30.0
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
    z = np.concatenate([A, E], axis=1) @ gate.kernel.data[0] + gate.bias.data
    g = 1.0 / (1.0 + np.exp(-z))
    expected = g * E + (1.0 - g) * A
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("k", [1, 4])
def test_gate_parameters_are_bitwise_the_dense_layer_draws(k):
    """The gate draws `gate.kernel` and `gate.bias` as a dense layer named "gate" from 2*d to d would."""
    gate, dense_store = FusionGate(ParameterStore(seed=5), 8, num_blocks=k), ParameterStore(seed=5)
    dense = Dense(dense_store, "gate", 16, 8, num_blocks=k)
    assert gate.kernel.name == "gate.kernel" and gate.bias.name == "gate.bias"
    assert gate.kernel.data.shape == (k, 16 // k, 8 // k)
    assert gate.kernel.data.tobytes() == dense.kernel.data.tobytes()
    assert gate.bias.data.tobytes() == dense.bias.data.tobytes()


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


GATE_ROWS = {"packed": (9,), "padded": (3, 4)}


def _gate_inputs(rows, d, k, dtype, seed):
    """A, E and the gate's kernel blocks and bias, all tracking gradients, in one dtype."""
    rng = np.random.default_rng(seed)
    leaves = (rows + (d,), rows + (d,), (k, 2 * d // k, d // k), (d,))
    return [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True) for shape in leaves]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("layout", GATE_ROWS)
def test_fusion_gate_forward_is_bitwise_the_composition_and_its_gradients_agree(layout, k, dtype):
    """The fused op against concat, block product, bias, sigmoid and blend as separate ops: the same forward bits,
    and every gradient within 1e-12 (f64) or 1e-5 (f32) of the composition's largest entry."""
    fused, composed = (_gate_inputs(GATE_ROWS[layout], 8, k, dtype, seed=k) for _ in range(2))
    out, ref = T.fusion_gate(*fused), fusion_gate_composed(*composed)
    assert out.data.dtype == dtype and out.data.tobytes() == ref.data.tobytes()
    weights = T.constant(np.random.default_rng(9).standard_normal(out.shape).astype(dtype))
    backward(T.reduce_sum(out * weights))
    backward(T.reduce_sum(ref * weights))
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in zip(fused, composed):
        assert got.grad.dtype == dtype
        assert np.max(np.abs(got.grad - want.grad)) <= tol * np.max(np.abs(want.grad))


@pytest.mark.parametrize("layout", GATE_ROWS)
def test_fusion_gate_gradients_match_finite_differences(layout):
    store = ParameterStore(seed=5)
    rng = store.rng("init")
    rows = GATE_ROWS[layout]
    for name, shape in (("A", rows + (4,)), ("E", rows + (4,)), ("kernel", (2, 4, 2)), ("bias", (4,))):
        store.create(name, shape, lambda shape=shape: rng.standard_normal(shape))
    weights = np.random.default_rng(6).standard_normal(rows + (4,))

    def f(s):
        return T.reduce_sum(T.fusion_gate(s["A"], s["E"], s["kernel"], s["bias"]) * weights)

    assert grad_check(f, store) < 1e-5


def test_fusion_gate_records_no_graph_under_no_grad():
    A, E, kernel, bias = _gate_inputs((5,), 4, 2, np.float64, seed=0)
    with T.no_grad():
        out = T.fusion_gate(A, E, kernel, bias)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == T.fusion_gate(A, E, kernel, bias).data.tobytes()


def test_fusion_gate_rejects_a_kernel_or_bias_of_another_width():
    A, E, kernel, bias = _gate_inputs((3,), 4, 2, np.float64, seed=0)
    with pytest.raises(DimensionError):
        T.fusion_gate(A, E, T.reshape(kernel, (2, 2, 4)), bias)
    with pytest.raises(DimensionError):
        T.fusion_gate(A, E, kernel, T.reshape(A, (12,)))
