"""Dense and block-diagonal layer contracts, including the expand-and-multiply oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import grad_check, sigmoid

from slotlab import tensor as T
from slotlab.layers import ACTIVATIONS, Dense, dropout
from slotlab.params import ParameterStore
from slotlab.tensor import ConfigError, Tensor


def _dense(store, in_dim, out_dim, activation="none", name="d"):
    return Dense(store, name, in_dim, out_dim, activation)


def _block(store, in_dim, out_dim, k, activation="none", name="b"):
    return Dense(store, name, in_dim, out_dim, activation, num_blocks=k)


def expand_blocks(blocks: np.ndarray) -> np.ndarray:
    """Oracle: place the stored blocks on the diagonal of a zero matrix."""
    k, m, n = blocks.shape
    full = np.zeros((k * m, k * n))
    for i in range(k):
        full[i * m : (i + 1) * m, i * n : (i + 1) * n] = blocks[i]
    return full


def test_dense_identity():
    store = ParameterStore(seed=0)
    layer = _dense(store, 3, 3)
    layer.kernel.data[...] = np.eye(3)
    layer.bias.data[...] = 0.0
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert np.array_equal(layer(Tensor(x)).data, x)


def test_dense_zero_kernel_returns_bias_rows():
    store = ParameterStore(seed=0)
    layer = _dense(store, 3, 2)
    layer.kernel.data[...] = 0.0
    layer.bias.data[...] = [5.0, -1.0]
    out = layer(Tensor(np.random.default_rng(1).standard_normal((6, 3)))).data
    assert np.array_equal(out, np.tile([5.0, -1.0], (6, 1)))


def test_dense_param_count_invariant():
    store = ParameterStore(seed=0)
    _dense(store, 7, 5)
    assert store.total_count() == 7 * 5 + 5


def test_dense_matches_loop_oracle():
    store = ParameterStore(seed=3)
    layer = _dense(store, 5, 4, activation="tanh")
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5))
    expected = np.empty((2, 4))
    for b in range(2):
        for j in range(4):
            acc = layer.bias.data[j]
            for i in range(5):
                acc += x[b, i] * layer.kernel.data[0, i, j]
            expected[b, j] = np.tanh(acc)
    assert np.max(np.abs(layer(Tensor(x)).data - expected)) < 1e-12


def test_dense_dim_mismatch():
    store = ParameterStore(seed=0)
    layer = _dense(store, 3, 2)
    with pytest.raises(T.DimensionError):
        layer(Tensor(np.zeros((2, 4))))


def test_block_k1_reduces_to_dense():
    store = ParameterStore(seed=5)
    blk = _block(store, 6, 4, 1)
    x = np.random.default_rng(5).standard_normal((3, 6))
    assert np.array_equal(blk(Tensor(x)).data, x @ blk.kernel.data[0] + blk.bias.data)


def test_block_k2_hand_case_equals_expanded_kernel():
    store = ParameterStore(seed=0)
    blk = _block(store, 4, 4, 2)
    blk.kernel.data[...] = np.array(
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    )
    blk.bias.data[...] = [0.1, 0.2, 0.3, 0.4]
    x = np.array([[1.0, -1.0, 2.0, 0.5], [0.0, 1.0, 1.0, 1.0]])
    expected = x @ expand_blocks(blk.kernel.data) + blk.bias.data
    assert np.array_equal(blk(Tensor(x)).data, expected)


def test_block_param_count_512():
    store = ParameterStore(seed=0)
    blk = _block(store, 512, 512, 8)
    assert store.total_count() == 512 * 512 // 8 + 512 == 33280
    full = 512 * 512 + 512
    assert full == 262656
    assert blk.kernel.size * 8 == 512 * 512
    assert abs(262144 / blk.kernel.size - 8.0) < 1e-12
    assert 262656 / 33280 == pytest.approx(7.89, abs=0.01)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
def test_block_equivalence_property(k, m, n, batch, seed):
    in_dim, out_dim = k * m, k * n
    store = ParameterStore(seed=seed)
    blk = _block(store, in_dim, out_dim, k)
    x = np.random.default_rng(seed).standard_normal((batch, in_dim))
    full = expand_blocks(blk.kernel.data)
    expected = 1.0 / (1.0 + np.exp(-(x @ full + blk.bias.data)))
    assert np.max(np.abs(sigmoid(blk(Tensor(x))).data - expected)) <= 1e-12


def test_block_handles_leading_batch_dims():
    store = ParameterStore(seed=2)
    blk = _block(store, 6, 4, 2)
    x = np.random.default_rng(2).standard_normal((3, 5, 6))
    got = blk(Tensor(x)).data
    expected = x @ expand_blocks(blk.kernel.data) + blk.bias.data
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_block_matmul_on_3d_inputs_matches_expanded_kernel(k):
    store = ParameterStore(seed=k)
    rng = store.rng("init")
    store.create("x", (2, 3, 4), lambda: rng.standard_normal((2, 3, 4)))
    store.create("w", (k, 4 // k, 8 // k), lambda: rng.standard_normal((k, 4 // k, 8 // k)))
    got = T.block_matmul(store["x"], store["w"]).data
    expected = store["x"].data @ expand_blocks(store["w"].data)
    assert got.shape == (2, 3, 8)
    assert np.max(np.abs(got - expected)) <= 1e-12
    weights = Tensor(rng.standard_normal((2, 3, 8)))

    def f(s):
        return T.reduce_sum(T.tanh(T.block_matmul(s["x"], s["w"])) * weights)

    assert grad_check(f, store) < 1e-6


def test_block_divisibility_checked_at_construction():
    store = ParameterStore(seed=0)
    with pytest.raises(ConfigError):
        _block(store, 6, 4, 4)
    with pytest.raises(ConfigError):
        _block(store, 8, 6, 4)


def test_dense_and_block_gradients():
    store = ParameterStore(seed=11)
    dense = _dense(store, 4, 3, activation="tanh", name="dn")
    blk = _block(store, 4, 6, 2, name="bk")
    x = Tensor(np.random.default_rng(11).standard_normal((3, 4)))

    def f(s):
        return T.reduce_sum(sigmoid(blk(T.block_matmul(dense(x), Tensor(np.random.default_rng(1).standard_normal((1, 3, 4)))))))

    assert grad_check(f, store) < 1e-6


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
    rng = np.random.default_rng(1)
    assert dropout(x, 0.0, True, rng) is x


def test_dropout_inference_is_identity():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
    assert dropout(x, 0.9, False, np.random.default_rng(1)) is x


def test_dropout_statistics():
    rng = np.random.default_rng(123)
    x = Tensor(np.ones(100_000))
    out = dropout(x, 0.5, True, rng).data
    kept = np.count_nonzero(out) / out.size
    assert abs(kept - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones(3))
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError):
            dropout(x, rate, True, np.random.default_rng(0))


def test_unknown_activation_rejected():
    store = ParameterStore(seed=0)
    with pytest.raises(ConfigError):
        Dense(store, "x", 2, 2, activation="gelu")
    assert set(ACTIVATIONS) == {"none", "tanh"}
