"""Tensor op semantics and gradient correctness against finite differences."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import contract_reshaped, grad_check, logsumexp_lastdim, sigmoid

from slotlab import tensor as T
from slotlab.params import ParameterStore
from slotlab.tensor import (
    ContractError,
    DimensionError,
    Tensor,
    backward,
)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[[5.0, 6.0], [7.0, 8.0]]])
    assert np.array_equal(T.block_matmul(a, b).data, b.data[0])


def test_matmul_hand_case():
    out = T.block_matmul(Tensor([[1.0, 2.0]]), Tensor([[[3.0], [4.0]]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = T.block_matmul(Tensor(a), Tensor(b[None])).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.block_matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 4, 2))))
    assert "(2, 3)" in str(err.value) and "(1, 4, 2)" in str(err.value)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matmul_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, 4)), rng.standard_normal((1, 4, 5)), rng.standard_normal((1, 5, 2))
    mm = T.block_matmul
    left = mm(mm(Tensor(a), Tensor(b)), Tensor(c)).data
    right = mm(Tensor(a), Tensor(mm(Tensor(b[0]), Tensor(c)).data[None])).data
    assert np.max(np.abs(left - right)) < 1e-10


def test_softmax_symmetric():
    out = T.softmax_lastdim(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_single_masked_slot():
    out = T.softmax_lastdim(Tensor([-np.inf, 0.0]))
    assert out.data.tolist() == [0.0, 1.0]


def test_softmax_all_masked_row_returns_zeros():
    out = T.softmax_lastdim(Tensor([-np.inf, -np.inf]))
    assert out.data.tolist() == [0.0, 0.0]


def test_softmax_rows_sum_to_one_with_partial_mask():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7))
    x[2, :3] = -np.inf
    p = T.softmax_lastdim(Tensor(x)).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p[2, :3] == 0.0)


def test_softmax_row_unchanged_by_appended_masked_entries():
    """A short utterance's attention row alone and padded inside a longer batch: the same bits."""
    x = np.random.default_rng(4).standard_normal((3, 6))
    alone = T.softmax_lastdim(Tensor(x)).data
    for extra in (1, 2, 5, 12):
        padded = np.concatenate([x, np.full((3, extra), -np.inf)], axis=1)
        assert np.array_equal(T.softmax_lastdim(Tensor(padded)).data[:, :6], alone), extra


def test_backward_of_sum_is_ones():
    store = ParameterStore(seed=1)
    p = store.create("p", (2, 3), lambda: np.arange(6.0).reshape(2, 3))
    backward(T.reduce_sum(p))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_of_half_square_is_value():
    store = ParameterStore(seed=1)
    p = store.create("p", (2, 3), lambda: np.arange(6.0).reshape(2, 3))
    backward(T.reduce_sum(p * p) * 0.5)
    assert np.allclose(p.grad, p.data, atol=1e-15)


def test_backward_accumulates_without_zero():
    store = ParameterStore(seed=1)
    p = store.create("p", (3,), lambda: np.ones(3))
    loss = T.reduce_sum(p)
    backward(loss)
    backward(loss)
    assert np.array_equal(p.grad, 2 * np.ones(3))
    store.zero_grads()
    assert np.array_equal(p.grad, np.zeros(3))


def test_backward_rejects_non_scalar():
    store = ParameterStore(seed=1)
    p = store.create("p", (3,), lambda: np.ones(3))
    with pytest.raises(ContractError):
        backward(p * 2.0)


def test_backward_shared_subexpression():
    store = ParameterStore(seed=1)
    p = store.create("p", (1,), lambda: np.array([3.0]))
    y = p * p  # dy/dp = 2p
    backward(T.reduce_sum(y + y))
    assert np.allclose(p.grad, [12.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_helper_is_bitwise_the_three_exp_expression(dtype):
    d = np.concatenate([[-1e3, -50.0, -1.0, -1e-8, -0.0, 0.0, 1e-8, 1.0, 50.0, 1e3], np.linspace(-40, 40, 801)])
    d = d.astype(dtype)
    old = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    old = old.astype(d.dtype, copy=False)
    new = T._sigmoid(d)
    assert new.dtype == d.dtype
    assert np.array_equal(new.view(np.uint8), old.view(np.uint8))
    assert np.array_equal(sigmoid(T.constant(d)).data, new)


def test_no_grad_records_no_graph_and_restores_on_exit():
    store = ParameterStore(seed=1)
    p = store.create("p", (2,), lambda: np.array([3.0, -1.0]))
    with T.no_grad():
        y = T.tanh(p * p)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, np.tanh(p.data * p.data))
    with pytest.raises(RuntimeError), T.no_grad():
        raise RuntimeError("leave the block early")
    z = T.reduce_sum(p * p)
    assert z.requires_grad
    backward(z)
    assert np.array_equal(p.grad, 2 * p.data)


_CHURN = """
import resource
import sys
import numpy as np
from slotlab import tensor as T

size = int(sys.argv[1])
T.add(T.constant(np.zeros(size)), T.constant(np.zeros(size)))

def churn():
    arrays = [np.ones(1 << 17) for _ in range(8)]  # eight 1 MiB temporaries, as in one full-size LSTM step
    del arrays

for _ in range(3):
    churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_freed_arrays_are_reused_after_a_large_op():
    """After an op makes a 1 MiB result, freed MiB arrays stay in the heap; small ops and the environment win."""
    src = str(Path(T.__file__).resolve().parents[1])

    def faults(op_elements, **env):
        run_env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        run_env.update(PYTHONPATH=src, **env)
        cmd = [sys.executable, "-c", _CHURN, str(op_elements)]
        return int(subprocess.run(cmd, capture_output=True, text=True, env=run_env, check=True).stdout)

    assert faults(1 << 17) < 100
    assert faults(1 << 10) > 5000  # glibc's own thresholds: 40 MiB faulted in again
    assert faults(1 << 17, MALLOC_MMAP_THRESHOLD_="131072") > 5000


def _composite(store: ParameterStore):
    a, b = store["a"], store["b"]
    h = T.tanh(T.block_matmul(a, T.reshape(b, (1, 4, 4))) + store["c"])
    s = T.softmax_lastdim(h * 1.7)
    z = T.einsum2("ij,jk->ik", s, b)
    return T.reduce_mean(sigmoid(z)) + logsumexp_lastdim(T.reshape(h, (-1,)))


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_matches_finite_differences(seed):
    store = ParameterStore(seed=seed)
    rng = store.rng("init")
    store.create("a", (3, 4), lambda: rng.standard_normal((3, 4)) * 0.5)
    store.create("b", (4, 4), lambda: rng.standard_normal((4, 4)) * 0.5)
    store.create("c", (4,), lambda: rng.standard_normal(4) * 0.5)
    assert grad_check(_composite, store) < 1e-4


def test_grad_check_linear_layer_tight():
    store = ParameterStore(seed=7)
    rng = store.rng("init")
    store.create("w", (1, 5, 3), lambda: rng.standard_normal((1, 5, 3)))
    store.create("b", (3,), lambda: rng.standard_normal(3))
    x = Tensor(rng.standard_normal((4, 5)))

    def f(s):
        return T.reduce_sum(T.tanh(T.block_matmul(x, s["w"]) + s["b"]))

    assert grad_check(f, store) < 1e-6


@pytest.mark.parametrize(
    "op",
    [
        lambda x: T.block_matmul(x, Tensor(np.arange(16.0).reshape(2, 2, 4) * 0.1)),
        lambda x: T.einsum2("ij,kj->ik", x, Tensor(np.arange(12.0).reshape(3, 4) * 0.1)),
        lambda x: sigmoid(x),
        lambda x: T.tanh(x),
        lambda x: logsumexp_lastdim(x),
        lambda x: T.softmax_lastdim(x) * np.arange(8.0).reshape(2, 4),
        lambda x: T.reduce_sum(x, axis=0),
        lambda x: T.reduce_mean(x, axis=1),
        lambda x: T.transpose(x, (1, 0)),
        lambda x: T.narrow(x, 1, 1, 2),
        lambda x: T.take_rows(x, np.array([1, 0, 1])),
        lambda x: T.reshape(x, (8,)),
        lambda x: T.concat([x, x * 2.0], axis=1),
        lambda x: x + np.ones((2, 4)),
        lambda x: x - 0.5,
        lambda x: -x,
        lambda x: x / 2.0,
    ],
)
def test_each_op_gradient_matches_fd(op):
    for seed in range(3):
        store = ParameterStore(seed=seed)
        store.create("x", (2, 4), lambda: np.random.default_rng(seed).standard_normal((2, 4)) + 0.1)

        def f(s):
            return T.reduce_sum(op(s["x"]) * 1.3)

        assert grad_check(f, store) < 1e-4


def test_broadcast_add_gradients():
    store = ParameterStore(seed=0)
    store.create("v", (4,), lambda: np.arange(4.0))
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))

    def f(s):
        return T.reduce_sum(sigmoid(x + s["v"]))

    assert grad_check(f, store) < 1e-6


def test_einsum2_rejects_internal_sum():
    with pytest.raises(DimensionError):
        T.einsum2("ij,jk->k", Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))


def test_einsum2_rejects_index_repeated_within_an_operand():
    with pytest.raises(DimensionError, match="repeats an index"):
        T.einsum2("ii,ij->j", Tensor(np.ones((3, 3))), Tensor(np.ones((3, 4))))


# every contraction the attention variants run, with small distinct sizes (b=2, h=3, i=j=4, d=5, r=7), plus the
# relative term's earlier layouts rd,hd->hr, whose three columns take `_matmul`'s zero-padded path, and hd,rd->rh,
# and the shared query's earlier content scores bjhd,hd->bhj; the key-projection reference in test_attention runs
# the last two
_MODEL_EINSUMS = [
    ("bjhd,hd->bhj", (2, 4, 3, 5), (3, 5)),
    ("rd,hd->hr", (7, 5), (3, 5)),
    ("bihd,bjhd->bhij", (2, 4, 3, 5), (2, 4, 3, 5)),
    ("bihd,ijd->bhij", (2, 4, 3, 5), (4, 4, 5)),
    ("bhij,bjhd->bihd", (2, 3, 4, 4), (2, 4, 3, 5)),
    ("hd,rd->rh", (3, 5), (7, 5)),
    ("imcu,icu->imc", (3, 6, 2, 4), (3, 2, 4)),
    ("hd,rd->hr", (3, 5), (7, 5)),
]


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("k_in, n_out", [(48, 192), (16, 64), (128, 512), (64, 64), (256, 5), (64, 3)])
def test_block_matmul_rows_are_bitwise_equal_at_every_row_count(k_in, n_out, k):
    """Rows 0..m-1 of an m-row product equal those of the 40-row product, m = 1 (BLAS's gemv) included.

    Each of the k blocks is [k_in, n_out].
    """
    rng = np.random.default_rng(k_in + n_out + k)
    x = rng.standard_normal((40, k * k_in))
    w = Tensor(rng.standard_normal((k, k_in, n_out)))
    full = T.block_matmul(Tensor(x), w).data
    for m in range(1, 40):
        assert np.array_equal(T.block_matmul(Tensor(x[:m]), w).data, full[:m]), m


def _block_mm_copied(x, w):
    """Reference: the [..., k, N, n] block products computed whole, then swapped and copied into layout."""
    k, m, n = w.shape
    lead = x.shape[:-1]
    return T._matmul(x.reshape(lead + (k, m)).swapaxes(-3, -2), w).swapaxes(-3, -2).reshape(lead + (k * n,))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_block_products_written_in_place_are_bitwise_the_copied_layout(k):
    """2-D and 3-D inputs, the transposed kernel view the input gradient uses, one-row inputs and n < 4.

    At k = 1 the product is `_matmul` with the one block, broadcast over the leading axes.
    """
    rng = np.random.default_rng(k)
    for m, n in ((8, 16), (3, 5), (16, 4), (4, 3), (5, 1)):
        for dtype in (np.float64, np.float32):
            w = rng.standard_normal((k, m, n)).astype(dtype)
            for lead in ((1,), (2,), (37,), (3, 1), (4, 9)):
                for x, kernel in (
                    (rng.standard_normal(lead + (k * m,)).astype(dtype), w),
                    (rng.standard_normal(lead + (k * n,)).astype(dtype), w.swapaxes(1, 2)),
                ):
                    got, want = T._block_mm(x, kernel), _block_mm_copied(x, kernel)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (m, n, lead, dtype)


def test_einsum2_one_utterance_is_bitwise_its_row_of_the_batch():
    """The shared query's content scores are a matrix times a vector; B = 1 must not change the bits."""
    rng = np.random.default_rng(5)
    keys, query = rng.standard_normal((32, 9, 2, 32)), Tensor(rng.standard_normal((2, 32)))
    full = T.einsum2("bjhd,hd->bhj", Tensor(keys), query).data
    for b in range(32):
        for length in (1, 4, 9):
            one = T.einsum2("bjhd,hd->bhj", Tensor(keys[b : b + 1, :length]), query).data
            assert np.array_equal(one[0], full[b, :, :length]), (b, length)


@pytest.mark.parametrize("spec, a_shape, b_shape", _MODEL_EINSUMS)
def test_einsum2_matches_np_einsum_forward_and_gradients(spec, a_shape, b_shape):
    rng = np.random.default_rng(len(spec))
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    out = T.einsum2(spec, a, b)
    assert np.allclose(out.data, np.einsum(spec, a.data, b.data), rtol=0, atol=1e-12)
    g = rng.standard_normal(out.shape)
    backward(T.reduce_sum(out * g))
    lhs, out_s = spec.split("->")
    a_s, b_s = lhs.split(",")
    assert np.allclose(a.grad, np.einsum(f"{out_s},{b_s}->{a_s}", g, b.data), rtol=0, atol=1e-12)
    assert np.allclose(b.grad, np.einsum(f"{a_s},{out_s}->{b_s}", a.data, g), rtol=0, atol=1e-12)

    store = ParameterStore(seed=0)
    store.create("a", a_shape, lambda: a.data * 0.5)
    store.create("b", b_shape, lambda: b.data * 0.5)
    weights = Tensor(g)
    assert grad_check(lambda s: T.reduce_sum(T.einsum2(spec, s["a"], s["b"]) * weights), store) < 1e-5


def variant_einsums(B: int, length: int) -> list[tuple[str, tuple, tuple]]:
    """The contractions the attention variants' forwards run, at B utterances of `length` words, 2 heads of width 32
    (where BLAS rounds a transposed operand differently from its C-ordered copy) and 13 relative buckets. The key
    kernel meets the query as one [1, 64, 2, 32] block and as eight [8, 1, 8] unit blocks."""
    h, d, r = 2, 32, 13
    return [
        ("imcu,icu->imc", (1, 64, 2, d), (1, 2, d)),
        ("imcu,icu->imc", (8, 8, 1, 8), (8, 1, 8)),
        ("hd,rd->hr", (h, d), (r, d)),
        ("bihd,bjhd->bhij", (B, length, h, d), (B, length, h, d)),
        ("bihd,ijd->bhij", (B, length, h, d), (length, length, d)),
        ("bhij,bjhd->bihd", (B, h, length, length), (B, length, h, d)),
    ]


VARIANT_SHAPES = {"B = 1": (1, 9), "T = 1": (5, 1), "ragged grid": (3, 7), "batch": (16, 12)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", VARIANT_SHAPES)
def test_einsum2_is_bitwise_the_reshape_path_forward_and_backward(batch, dtype):
    """Forward and gradient bits are those of transpose, reshape, `_matmul`, reshape, transpose. The gradients
    include outputs ending in a's free index (`hd,hr->rd`, `bihd,bhij->bjhd`), which take the reshape path."""
    rng = np.random.default_rng(sum(VARIANT_SHAPES[batch]))
    for spec, a_shape, b_shape in variant_einsums(*VARIANT_SHAPES[batch]):
        a = Tensor(rng.standard_normal(a_shape).astype(dtype), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape).astype(dtype), requires_grad=True)
        lhs, out_s = spec.split("->")
        a_s, b_s = lhs.split(",")
        out = T.einsum2(spec, a, b)
        want = contract_reshaped(a_s, b_s, out_s, a.data, b.data)
        assert out.data.dtype == dtype and out.data.tobytes() == np.ascontiguousarray(want).tobytes(), spec
        g = rng.standard_normal(out.shape).astype(dtype)
        backward(T.reduce_sum(out * T.constant(g)))
        for got, ref in (
            (a.grad, contract_reshaped(out_s, b_s, a_s, g, b.data)),
            (b.grad, contract_reshaped(a_s, out_s, b_s, a.data, g)),
        ):
            assert got.dtype == dtype and got.tobytes() == np.ascontiguousarray(ref).tobytes(), spec


def test_einsum2_context_product_is_c_ordered_so_its_reshape_is_a_view():
    """The attention's context product is written in its output order, so flattening the heads copies nothing."""
    rng = np.random.default_rng(3)
    probs, values = Tensor(rng.standard_normal((4, 2, 6, 6))), Tensor(rng.standard_normal((4, 6, 2, 32)))
    ctx = T.einsum2("bhij,bjhd->bihd", probs, values)
    flat = T.reshape(ctx, (4, 6, 64))
    assert ctx.data.flags.c_contiguous
    assert np.shares_memory(flat.data, ctx.data)
    scores = T.einsum2("bihd,bjhd->bhij", values, values)
    assert scores.data.flags.c_contiguous


def test_einsum2_copies_an_operand_whose_matrices_blas_cannot_read():
    """An operand with neither unit row nor unit column stride, here a gradient read every other element, is
    copied before np.matmul, which would otherwise leave BLAS for its own loop."""
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((3, 5, 8)), rng.standard_normal((3, 16, 6))[:, ::2]
    got = T._contract("bik", "bkj", "bij", a, b)
    assert got.tobytes() == contract_reshaped("bik", "bkj", "bij", a, np.ascontiguousarray(b)).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "case, leaf_shape, index",
    [
        ("transposed table", (3, 6), [5, 0, 5, 2, 5, 0, 2]),
        ("1-D table", (7,), [6, 1, 1, 3, -1, 6]),
        ("2-D index with repeats, rows 1 and 5 untouched", (6, 4), [[0, 2, 2], [4, -3, 0], [2, 0, 3]]),
    ],
)
def test_take_rows_gradient_is_bitwise_np_add_at(dtype, case, leaf_shape, index):
    """The scatter equals the row-indexed np.add.at bit for bit, even when the table is a transposed view."""
    rng = np.random.default_rng(3)
    leaf = Tensor(rng.standard_normal(leaf_shape).astype(dtype), requires_grad=True)
    table = T.transpose(leaf, (1, 0)) if case == "transposed table" else leaf
    idx = np.array(index)
    shape = idx.shape + table.shape[1:]
    weights = (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)).astype(dtype)  # order of adds shows
    backward(T.reduce_sum(T.take_rows(table, idx) * weights))

    expected = np.zeros(table.shape, dtype)
    np.add.at(expected, idx, weights)
    if case == "transposed table":
        expected = expected.T
    assert leaf.grad.dtype == expected.dtype and leaf.grad.shape == expected.shape
    assert leaf.grad.tobytes() == expected.tobytes()  # C order for both, whatever their layout


# pad and unpad: packed rows, sequence b's after sequence b-1's, to and from a zero-padded grid
PAD_LENGTHS = [np.array([2, 4, 1]), np.array([3, 3]), np.array([1])]


@pytest.mark.parametrize("lengths", PAD_LENGTHS, ids=["ragged", "equal", "one"])
def test_pad_and_unpad_gradients_match_fd(lengths):
    rng = np.random.default_rng(len(lengths))
    n, t_max = int(lengths.sum()), int(lengths.max())
    store = ParameterStore(seed=0)
    store.create("rows", (n, 3), lambda: rng.standard_normal((n, 3)))
    store.create("grid", (len(lengths), t_max + 1, 3), lambda: rng.standard_normal((len(lengths), t_max + 1, 3)))
    w_grid, w_rows = Tensor(rng.standard_normal((len(lengths), t_max, 3))), Tensor(rng.standard_normal((n, 3)))
    assert grad_check(lambda s: T.reduce_sum(T.tanh(T.pad(s["rows"], lengths)) * w_grid), store) < 1e-5
    assert grad_check(lambda s: T.reduce_sum(T.tanh(T.unpad(s["grid"], lengths)) * w_rows), store) < 1e-5


@pytest.mark.parametrize("lengths", PAD_LENGTHS, ids=["ragged", "equal", "one"])
def test_pad_and_unpad_backward_is_exactly_the_inverse_gather_and_scatter(lengths):
    rng = np.random.default_rng(7)
    n, t_max, B = int(lengths.sum()), int(lengths.max()), len(lengths)
    real = np.arange(t_max) < lengths[:, None]  # [B, Tmax]: the slots that hold a row
    rows = Tensor(rng.standard_normal((n, 2)), requires_grad=True)
    grid = T.pad(rows, lengths)
    assert grid.shape == (B, t_max, 2)
    assert np.array_equal(grid.data[real], rows.data) and not grid.data[~real].any()
    g = rng.standard_normal(grid.shape)
    backward(T.reduce_sum(grid * Tensor(g)))
    assert rows.grad.tobytes() == g[real].tobytes()  # a plain gather: no padded slot reaches a row

    leaf = Tensor(rng.standard_normal((B, t_max + 1, 2)), requires_grad=True)  # one slot more than any length
    cut = T.unpad(leaf, lengths)
    wider = np.arange(t_max + 1) < lengths[:, None]
    assert np.array_equal(cut.data, leaf.data[wider]) and np.array_equal(T.unpad(grid, lengths).data, rows.data)
    g = rng.standard_normal(cut.shape)
    backward(T.reduce_sum(cut * Tensor(g)))
    expected = np.zeros(leaf.shape)
    expected[wider] = g
    assert leaf.grad.tobytes() == expected.tobytes()  # a plain scatter: each slot written once, padding zero


def test_pad_and_unpad_reject_rows_that_do_not_fit_the_lengths():
    with pytest.raises(DimensionError):
        T.pad(Tensor(np.zeros((4, 2))), np.array([2, 1]))
    for shape in ((2, 1, 2), (3, 2, 2), (4,)):
        with pytest.raises(DimensionError):
            T.unpad(Tensor(np.zeros(shape)), np.array([2, 1]))


def test_block_matmul_input_gradient_with_the_c_ordered_kernel_matches_the_f_ordered_product():
    """Backward multiplies by a C-ordered copy of the transposed blocks; the swapped view it replaced agrees."""
    rng = np.random.default_rng(11)
    for k, m, n, lead in ((1, 48, 192, (37,)), (1, 64, 5, (3, 9)), (4, 16, 32, (3, 9)), (8, 64, 16, (50,))):
        x = Tensor(rng.standard_normal(lead + (k * m,)), requires_grad=True)
        w = Tensor(rng.standard_normal((k, m, n)))
        g = rng.standard_normal(lead + (k * n,))
        backward(T.reduce_sum(T.block_matmul(x, w) * Tensor(g)))
        f_ordered = w.data.swapaxes(1, 2)
        assert not f_ordered.flags.c_contiguous
        assert np.max(np.abs(x.grad - T._block_mm(g, f_ordered))) < 1e-12, (k, m, n)


def _char_table_grads(table_data, ids, lens, weights):
    """The table gradient of a packed LSTM reading rows `ids` of the table: the op's one-hot product, and the
    np.add.at reference, which scatters the gate-input gradients of a run over the gathered rows."""
    H = table_data.shape[1] // 4
    kernel = Tensor(np.random.default_rng(1).standard_normal((1, H, 4 * H)) * 0.5)
    bias = Tensor(np.zeros(4 * H))
    table = Tensor(table_data, requires_grad=True)
    backward(T.reduce_sum(T.lstm_packed(table, ids, kernel, bias, lens) * weights))
    gathered = Tensor(table_data[ids], requires_grad=True)  # one row per character: the one-hot product is exact
    backward(T.reduce_sum(T.lstm_packed(gathered, np.arange(len(ids)), kernel, bias, lens) * weights))
    reference, magnitude = np.zeros_like(table_data), np.zeros_like(table_data)
    np.add.at(reference, ids, gathered.grad)
    np.add.at(magnitude, ids, np.abs(gathered.grad))
    return table.grad, reference, magnitude


def test_char_table_gradient_is_the_np_add_at_sum_to_rounding_and_reproducible():
    rng = np.random.default_rng(4)
    V, H = 26, 12
    lens = sorted(rng.integers(1, 12, 40).tolist(), reverse=True)
    ids = rng.integers(0, V - 3, sum(lens))  # the last three rows are never read
    table_data = rng.standard_normal((V, 4 * H))
    weights = Tensor(rng.standard_normal((len(lens), H)))
    got, reference, magnitude = _char_table_grads(table_data, ids, lens, weights)
    assert np.all(np.abs(got - reference) <= 1e-12 * magnitude)
    assert not got[V - 3 :].any() and got[: V - 3].any()
    again, _, _ = _char_table_grads(table_data, ids, lens, weights)
    assert again.tobytes() == got.tobytes()


def test_store_rejects_duplicate_names():
    store = ParameterStore(seed=0)
    store.create("p", (1,), lambda: np.ones(1))
    with pytest.raises(ContractError):
        store.create("p", (1,), lambda: np.ones(1))


def test_store_count_and_order_reproducible():
    def build():
        store = ParameterStore(seed=42)
        store.create("first", (3, 5), lambda: store.rng("first").standard_normal((3, 5)))
        store.create("second", (7,), lambda: store.rng("second").standard_normal(7))
        return store

    s1, s2 = build(), build()
    assert s1.total_count() == s2.total_count() == 22
    assert [p.name for p in s1] == [p.name for p in s2]
    for p1, p2 in zip(s1, s2):
        assert np.array_equal(p1.data, p2.data)


def test_named_rng_is_stable_and_split():
    store = ParameterStore(seed=9)
    a = store.rng("path.a").random(4)
    b = store.rng("path.b").random(4)
    assert not np.allclose(a, b)
    again = ParameterStore(seed=9).rng("path.a").random(4)
    assert np.array_equal(a, again)


def test_every_named_error_is_a_slotlab_error_and_keeps_its_builtin_base():
    from slotlab import SlotlabError
    from slotlab.cli import ERRORS
    from slotlab.data import DataError

    for cls, builtin in (
        (DataError, ValueError),
        (T.ConfigError, ValueError),
        (ContractError, ValueError),
        (DimensionError, ValueError),
        (T.NumericError, RuntimeError),
    ):
        assert issubclass(cls, SlotlabError) and issubclass(cls, builtin), cls
    assert ERRORS == (SlotlabError, OSError)


def test_the_package_exports_only_the_user_api():
    """Layers, parameters, tensors and the optimizer are imported from their modules, not from `slotlab`."""
    import slotlab

    assert set(slotlab.__all__) == {
        "Checkpoint", "CharVocab", "DataError", "EvalReport", "ModelConfig", "SlotModel", "SlotSpan", "SlotlabError",
        "TagSet", "Utterance", "bio_from_spans", "count_parameters", "fraction_split", "load_dataset",
        "parameter_reduction", "save_jsonl", "span_f1", "spans_from_bio", "substitute_entities", "tokenize", "train",
    }
    assert all(hasattr(slotlab, name) for name in slotlab.__all__)


def test_grad_check_reports_nan_parameter():
    store = ParameterStore(seed=0)
    store.create("bad", (2,), lambda: np.ones(2))

    def f(s):
        return logsumexp_lastdim(s["bad"] - np.inf)  # log(0) -> -inf, grad 0/0 -> nan

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(Exception) as err:
            grad_check(f, store)
    assert "bad" in str(err.value)
