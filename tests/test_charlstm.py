"""Char vocab and char-LSTM encoder contracts, with a hand-rolled step oracle
and the unfused per-step composition of tensor ops as the fused op's reference."""

import numpy as np
import pytest
from reference_ops import grad_check, sigmoid

from slotlab import tensor as T
from slotlab.charlstm import PAD_ID, UNK_ID, CharLstmEncoder, CharVocab
from slotlab.params import ParameterStore
from slotlab.tensor import ContractError, DimensionError


def make_encoder(seed=0, vocab=None, char_embed=5, units=4, d_model=6, num_blocks=1, dtype="f64"):
    vocab = vocab or CharVocab.from_words(["abc", "xyz", "hello"])
    store = ParameterStore(seed=seed, dtype=dtype)
    return store, vocab, CharLstmEncoder(store, vocab.size, char_embed, units, d_model, num_blocks=num_blocks)


def encode_one(enc, ids):
    """A single word, encoded as a batch of one: [d_model]."""
    return enc.encode_words([ids]).data[0]


def test_vocab_reserved_ids_and_size():
    vocab = CharVocab.from_words(["ba", "ad"])
    assert vocab.size == len(set("baad")) + 2
    ids = vocab.encode("bad")
    assert all(i >= 2 for i in ids)
    assert PAD_ID == 0 and UNK_ID == 1


def test_vocab_unknown_chars_map_to_unk():
    vocab = CharVocab.from_words(["ab"])
    assert vocab.encode("aQb") == [vocab.encode("a")[0], UNK_ID, vocab.encode("b")[0]]


def test_vocab_rejects_empty_word():
    with pytest.raises(ContractError):
        CharVocab.from_words(["ab"]).encode("")


def test_same_word_same_embedding():
    store, vocab, enc = make_encoder()
    ids = vocab.encode("hello")
    a = encode_one(enc, ids)
    b = encode_one(enc, ids)
    assert np.array_equal(a, b)


def test_unseen_word_is_finite():
    store, vocab, enc = make_encoder()
    out = encode_one(enc, vocab.encode("QQQ"))
    assert np.isfinite(out).all() and out.shape == (6,)


def _lstm_step_oracle(x, h, c, w, u, b, units):
    """Independent single LSTM step on raw numpy."""
    gates = x @ w + h @ u + b
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(gates[:units])
    f = sig(gates[units : 2 * units])
    g = np.tanh(gates[2 * units : 3 * units])
    o = sig(gates[3 * units :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def test_single_char_word_matches_one_step_oracle():
    store, vocab, enc = make_encoder()
    cid = vocab.encode("a")
    x = enc.embed.data[cid[0]]
    h0 = np.zeros(enc.lstm_units)
    h1, _ = _lstm_step_oracle(
        x, h0, h0, enc.input_map.kernel.data[0], enc.recurrent_map.kernel.data[0], enc.b.data, enc.lstm_units
    )
    expected = np.tanh(h1 @ enc.proj.kernel.data[0] + enc.proj.bias.data)
    got = encode_one(enc, cid)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_multi_step_matches_oracle():
    store, vocab, enc = make_encoder()
    ids = vocab.encode("hello")
    h = c = np.zeros(enc.lstm_units)
    for cid in ids:
        h, c = _lstm_step_oracle(
            enc.embed.data[cid], h, c, enc.input_map.kernel.data[0], enc.recurrent_map.kernel.data[0], enc.b.data, enc.lstm_units
        )
    expected = np.tanh(h @ enc.proj.kernel.data[0] + enc.proj.bias.data)
    assert np.max(np.abs(encode_one(enc, ids) - expected)) < 1e-12


def test_permuting_words_permutes_rows():
    store, vocab, enc = make_encoder()
    words = [vocab.encode(w) for w in ["abc", "hello", "xyz"]]
    out = enc.encode_utterance(words).data
    perm = enc.encode_utterance([words[2], words[0], words[1]]).data
    assert np.array_equal(perm, out[[2, 0, 1]])


def test_single_word_utterance_shape():
    store, vocab, enc = make_encoder()
    out = enc.encode_utterance([vocab.encode("abc")])
    assert out.shape == (1, 6)


def test_batch_of_one_equals_unbatched():
    """A word alone equals each row of an unpadded batch of repeats of it."""
    store, vocab, enc = make_encoder()
    ids = vocab.encode("hello")
    single = encode_one(enc, ids)
    for row in enc.encode_words([ids, ids, ids]).data:
        assert np.max(np.abs(single - row)) < 1e-12


def test_padded_batch_equals_per_word():
    """Mixed word lengths force padding; results must match per-word encoding."""
    store, vocab, enc = make_encoder()
    words = [vocab.encode(w) for w in ["a", "hello", "xy", "abcabc"]]
    batch = enc.encode_words(words).data
    for row, ids in zip(batch, words):
        assert np.max(np.abs(row - encode_one(enc, ids))) < 1e-12


def test_no_cross_word_state_leakage():
    store, vocab, enc = make_encoder()
    ids = vocab.encode("abc")
    alone = enc.encode_words([ids]).data[0]
    with_neighbors = enc.encode_words([vocab.encode("hello"), ids, vocab.encode("xyz")]).data[1]
    assert np.max(np.abs(alone - with_neighbors)) < 1e-12


def test_dropout_only_in_training():
    store, vocab, enc = make_encoder()
    words = [vocab.encode("abc"), vocab.encode("xyz")]
    clean = enc.encode_utterance(words, dropout_rate=0.5, training=False).data
    assert np.array_equal(clean, enc.encode_words(words).data)
    noisy = enc.encode_utterance(words, dropout_rate=0.5, training=True).data
    assert (noisy == 0.0).any()


def test_lstm_gradients_over_sequences():
    store, vocab, enc = make_encoder(seed=5, char_embed=3, units=3, d_model=4)
    words = [vocab.encode(w) for w in ["hello", "abcabcab"]]  # up to 8 steps

    def f(s):
        return T.reduce_sum(T.tanh(enc.encode_words(words)))

    assert grad_check(f, store) < 1e-5


def test_encoder_rejects_empty_word_batch():
    store, vocab, enc = make_encoder()
    for char_ids in ([], [[]], [[2, 3], []], [[], [2]], [[2], [2], []]):
        with pytest.raises(ContractError):
            enc.encode_words(char_ids)


def test_forget_gate_bias_initialized_open():
    store, vocab, enc = make_encoder()
    H = enc.lstm_units
    assert np.array_equal(enc.b.data[H : 2 * H], np.ones(H))
    assert np.array_equal(enc.b.data[:H], np.zeros(H))


# ---------------------------------------------------------------------------
# the fused, packed, deduplicated encoder against the unfused composition


def unfused_encode(enc, char_ids):
    """Every word, repeats included, over a padded grid: one LSTM step of separate ops per character."""
    H = enc.lstm_units
    n, max_len = len(char_ids), max(len(w) for w in char_ids)
    ids = np.zeros((n, max_len), dtype=np.int64)
    for r, w in enumerate(char_ids):
        ids[r, : len(w)] = w
    h = c = T.constant(np.zeros((n, H), dtype=enc.embed.data.dtype))
    hs = []
    for t in range(max_len):
        x = T.take_rows(enc.embed, ids[:, t])
        gates = enc.input_map(x) + T.block_matmul(h, enc.recurrent_map.kernel) + enc.b
        i = sigmoid(T.narrow(gates, -1, 0, H))
        f = sigmoid(T.narrow(gates, -1, H, H))
        g = T.tanh(T.narrow(gates, -1, 2 * H, H))
        o = sigmoid(T.narrow(gates, -1, 3 * H, H))
        c = f * c + i * g
        h = o * T.tanh(c)
        hs.append(h)
    last = (np.array([len(w) for w in char_ids]) - 1) * n + np.arange(n)
    return enc.proj(T.take_rows(T.concat(hs, axis=0), last))


RAGGED = ["abcabc", "a", "hello", "xy", "a", "zyx", "hello", "ab", "abcabc", "x", "hel"]  # lengths 1..6, repeats


def ragged_encoder(num_blocks, seed=3, dtype="f64"):
    store, vocab, enc = make_encoder(seed=seed, char_embed=4, units=4, d_model=6, num_blocks=num_blocks, dtype=dtype)
    return store, enc, [vocab.encode(w) for w in RAGGED]


def weighted_sum(out):
    weights = np.linspace(-1.0, 1.5, out.size).reshape(out.shape)
    return T.reduce_sum(T.tanh(out) * T.constant(weights))


# f64 agrees to 1e-12. In f32 the gates' two forms of the sigmoid and the
# orders of the sums round apart: outputs by up to 3e-8 and gradients by up to
# 4.8e-7, four float32 epsilons (seeds 3-5), so the f32 bound is 2e-6.
BOUND = {"f64": 1e-12, "f32": 2e-6}
CASES = [(1, "f64"), (2, "f64"), (4, "f64"), (1, "f32"), (4, "f32")]


@pytest.mark.parametrize(
    "num_blocks, dtype", [pytest.param(nb, dt, id=str(nb) if dt == "f64" else f"{nb}-f32") for nb, dt in CASES]
)
def test_fused_encoder_matches_unfused_composition(num_blocks, dtype):
    store, enc, words = ragged_encoder(num_blocks, dtype=dtype)
    results = []
    for encode in (enc.encode_words, lambda w: unfused_encode(enc, w)):
        store.zero_grads()
        out = encode(words)
        T.backward(weighted_sum(out))
        results.append((out.data, {p.name: p.grad.copy() for p in store}))
    (fused, fused_grads), (ref, ref_grads) = results
    assert fused.shape == ref.shape == (len(RAGGED), 6) and fused.dtype == ref.dtype == T.np_dtype(dtype)
    assert np.max(np.abs(fused - ref)) < BOUND[dtype]
    for name, g in ref_grads.items():
        assert np.abs(g).max() > 0, name
        assert np.max(np.abs(fused_grads[name] - g)) < BOUND[dtype], name


@pytest.mark.parametrize("num_blocks", [1, 2, 4])
def test_fused_encoder_gradients_on_ragged_batch(num_blocks):
    store, enc, words = ragged_encoder(num_blocks)
    assert grad_check(lambda s: weighted_sum(enc.encode_words(words)), store) < 1e-5


@pytest.mark.parametrize("num_blocks", [1, 2])
def test_encoder_gradients_when_every_word_is_one_character(num_blocks):
    """One step and no recurrence: the recurrent kernel's gradient is zero, not an error."""
    store, vocab, enc = make_encoder(char_embed=4, units=4, num_blocks=num_blocks)
    words = [vocab.encode(w) for w in ("a", "x", "b", "a")]
    assert grad_check(lambda s: weighted_sum(enc.encode_words(words)), store) < 1e-5
    assert not store["encoder.lstm.recurrent.kernel"].grad.any()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cell_gates_are_the_sigmoid_within_one_epsilon_and_store_tanh_c_exactly(dtype):
    """The stored i, f and o gates against `T._sigmoid` of the same gate inputs, over
    [-40, 40] and +-1e3; g against np.tanh; the stored tanh(c) against np.tanh(c), bitwise."""
    rng = np.random.default_rng(2)
    H, lens = 6, [7, 5, 5, 3, 1]
    X = rng.uniform(-40.0, 40.0, (sum(lens), 4 * H))
    X[rng.random(X.shape) < 0.1] = 1e3
    X[rng.random(X.shape) < 0.1] = -1e3
    U, b = rng.standard_normal((2, H // 2, 2 * H)).astype(dtype), rng.standard_normal(4 * H).astype(dtype)
    table = T.Tensor(X.astype(dtype), requires_grad=True)  # one table row per character
    out = T.lstm_packed(table, np.arange(sum(lens)), T.Tensor(U), T.Tensor(b), lens)
    bwd = out._backward
    state = dict(zip(bwd.__code__.co_freevars, (cell.cell_contents for cell in bwd.__closure__)))
    acts, cs, hs, tcs = state["acts"], state["cs"], state["hs"], state["tcs"]
    _, sizes, starts, _, src = T.packed_layout(lens)
    X = X[src]  # the characters' rows, time-major
    z = X.astype(dtype) + b
    for t in range(1, len(sizes)):
        now, before = slice(starts[t], starts[t] + sizes[t]), slice(starts[t - 1], starts[t - 1] + sizes[t])
        z[now] = X[now].astype(dtype) + T._block_mm(hs[before], U)
        z[now] += b
    gate = np.r_[0 : 2 * H, 3 * H : 4 * H]
    assert np.max(np.abs(acts[:, gate] - T._sigmoid(z[:, gate]))) <= np.finfo(dtype).eps
    assert np.array_equal(acts[:, 2 * H : 3 * H], np.tanh(z[:, 2 * H : 3 * H]))
    assert tcs.dtype == dtype and tcs.tobytes() == np.tanh(cs).tobytes()


def brute_force_layout(lens):
    """(order, sizes, starts, last, src) by listing every (step, sequence) row: steps in turn, longest sequences
    first, ties in input order; step t of sequence b is row sum(lens[:b]) + t in sequence order."""
    order = sorted(range(len(lens)), key=lambda b: (-lens[b], b))
    cells = [(t, b) for t in range(max(lens)) for b in order if lens[b] > t]
    sizes = [sum(t == s for t, _ in cells) for s in range(max(lens))]
    starts = [cells.index((t, order[0])) for t in range(max(lens))]
    last = [cells.index((n - 1, b)) for b, n in enumerate(lens)]
    src = [sum(lens[:b]) + t for t, b in cells]
    return order, sizes, starts, last, src, cells


def test_the_packed_layout_is_the_brute_force_layout():
    """Random lengths with ties, all-ones lengths and a single sequence; a sequence keeps its sorted place at
    every step, so its row one step before row p is p - sizes[t - 1]."""
    rng = np.random.default_rng(5)
    cases = [rng.integers(1, 8, int(rng.integers(1, 30))).tolist() for _ in range(200)]
    cases += [[1] * 7, [1], [9], [4, 4, 4], [2, 5, 5, 1, 5]]
    for lens in cases:
        *layout, cells = brute_force_layout(lens)
        order, sizes, starts, last, src = layout
        assert T.packed_layout(lens) == tuple(layout), lens
        for p, (t, b) in enumerate(cells):
            assert p == starts[t] + order.index(b)
            if t:
                assert cells[p - sizes[t - 1]] == (t - 1, b)


def test_lstm_packed_in_any_word_order_gives_each_word_its_row_and_the_same_gradients_bitwise():
    """The lengths are distinct, so the time-major layout does not depend on the input order: shuffled words get
    their own rows back bit for bit, and the table, kernel and bias gradients are bitwise the in-order ones."""
    rng = np.random.default_rng(8)
    V, H = 9, 4
    words = [rng.integers(0, V, n) for n in (3, 7, 1, 5, 2, 6)]
    arrays = (rng.standard_normal((V, 4 * H)), rng.standard_normal((2, H // 2, 2 * H)) * 0.5, rng.standard_normal(4 * H))
    weights = rng.standard_normal((len(words), H))
    results = []
    for perm in (np.arange(6), np.arange(6)[::-1], np.array([4, 0, 5, 2, 1, 3])):
        table, kernel, bias = (T.Tensor(a, requires_grad=True) for a in arrays)
        shuffled = [words[i] for i in perm]
        out = T.lstm_packed(table, np.concatenate(shuffled), kernel, bias, [len(w) for w in shuffled])
        T.backward(T.reduce_sum(out * T.Tensor(weights[perm])))
        results.append([a.tobytes() for a in (out.data[np.argsort(perm)], table.grad, kernel.grad, bias.grad)])
    assert results[0] == results[1] == results[2]


def test_repeated_word_is_encoded_once_and_bit_equal_alone():
    store, vocab, enc = make_encoder()
    a, b = vocab.encode("hello"), vocab.encode("xyz")
    rows = enc.encode_words([a, b, a]).data
    alone = enc.encode_words([a]).data[0]
    assert np.array_equal(rows[0], rows[2])
    assert np.array_equal(rows[0], alone)


def test_lstm_packed_rejects_bad_batch_sizes_and_shapes():
    table, ids = T.constant(np.zeros((5, 8))), np.array([4, 0, 2])
    kernel, bias = T.constant(np.zeros((1, 2, 8))), T.constant(np.zeros(8))
    for sizes in ([], [3, 0]):
        with pytest.raises(ContractError):
            T.lstm_packed(table, ids, kernel, bias, sizes)
    with pytest.raises(DimensionError):
        T.lstm_packed(table, ids, kernel, bias, [2, 2])
    with pytest.raises(DimensionError):
        T.lstm_packed(table, ids, T.constant(np.zeros((2, 8))), bias, [2, 1])
    with pytest.raises(DimensionError):
        T.lstm_packed(T.constant(np.zeros((5, 6))), ids, kernel, bias, [2, 1])
    with pytest.raises(DimensionError):
        T.lstm_packed(table, ids[None], kernel, bias, [2, 1])
