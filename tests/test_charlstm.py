"""Char vocab and char-LSTM encoder contracts, with a hand-rolled step oracle."""

import numpy as np
import pytest

from slotlab import tensor as T
from slotlab.charlstm import PAD_ID, UNK_ID, CharLstmEncoder, CharVocab
from slotlab.params import ParameterStore, grad_check
from slotlab.tensor import ContractError


def make_encoder(seed=0, vocab=None, char_embed=5, units=4, d_model=6):
    vocab = vocab or CharVocab.from_words(["abc", "xyz", "hello"])
    store = ParameterStore(seed=seed)
    return store, vocab, CharLstmEncoder(store, vocab.size, char_embed, units, d_model)


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
    with pytest.raises(ContractError):
        enc.encode_words([])
    with pytest.raises(ContractError):
        enc.encode_words([[]])


def test_forget_gate_bias_initialized_open():
    store, vocab, enc = make_encoder()
    H = enc.lstm_units
    assert np.array_equal(enc.b.data[H : 2 * H], np.ones(H))
    assert np.array_equal(enc.b.data[:H], np.zeros(H))
