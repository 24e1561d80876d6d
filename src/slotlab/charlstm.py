"""Character vocabulary and character-LSTM word encoder.

Each word is encoded independently: its characters run left-to-right through
a single LSTM starting from a zero state, and the final hidden state is
projected to the model width. No state crosses word boundaries. Batched
encoding pads words to a common length and runs every row for every step;
each word's state is then gathered at its own last character, so padding
steps never reach the result and the per-word results are reproduced exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .layers import Dense, dropout
from .params import ParameterStore, glorot_uniform, orthogonal
from .tensor import ContractError, Tensor

PAD_ID = 0
UNK_ID = 1


class CharVocab:
    """Frozen char -> id map with reserved PAD=0 and UNK=1.

    Built from the training split only; unseen characters map to UNK.
    """

    def __init__(self, chars: Sequence[str]):
        self.chars = list(chars)
        self._ids = {c: i + 2 for i, c in enumerate(self.chars)}

    @classmethod
    def from_words(cls, words) -> "CharVocab":
        seen = set()
        for w in words:
            seen.update(w)
        return cls(sorted(seen))

    @property
    def size(self) -> int:
        return len(self.chars) + 2

    def encode(self, word: str) -> list[int]:
        if not word:
            raise ContractError("cannot encode an empty word")
        return [self._ids.get(c, UNK_ID) for c in word]

    def __eq__(self, other) -> bool:
        return isinstance(other, CharVocab) and self.chars == other.chars


class CharLstmEncoder:
    """Char embeddings -> unidirectional LSTM -> dense projection per word.

    With num_blocks > 1 the two LSTM kernels are stored block-diagonally with
    the per-block Glorot init of Dense; the per-gate orthogonal init of the
    recurrent kernel applies only at num_blocks == 1.
    """

    def __init__(
        self,
        store: ParameterStore,
        vocab_size: int,
        char_embed_dim: int,
        lstm_units: int,
        d_model: int,
        num_blocks: int = 1,
        prefix: str = "encoder",
    ):
        self.store = store
        self.lstm_units = lstm_units
        rng = store.rng(prefix + ".init")
        self.embed = store.create(prefix + ".char_embed", glorot_uniform(rng, (vocab_size, char_embed_dim)))
        self.input_map = Dense(
            store, prefix + ".lstm.input", char_embed_dim, 4 * lstm_units, use_bias=False, num_blocks=num_blocks
        )
        self.recurrent_map = Dense(
            store, prefix + ".lstm.recurrent", lstm_units, 4 * lstm_units, use_bias=False, num_blocks=num_blocks
        )
        if num_blocks == 1:
            self.recurrent_map.kernel.data[0] = np.concatenate(
                [orthogonal(rng, (lstm_units, lstm_units)) for _ in range(4)], axis=1
            )
        bias = np.zeros(4 * lstm_units)
        bias[lstm_units : 2 * lstm_units] = 1.0  # forget gate opens at init
        self.b = store.create(prefix + ".lstm.bias", bias)
        self.proj = Dense(store, prefix + ".word_proj", lstm_units, d_model, activation="tanh")

    def _step(self, x_t: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        H = self.lstm_units
        gates = self.input_map(x_t) + self.recurrent_map(h) + self.b.value
        i = T.sigmoid(T.narrow(gates, -1, 0, H))
        f = T.sigmoid(T.narrow(gates, -1, H, H))
        g = T.tanh(T.narrow(gates, -1, 2 * H, H))
        o = T.sigmoid(T.narrow(gates, -1, 3 * H, H))
        c_new = f * c + i * g
        h_new = o * T.tanh(c_new)
        return h_new, c_new

    def encode_words(self, char_ids: Sequence[Sequence[int]]) -> Tensor:
        """Encode a batch of words (lists of char ids) to [n_words, d_model]."""
        if not char_ids:
            raise ContractError("encode_words: empty batch")
        lengths = [len(w) for w in char_ids]
        if min(lengths) == 0:
            raise ContractError("encode_words: empty word in batch")
        n, max_len = len(char_ids), max(lengths)
        ids = np.zeros((n, max_len), dtype=np.int64)  # PAD
        for r, w in enumerate(char_ids):
            ids[r, : len(w)] = w

        h = T.constant(np.zeros((n, self.lstm_units), dtype=self.embed.data.dtype))
        c = h
        hs = []
        for t in range(max_len):
            h, c = self._step(T.take_rows(self.embed.value, ids[:, t]), h, c)
            hs.append(h)
        # row t * n + r of the stacked steps is word r after step t
        last = (np.asarray(lengths) - 1) * n + np.arange(n)
        return self.proj(T.take_rows(T.concat(hs, axis=0), last))

    def encode_utterance(
        self,
        words: Sequence[Sequence[int]],
        dropout_rate: float = 0.0,
        training: bool = False,
    ) -> Tensor:
        """Word-level embeddings [T, d_model] with dropout applied in training."""
        out = self.encode_words(words)
        return dropout(out, dropout_rate, training, self.store.rng("encoder.dropout"))
