"""Character vocabulary and character-LSTM word encoder.

Each word is encoded independently: its characters run left-to-right through
a single LSTM starting from a zero state, and the final hidden state is
projected to the model width. No state crosses word boundaries, so a batch
encodes each distinct char-id sequence once, in first-seen order. The input
kernel has no bias, so it projects the character table once (V rows, PAD and
UNK included); the recurrence is one `T.lstm_packed` op, which lays the
characters out time-major (step t runs only the words longer than t), reads
each real character's row of that table, sends the table its gradient as one
product over the characters' one-hot rows and returns one row per word. One
final gather puts the projected rows back in the caller's word order. A
served model projects the table once (`ParameterStore.planned`) and keeps the
rows of the last 512 distinct words it encoded (`ParameterStore.kept_rows`),
so a call runs the LSTM only over the words it has not served lately.
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
    ):
        self.store = store
        self.lstm_units = lstm_units
        init = "encoder.init"  # the stream of the embedding, then of the orthogonal recurrent blocks
        shape = (vocab_size, char_embed_dim)
        self.embed = store.create("encoder.char_embed", shape, lambda: glorot_uniform(store.rng(init), shape))
        self.input_map = Dense(
            store, "encoder.lstm.input", char_embed_dim, 4 * lstm_units, use_bias=False, num_blocks=num_blocks
        )

        def orthogonal_gates() -> np.ndarray:
            square = (lstm_units, lstm_units)
            return np.concatenate([orthogonal(store.rng(init), square) for _ in range(4)], axis=1)[None]

        self.recurrent_map = Dense(
            store,
            "encoder.lstm.recurrent",
            lstm_units,
            4 * lstm_units,
            use_bias=False,
            num_blocks=num_blocks,
            kernel_init=orthogonal_gates if num_blocks == 1 else None,
        )
        # gates i, f, g, o; the forget gate opens at init
        self.b = store.create(
            "encoder.lstm.bias", (4 * lstm_units,), lambda: np.repeat([0.0, 1.0, 0.0, 0.0], lstm_units)
        )
        self.proj = Dense(store, "encoder.word_proj", lstm_units, d_model, activation="tanh")

    def encode_words(self, char_ids: Sequence[Sequence[int]]) -> Tensor:
        """Encode a batch of words (lists of char ids) to [n_words, d_model]."""
        if not char_ids:
            raise ContractError("encode_words: empty batch")
        # keyed on ids, not strings: UNK merges different strings into one word
        row: dict[tuple[int, ...], int] = {}
        index = [row.setdefault(tuple(w), len(row)) for w in char_ids]  # each distinct word's first-seen row
        return T.take_rows(self.store.kept_rows(list(row), self._encode), index)

    def _encode(self, words: list[tuple[int, ...]]) -> Tensor:
        """[len(words), d_model] rows of distinct words: the packed LSTM over their characters, then the projection."""
        chars = [c for w in words for c in w]  # word by word
        # the input kernel is linear without bias, so project the V-row table once; the LSTM reads its rows
        table = self.store.planned("char_table", lambda: self.input_map(self.embed))
        return self.proj(T.lstm_packed(table, chars, self.recurrent_map.kernel, self.b, [len(w) for w in words]))

    def encode_utterance(
        self,
        words: Sequence[Sequence[int]],
        dropout_rate: float = 0.0,
        training: bool = False,
    ) -> Tensor:
        """Word-level embeddings [T, d_model] with dropout applied in training."""
        out = self.encode_words(words)
        return dropout(out, dropout_rate, training, self.store.rng("encoder.dropout") if training else None)
