"""Linear-chain CRF head: emissions, forward-algorithm NLL, Viterbi, spans.

Scores decompose as start[y0] + sum_t emission[t, yt] + sum_t
transition[y_{t-1}, yt] + end[y_last]. The NLL is one op, `tensor.crf_nll`:
log Z, computed in log space, minus the gold-path score, with the marginals
minus the gold feature counts as its gradient. The NLL and the Viterbi read
one layout: the batch's packed emission rows [N, K], sequence b's after
sequence b-1's, which both gather time-major through `tensor.packed_layout`. No
transitions are structurally forbidden; BIO inconsistencies in decoded paths
are repaired when spans are extracted (a dangling I-x opens a new x span).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .data import SlotSpan
from .layers import Dense
from .params import ParameterStore
from .tensor import ContractError, DimensionError, Tensor


class TagSet:
    """Ordered BIO tags: index 0 is "O", then B-x, I-x per slot type."""

    def __init__(self, tags: Sequence[str]):
        tags = list(tags)
        if not tags or tags[0] != "O":
            raise ContractError("tagset must start with 'O'")
        btags = {t[2:] for t in tags if t.startswith("B-")}
        for t in tags[1:]:
            if t[:2] not in ("B-", "I-") or len(t) == 2:
                raise ContractError(f"invalid tag {t!r}: expected B-type or I-type")
            if t.startswith("I-") and t[2:] not in btags:
                raise ContractError(f"tag {t!r} has no matching B- tag")
        self.tags = tags
        self._index = {t: i for i, t in enumerate(tags)}
        if len(self._index) != len(tags):
            raise ContractError("duplicate tags")
        # per index: does the tag begin a span, and its slot type (None for "O")
        self._parts = [(t.startswith("B-"), t[2:] or None) for t in tags]

    @classmethod
    def from_slot_types(cls, slot_types: Sequence[str]) -> "TagSet":
        tags = ["O"]
        for s in sorted(set(slot_types)):
            tags += ["B-" + s, "I-" + s]
        return cls(tags)

    @property
    def size(self) -> int:
        return len(self.tags)

    @property
    def slot_types(self) -> list[str]:
        return sorted({t[2:] for t in self.tags if t.startswith("B-")})

    def index(self, tag: str) -> int:
        if tag not in self._index:
            raise ContractError(f"unknown tag {tag!r}")
        return self._index[tag]

    def tag(self, index: int) -> str:
        return self.tags[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, TagSet) and self.tags == other.tags


class CrfHead:
    """Emission projection plus transition/start/end scores."""

    def __init__(self, store: ParameterStore, d_model: int, num_tags: int):
        self.num_tags = num_tags
        self.emission = Dense(store, "crf.emission", d_model, num_tags)
        self.transitions = store.create("crf.transitions", (num_tags, num_tags), lambda: np.zeros((num_tags, num_tags)))
        self.start = store.create("crf.start", (num_tags,), lambda: np.zeros(num_tags))
        self.end = store.create("crf.end", (num_tags,), lambda: np.zeros(num_tags))

    def nll(self, H: Tensor, gold: np.ndarray, lengths: Sequence[int]) -> Tensor:
        """Per-sequence negative log-likelihood [B] of the packed feature rows H [N, d_model] and their gold tags [N].

        The rows are the batch's real steps, sequence b's after sequence
        b-1's, the layout `tensor.crf_nll` reads its emissions in.
        """
        return T.crf_nll(self.emission(H), gold, lengths, self.transitions, self.start, self.end)


def _validate_gold(gold: np.ndarray, num_tags: int) -> None:
    """Every entry of the [B, Tmax] gold array, padding included, must be a tag index."""
    bad = ((gold < 0) | (gold >= num_tags)).any(axis=1)
    if bad.any():
        b = int(bad.argmax())
        raise ContractError(f"gold tag index out of range in sequence {b}: {gold[b].tolist()}")


def crf_nll_batch(H: Tensor, gold: np.ndarray, lengths: np.ndarray, head: CrfHead) -> Tensor:
    """Per-sequence negative log-likelihood for padded features.

    H is [B, Tmax, d_model]; gold is int [B, Tmax] (entries past each length
    are ignored and must still be valid indices, 0 is fine); returns [B].
    The batch is cut to its real rows (`tensor.unpad`), so the result is
    `CrfHead.nll` of the packed rows.
    """
    if gold.shape != H.shape[:2]:
        raise ContractError(f"gold shape {gold.shape} does not match features {H.shape[:2]}")
    _validate_gold(gold, head.num_tags)
    lengths = np.asarray(lengths)
    return head.nll(T.unpad(H, lengths), gold[np.arange(H.shape[1]) < lengths[:, None]], lengths)


def viterbi_decode_batch(
    em: np.ndarray, lengths: Sequence[int], transitions: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[list[list[int]], list[float]]:
    """Max-scoring path and its score per sequence of the packed emission rows em [N, K].

    em holds sequence b's lengths[b] rows after sequence b-1's, the rows
    `tensor.crf_nll` reads. Ties resolve to the lowest tag index at every
    step. The rows are gathered time-major (`tensor.packed_layout`), so step
    t touches only the sequences longer than t; a finished sequence keeps the
    scores of its last step.
    """
    if em.ndim != 2:
        raise DimensionError(f"viterbi_decode_batch: emissions must be [N, K] rows, got shape {em.shape}")
    lens = [int(n) for n in lengths]
    if not lens or min(lens) < 1 or sum(lens) != len(em):
        raise ContractError(f"viterbi_decode_batch: need positive lengths summing to the {len(em)} rows, got {lens}")
    order, sizes, starts, last, src = T.packed_layout(lens)
    B = len(lens)
    if B > 1:  # one sequence's rows already are time-major
        em = em[src]
    trans_t = np.ascontiguousarray(transitions.T)
    # cand[r, j, i] = delta[r, i] + transitions[i, j]; back[p, j] is the best tag before tag j at row p
    back = np.empty(em.shape, dtype=np.intp)
    delta = start + em[:B]  # row r: the best scores of sequence order[r], kept once it has ended
    for t in range(1, len(sizes)):
        lo, rows = starts[t], sizes[t]
        cand = delta[:rows, None, :] + trans_t
        cand.argmax(axis=2, out=back[lo : lo + rows])  # argmax returns the lowest index on ties
        np.add(cand.max(axis=2), em[lo : lo + rows], out=delta[:rows])
    final = delta + end
    best = final.argmax(axis=1).tolist()
    final, back = final.tolist(), back.tolist()
    paths: list = [None] * B
    scores: list = [None] * B
    for r, b in enumerate(order):
        row, tag = last[b], best[r]
        path = [tag]
        for t in range(lens[b] - 1, 0, -1):
            tag = back[row][tag]
            row -= sizes[t - 1]
            path.append(tag)
        path.reverse()
        paths[b], scores[b] = path, final[r][best[r]]
    return paths, scores


def viterbi_decode(
    emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[list[int], float]:
    """Max-scoring path of one sequence [n, K]; ties resolve to the lowest tag index."""
    paths, scores = viterbi_decode_batch(emissions, [len(emissions)], transitions, start, end)
    return paths[0], scores[0]


def spans_from_bio(tags: Sequence[int], tagset: TagSet) -> list[SlotSpan]:
    """Maximal B-x (I-x)* runs; a dangling I-x is repaired as B-x."""
    spans: list[SlotSpan] = []
    cur_type: str | None = None
    cur_start = 0
    parts = tagset._parts
    for t, tid in enumerate(tags):
        begins, slot = parts[tid]
        if begins or slot != cur_type:
            if cur_type is not None:
                spans.append(SlotSpan(cur_start, t - 1, cur_type))
            cur_type, cur_start = slot, t
    if cur_type is not None:
        spans.append(SlotSpan(cur_start, len(tags) - 1, cur_type))
    return spans
