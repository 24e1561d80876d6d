"""Code only the tests use, kept out of slotlab: autodiff ops and scalar oracles for the
reference compositions, and a CoNLL writer for the loader's round trips."""

from typing import Iterable

import numpy as np

from slotlab import tensor as T
from slotlab.crf import TagSet
from slotlab.data import Utterance, bio_from_spans
from slotlab.tensor import Tensor


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """log sum exp over the last axis, shifted by the row max; a row of -inf gives -inf."""
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    s = np.exp(d - safe_m).sum(axis=-1, keepdims=True)
    out = (safe_m + np.log(s)).squeeze(-1)

    def bwd(g, sink):
        p = np.exp(d - safe_m) / s
        sink(x, p * np.expand_dims(g, -1))

    return T._result(out, (x,), bwd)


def relative_index(i: int, j: int, max_distance: int) -> int:
    """Bucket of the signed offset j - i, clipped to [-R, R], shifted to [0, 2R]."""
    return int(np.clip(j - i, -max_distance, max_distance)) + max_distance


def save_conll(utterances: Iterable[Utterance], path) -> None:
    """token<TAB>tag blocks, one per utterance, in the tagset of the spans' types."""
    utts = list(utterances)
    tagset = TagSet.from_slot_types(sorted({sp.slot_type for u in utts for sp in u.spans}))
    with open(path, "w", encoding="utf-8") as fh:
        for u in utts:
            for tok, tid in zip(u.tokens, bio_from_spans(u, tagset)):
                fh.write(f"{tok.surface}\t{tagset.tag(tid)}\n")
            fh.write("\n")
