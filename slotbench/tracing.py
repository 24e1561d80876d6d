"""Spans taken from outside slotlab, and the layer-by-layer model drive they time.

`SlotModel.loss` and `SlotModel.predict_batch` compose the layers internally,
so the traced run drives the same public calls in the same order itself and
wraps each one in a span. For backward times per layer the graph is cut at
every layer boundary with a fresh leaf tensor; `backward` then runs one stage
at a time, feeding the upstream gradient in as `reduce_sum(out * constant(g))`,
whose backward hands exactly `g` to `out`.

Spans live in memory (`Tracer.spans`) and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from slotlab import tensor as T
from slotlab.crf import crf_nll_batch, spans_from_bio, viterbi_decode
from slotlab.data import bio_from_spans
from slotlab.tensor import Tensor, backward


class Tracer:
    """In-memory spans: name, start, end, parent index and request id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request):
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": self._open[-1] if self._open else None,
                  "request": request}
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def per_request(self, root: str) -> dict[str, list[float]]:
        """Self time per span name, summed within each request whose root span is `root`.

        Every span of a request shares the root's request id. Returns name ->
        one value per request, in request order; the root's own entry is its
        self time, and `root + ".wall"` is its duration.
        """
        selfs = self.self_times()
        roots = [s for s in self.spans if s["name"] == root]
        index = {s["request"]: k for k, s in enumerate(roots)}
        out: dict[str, list[float]] = {root + ".wall": [s["end"] - s["start"] for s in roots]}
        for s, own in zip(self.spans, selfs):
            k = index.get(s["request"])
            if k is not None:
                out.setdefault(s["name"], [0.0] * len(roots))[k] += own
        return out


class NullTracer(Tracer):
    """Same interface, records nothing; used for the correctness re-runs."""

    @contextmanager
    def span(self, name: str, request):
        yield


def graph_nodes(root: Tensor) -> int:
    """Tensors that `backward(root)` would visit: root plus every grad-tracking ancestor.

    Reads the parent links the autodiff graph keeps on each tensor.
    """
    if not root.requires_grad:
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _cut(x: Tensor) -> Tensor:
    """A fresh leaf over the same array: the next stage's gradient collects in its .grad."""
    return Tensor(x.data, requires_grad=True)


def _pad(flat: Tensor, lengths: np.ndarray, d_model: int) -> Tensor:
    """[sum(lengths), d] -> [B, Tmax, d], the same ops SlotModel.features_batch uses."""
    t_max = int(lengths.max())
    rows = []
    offset = 0
    for n in lengths:
        piece = T.narrow(flat, 0, offset, int(n))
        if n < t_max:
            piece = T.concat([piece, T.constant(np.zeros((t_max - int(n), d_model), dtype=flat.data.dtype))], axis=0)
        rows.append(T.reshape(piece, (1, t_max, d_model)))
        offset += int(n)
    return T.concat(rows, axis=0) if len(rows) > 1 else rows[0]


def _features(model, utts, training: bool, tr: Tracer, req, cut: bool):
    """Encoder -> pad -> attention -> gate, one span per layer call.

    With `cut`, each stage reads a fresh leaf copy of the previous output;
    returns (features, lengths, stages) where stages lists (name, output, leaf)
    in forward order for the staged backward.
    """
    cfg = model.config
    lengths = np.array([len(u.tokens) for u in utts])
    stages = []

    def link(name, out):
        if not cut:
            return out
        leaf = _cut(out)
        stages.append((name, out, leaf))
        return leaf

    with tr.span("charlstm.fwd", req):
        words = [ids for u in utts for ids in model.word_ids(u)]
        E = model.encoder.encode_utterance(words, cfg.dropout, training)
    E = link("charlstm", E)
    with tr.span("model.pad.fwd", req):
        E3 = _pad(E, lengths, cfg.d_model)
    E3 = link("model.pad", E3)
    with tr.span("attention.fwd", req):
        A3, _ = model.attention.attend_batch(E3, lengths, training)
    A3 = link("attention", A3)
    with tr.span("gate.fwd", req):
        H3 = model.gate.fuse(A3, E3)
    H3 = link("gate", H3)
    return H3, lengths, stages


def loss_staged(model, utts, training: bool, tr: Tracer, req) -> Tensor:
    """Mean CRF NLL as SlotModel.loss computes it, then the staged backward.

    Leaves the parameter gradients accumulated, as `backward(model.loss(...))`
    would, and returns the loss.
    """
    H3, lengths, stages = _features(model, utts, training, tr, req, cut=True)
    with tr.span("crf.nll_fwd", req):
        gold = np.zeros((len(utts), int(lengths.max())), dtype=np.int64)
        for b, u in enumerate(utts):
            gold[b, : len(u.tokens)] = bio_from_spans(u, model.tagset)
        loss = T.reduce_mean(crf_nll_batch(H3, gold, lengths, model.crf))
    with tr.span("crf.nll_bwd", req):
        backward(loss)
    for name, out, leaf in reversed(stages):
        with tr.span(name + ".bwd", req):
            backward(T.reduce_sum(out * T.constant(leaf.grad)))
    return loss


def predict_staged(model, utts, tr: Tracer, req):
    """SlotModel.predict_batch as a sequence of traced layer calls.

    Returns (spans per utterance, emission tensor).
    """
    H3, lengths, _ = _features(model, utts, False, tr, req, cut=False)
    crf = model.crf
    with tr.span("crf.emission", req):
        em = crf.emission(H3)
    out = []
    for b, n in enumerate(lengths):
        with tr.span("crf.viterbi", req):
            tags, _ = viterbi_decode(em.data[b, : int(n)], crf.transitions.data, crf.start.data, crf.end.data)
        with tr.span("crf.spans", req):
            out.append(spans_from_bio(tags, model.tagset))
    return out, em
