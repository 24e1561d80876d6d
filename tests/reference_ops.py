"""Code only the tests use, kept out of slotlab: autodiff ops and scalar oracles for the
reference compositions, the batched Viterbi as it read each step's best score before,
einsum2 by its reshape path, the fusion gate as a composition of ops, AdamW as it
allocated a temporary per operation, the finite-difference gradient check, and a CoNLL
writer for the loader's round trips."""

import math
from itertools import accumulate
from typing import Callable, Iterable

import numpy as np

from slotlab import tensor as T
from slotlab.crf import TagSet
from slotlab.data import Utterance, bio_from_spans
from slotlab.params import ParameterStore
from slotlab.tensor import ContractError, NumericError, Tensor, backward
from slotlab.training import AdamW, decays


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


def sigmoid(x: Tensor) -> Tensor:
    """The logistic function as its own op, the one `T.fusion_gate` folds in."""
    out = T._sigmoid(x.data)

    def bwd(g, sink):
        sink(x, g * out * (1.0 - out))

    return T._result(out, (x,), bwd)


def fusion_gate_composed(A: Tensor, E: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """`T.fusion_gate` as the nine ops it replaces: concat, block product, bias, sigmoid, g*E + (1-g)*A."""
    g = sigmoid(T.block_matmul(T.concat([A, E], axis=-1), kernel) + bias)
    return g * E + (1.0 - g) * A


def contract_reshaped(a_s: str, b_s: str, out_s: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`T._contract` by its reshape path: transpose, reshape to [batch, rows, inner] x [batch, inner, cols],
    one `T._matmul`, reshape, transpose."""
    batch = [c for c in out_s if c in a_s and c in b_s]
    free_a = [c for c in out_s if c not in b_s]
    free_b = [c for c in out_s if c not in a_s]
    summed = [c for c in a_s if c not in out_s]
    size = dict(zip(a_s + b_s, a.shape + b.shape))
    at = a.transpose([a_s.index(c) for c in batch + free_a + summed])
    bt = b.transpose([b_s.index(c) for c in batch + summed + free_b])
    n_batch, rows, inner, cols = (math.prod(size[c] for c in group) for group in (batch, free_a, summed, free_b))
    out = T._matmul(at.reshape(n_batch, rows, inner), bt.reshape(n_batch, inner, cols))
    mm = batch + free_a + free_b
    return out.reshape([size[c] for c in mm]).transpose([mm.index(c) for c in out_s])


class AdamWAllocating(AdamW):
    """`AdamW.step` as it allocated a temporary for each operation; the in-place step must match it bitwise."""

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v, *_ in self._slots:
            g = p.grad
            m *= b1
            v *= b2
            if g is not None:
                m += (1 - b1) * g
                v += (1 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay and decays(p.name):
                update = update + self.weight_decay * p.data
            p.data[...] -= self.lr * update


def relative_index(i: int, j: int, max_distance: int) -> int:
    """Bucket of the signed offset j - i, clipped to [-R, R], shifted to [0, 2R]."""
    return int(np.clip(j - i, -max_distance, max_distance)) + max_distance


def viterbi_decode_batch_gather(em3, lengths, transitions, start, end):
    """`crf.viterbi_decode_batch` over a padded grid em3 [B, Tmax, K], gathering each step's best score at its
    argmax through a flat index."""
    B, t_pad, num_tags = em3.shape
    lens = [int(n) for n in lengths]
    order = sorted(range(B), key=lens.__getitem__, reverse=True)
    n_steps = lens[order[0]]
    ends = [0] * n_steps
    for n in lens:
        ends[n - 1] += 1
    active = list(accumulate(reversed(ends)))[::-1]
    em = em3[order]
    trans_t = np.ascontiguousarray(transitions.T)
    # cand[r, j, i] = delta[r, i] + transitions[i, j]; flat[r, j] is the index of cand[r, j, 0]
    flat = np.arange(0, B * num_tags * num_tags, num_tags).reshape(B, num_tags)
    back = np.empty((n_steps, B, num_tags), dtype=np.intp)
    finished = []
    delta = start + em[:, 0]
    for t in range(1, n_steps):
        n = active[t]
        if n < len(delta):
            finished.append(delta[n:])
            delta, flat = delta[:n], flat[:n]
        cand = delta[:, None, :] + trans_t
        best = cand.argmax(axis=2, out=back[t, :n])
        delta = cand.ravel()[best + flat] + em[:n, t]
    final = (np.concatenate([delta] + finished[::-1]) if finished else delta) + end
    last = final.argmax(axis=1).tolist()
    paths, scores = [None] * B, [None] * B
    for row, b in enumerate(order):
        path = [last[row]]
        for t in range(lens[b] - 1, 0, -1):
            path.append(int(back[t, row, path[-1]]))
        paths[b], scores[b] = path[::-1], final[row, last[row]]
    return paths, scores


def save_conll(utterances: Iterable[Utterance], path) -> None:
    """token<TAB>tag blocks, one per utterance, in the tagset of the spans' types."""
    utts = list(utterances)
    tagset = TagSet.from_slot_types(sorted({sp.slot_type for u in utts for sp in u.spans}))
    with open(path, "w", encoding="utf-8") as fh:
        for u in utts:
            for tok, tid in zip(u.tokens, bio_from_spans(u, tagset)):
                fh.write(f"{tok.surface}\t{tagset.tag(tid)}\n")
            fh.write("\n")


def grad_check(
    f: Callable[[ParameterStore], Tensor],
    store: ParameterStore,
    eps: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    Checks every coordinate of every parameter in the store, so callers use
    desk-scale stores. `f` must be deterministic given the store (dropout off).
    """
    store.zero_grads()
    out = f(store)
    if out.data.size != 1:
        raise ContractError(f"grad_check: f must return a scalar, got shape {out.shape}")
    backward(out)
    analytic = {p.name: p.grad.copy() for p in store}

    worst = 0.0
    for p in store:
        if np.isnan(analytic[p.name]).any():
            raise NumericError(f"grad_check: NaN in analytic gradient of {p.name!r}")
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(store).data)
            flat[i] = orig - eps
            f_minus = float(f(store).data)
            flat[i] = orig
            if np.isnan(f_plus) or np.isnan(f_minus):
                raise NumericError(f"grad_check: NaN while perturbing {p.name!r}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[i]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst
