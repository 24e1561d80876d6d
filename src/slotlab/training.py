"""Adam with decoupled weight decay, the training loop, early stopping.

Weight decay skips biases and the CRF transition/start/end scores. The loss
is the mean per-utterance CRF NLL over each batch. Runs are bit-reproducible
for a fixed seed: shuffling, init, and dropout all draw from named streams of
the model's parameter store.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from .charlstm import CharVocab
from .crf import TagSet
from .data import DataError, Utterance
from .evaluate import score
from .model import Checkpoint, ModelConfig, SlotModel
from .params import ParameterStore
from .tensor import NumericError, backward, np_dtype


def decays(name: str) -> bool:
    """Decoupled weight decay applies to everything except biases and CRF scores."""
    if name.endswith(".bias"):
        return False
    return name not in ("crf.transitions", "crf.start", "crf.end")


class AdamW:
    """Adam moments per parameter plus decoupled weight decay.

    `step` runs its numpy operations into two scratch buffers sized to the
    largest parameter, so it makes no temporaries.
    """

    def __init__(self, store: ParameterStore, config: ModelConfig):
        self.store = store
        self.lr = config.learning_rate
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.eps = config.adam_eps
        self.weight_decay = config.weight_decay
        self.t = 0
        size, dtype = max((p.size for p in store), default=0), np_dtype(store.dtype)
        update, tmp = np.empty(size, dtype), np.empty(size, dtype)
        # per parameter: it, its two moments, its views of the two scratch buffers and whether it decays
        self._slots = [
            (p, np.zeros_like(p.data), np.zeros_like(p.data), update[: p.size].reshape(p.shape),
             tmp[: p.size].reshape(p.shape), bool(self.weight_decay) and decays(p.name))
            for p in store
        ]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v, update, tmp, decay in self._slots:
            g = p.grad  # None: no gradient was ever written, which counts as zero
            m *= b1
            v *= b2
            if g is not None:
                m += np.multiply(g, 1 - b1, out=tmp)
                np.multiply(g, g, out=tmp)
                tmp *= 1 - b2
                v += tmp
            np.divide(m, bias1, out=update)  # (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(np.divide(v, bias2, out=tmp), out=tmp)
            tmp += self.eps
            update /= tmp
            if decay:
                update += np.multiply(p.data, self.weight_decay, out=tmp)
            update *= self.lr
            p.data[...] -= update


def _check_finite(loss_value: float, model: SlotModel) -> None:
    if np.isfinite(loss_value):
        return
    for p in model.store:
        if not np.isfinite(p.data).all():
            raise NumericError(f"non-finite loss; parameter {p.name!r} contains non-finite values")
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite loss; gradient of {p.name!r} is non-finite")
    raise NumericError("non-finite loss with finite parameters; check the input batch")


def build_model(train_set: Sequence[Utterance], config: ModelConfig) -> SlotModel:
    """Model with vocabulary and tagset frozen from the training split."""
    if not train_set:
        raise DataError("training set is empty")
    vocab = CharVocab.from_words(w for u in train_set for w in u.words)
    tagset = TagSet.from_slot_types({sp.slot_type for u in train_set for sp in u.spans})
    return SlotModel(config, vocab, tagset)


def train(
    train_set: Sequence[Utterance],
    dev_set: Sequence[Utterance] | None,
    config: ModelConfig,
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[Checkpoint, list[dict]]:
    """Minimize mean CRF NLL; early-stop on dev span F1; return the best model.

    The log holds one record per epoch: epoch, train_loss, dev_f1, seconds.
    """
    model = build_model(train_set, config)
    optimizer = AdamW(model.store, config)
    shuffle_rng = model.store.rng("train.shuffle")
    train_list = list(train_set)
    dev_list = list(dev_set) if dev_set else []

    best_f1 = -1.0  # any dev F1 beats it, so the first epoch sets best_arrays
    stale = 0
    records: list[dict] = []

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_list))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [train_list[int(i)] for i in order[lo : lo + config.batch_size]]
            model.store.zero_grads()
            loss = model.loss(batch, training=True)
            backward(loss)
            value = float(loss.data)
            _check_finite(value, model)
            if config.learning_rate:
                optimizer.step()
            batch_losses.append(value)
        train_loss = float(np.mean(batch_losses))

        dev_f1 = None
        if dev_list:
            dev_f1 = score(model, dev_list).micro_f1
            if dev_f1 > best_f1:
                best_f1, stale = dev_f1, 0
                best_arrays = model.store.snapshot()
            else:
                stale += 1
        record = {
            "epoch": epoch,
            "train_loss": train_loss,
            "dev_f1": dev_f1,
            "seconds": round(time.perf_counter() - t0, 4),
        }
        records.append(record)
        if on_epoch:
            on_epoch(record)
        if dev_list and stale > config.patience:
            break

    if dev_list:
        return Checkpoint(model.config, model.vocab, model.tagset, best_arrays), records
    return Checkpoint.from_model(model), records
