"""Span-level precision/recall/F1, computed over entity spans only.

A prediction counts as a true positive iff (start_token, end_token,
slot_type) all match a gold span. Non-entity positions never enter the
counts. The headline number is the micro average over pooled counts; the
per-slot table and the macro average are reported alongside because table
captions elsewhere do not say which one they use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .data import SlotSpan, Utterance
from .tensor import ContractError


@dataclass
class SlotScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass
class EvalReport:
    per_slot: dict[str, SlotScore]
    micro: SlotScore
    manifest: dict = field(default_factory=dict)

    @property
    def micro_f1(self) -> float:
        return self.micro.f1

    @property
    def macro_f1(self) -> float:
        if not self.per_slot:
            return 0.0
        return sum(s.f1 for s in self.per_slot.values()) / len(self.per_slot)

    def to_dict(self) -> dict:
        return {
            "micro": self.micro.to_dict(),
            "macro_f1": self.macro_f1,
            "per_slot": {k: v.to_dict() for k, v in sorted(self.per_slot.items())},
            "manifest": self.manifest,
        }

    def table(self) -> str:
        """Aligned human-readable summary."""
        rows = [("slot", "tp", "fp", "fn", "precision", "recall", "f1")]
        for name, s in sorted(self.per_slot.items()):
            rows.append((name, str(s.tp), str(s.fp), str(s.fn), f"{s.precision:.3f}", f"{s.recall:.3f}", f"{s.f1:.3f}"))
        s = self.micro
        rows.append(("micro", str(s.tp), str(s.fp), str(s.fn), f"{s.precision:.3f}", f"{s.recall:.3f}", f"{s.f1:.3f}"))
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        lines.append(f"macro f1: {self.macro_f1:.3f}")
        return "\n".join(lines)


def span_f1(
    gold: Sequence[Sequence[SlotSpan]],
    pred: Sequence[Sequence[SlotSpan]],
    manifest: dict | None = None,
) -> EvalReport:
    """Micro/per-slot span F1 over aligned per-utterance span lists."""
    if len(gold) != len(pred):
        raise ContractError(f"span_f1: {len(gold)} gold vs {len(pred)} predicted utterances")
    per_slot: dict[str, SlotScore] = {}

    def slot(name: str) -> SlotScore:
        return per_slot.setdefault(name, SlotScore())

    for g_spans, p_spans in zip(gold, pred):
        g_set, p_set = set(g_spans), set(p_spans)
        for sp in g_set & p_set:
            slot(sp.slot_type).tp += 1
        for sp in p_set - g_set:
            slot(sp.slot_type).fp += 1
        for sp in g_set - p_set:
            slot(sp.slot_type).fn += 1

    micro = SlotScore(
        tp=sum(s.tp for s in per_slot.values()),
        fp=sum(s.fp for s in per_slot.values()),
        fn=sum(s.fn for s in per_slot.values()),
    )
    return EvalReport(per_slot, micro, manifest or {})


def score(model, utts: Sequence[Utterance], manifest: dict | None = None) -> EvalReport:
    """Span F1 of a model's `predict_batch` on utts against their gold spans."""
    return span_f1([list(u.spans) for u in utts], model.predict_batch(utts), manifest)
