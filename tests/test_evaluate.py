"""Span-F1 semantics, excluding the non-entity class."""

import pytest

from slotlab.data import SlotSpan
from slotlab.evaluate import span_f1
from slotlab.tensor import ContractError


def S(a, b, t):
    return SlotSpan(a, b, t)


def test_perfectprediction_micro_one():
    gold = [[S(0, 1, "time")], [S(2, 2, "people")]]
    report = span_f1(gold, [list(g) for g in gold])
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0


def test_empty_predictions_score_zero():
    gold = [[S(0, 1, "time")]]
    report = span_f1(gold, [[]])
    assert report.micro_f1 == 0.0
    assert report.per_slot["time"].fn == 1


def test_hand_counted_half():
    gold = [[S(0, 1, "time"), S(3, 3, "people")]]
    pred = [[S(0, 1, "time"), S(3, 3, "name")]]
    report = span_f1(gold, pred)
    assert report.micro.tp == 1 and report.micro.fp == 1 and report.micro.fn == 1
    assert report.micro_f1 == pytest.approx(0.5)


def test_boundary_or_type_mismatch_is_not_tp():
    gold = [[S(0, 1, "time")]]
    assert span_f1(gold, [[S(0, 0, "time")]]).micro.tp == 0
    assert span_f1(gold, [[S(0, 1, "date")]]).micro.tp == 0


def test_symmetric_under_utterance_reordering():
    gold = [[S(0, 0, "a")], [S(1, 2, "b")], []]
    pred = [[S(0, 0, "a")], [S(1, 1, "b")], [S(0, 0, "a")]]
    r1 = span_f1(gold, pred)
    order = [2, 0, 1]
    r2 = span_f1([gold[i] for i in order], [pred[i] for i in order])
    assert r1.to_dict()["micro"] == r2.to_dict()["micro"]


def test_misaligned_lengths_rejected():
    with pytest.raises(ContractError):
        span_f1([[]], [[], []])


def test_zero_when_no_spans_at_all():
    report = span_f1([[]], [[]])
    assert report.micro_f1 == 0.0 and report.macro_f1 == 0.0


def test_manifest_embedded_and_table_renders():
    gold = [[S(0, 0, "a")]]
    report = span_f1(gold, gold, manifest={"seed": 1, "fraction": "1/8"})
    d = report.to_dict()
    assert d["manifest"]["fraction"] == "1/8"
    table = report.table()
    assert "micro" in table and "1.000" in table


def test_micro_pools_counts_across_slots():
    gold = [[S(0, 0, "a"), S(2, 2, "b")], [S(0, 0, "a")]]
    pred = [[S(0, 0, "a")], [S(0, 0, "a"), S(1, 1, "b")]]
    report = span_f1(gold, pred)
    assert (report.micro.tp, report.micro.fp, report.micro.fn) == (2, 1, 1)
    p, r = 2 / 3, 2 / 3
    assert report.micro_f1 == pytest.approx(2 * p * r / (p + r))
    assert report.per_slot["b"].f1 == 0.0


def test_score_is_the_span_f1_of_predict_batch_against_the_gold_spans():
    from slotlab.data import utterance_from_words
    from slotlab.evaluate import score

    class FirstSpanOnly:
        def predict_batch(self, utts):
            return [list(u.spans)[:1] for u in utts]

    utts = [
        utterance_from_words("from oslo to rome".split(), [S(1, 1, "from"), S(3, 3, "to")]),
        utterance_from_words("to new york".split(), [S(1, 2, "to")]),
    ]
    report = score(FirstSpanOnly(), utts, {"dataset": "two"})
    want = span_f1([list(u.spans) for u in utts], [list(u.spans)[:1] for u in utts], {"dataset": "two"})
    assert report.to_dict() == want.to_dict() and report.micro.fn == 1 and report.micro.tp == 2
