"""Native-layout converters against the bundled 5-line fixtures."""

import json
from pathlib import Path

import pytest

from slotlab.converters import mtop_line_to_utterance, mtop_to_utterances, restaurants8k_to_utterances
from slotlab.data import DataError, SlotSpan

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures"


def test_restaurants8k_fixture():
    utts = restaurants8k_to_utterances(json.loads((FIXTURES / "restaurants8k_native.json").read_text()))
    assert len(utts) == 5
    assert utts[0].words == ["table", "for", "2", "at", "7", "pm"]
    assert utts[0].spans == [SlotSpan(2, 2, "people"), SlotSpan(4, 5, "time")]
    assert utts[4].spans == []


def test_restaurants8k_requested_slot_without_span():
    payload = {"examples": [{"userInput": {"text": "anything"}, "labels": [{"slot": "time"}]}]}
    (utt,) = restaurants8k_to_utterances(payload)
    assert utt.spans == []


def test_restaurants8k_missing_text_rejected():
    with pytest.raises(DataError):
        restaurants8k_to_utterances({"examples": [{"labels": []}]})


def test_mtop_fixture():
    utts = mtop_to_utterances((FIXTURES / "mtop_native.tsv").read_text())
    assert len(utts) == 5
    assert utts[0].spans == [SlotSpan(3, 3, "LOCATION")]
    assert utts[1].spans == [SlotSpan(3, 4, "DATE_TIME")]
    assert utts[4].spans == []
    assert all(u.lang == "en" for u in utts)


def test_mtop_bad_slot_chunk_names_line():
    with pytest.raises(DataError) as err:
        mtop_line_to_utterance("1\tIN:X\tnonsense\thello there\tmisc\ten", line_no=7)
    assert "line 7" in str(err.value)


def test_mtop_short_row_rejected():
    with pytest.raises(DataError):
        mtop_line_to_utterance("1\tIN:X", line_no=1)


def _restaurants8k_label(label):
    return lambda: restaurants8k_to_utterances({"examples": [{"userInput": {"text": "table for 2"}, "labels": [label]}]})


@pytest.mark.parametrize(
    "convert, where",
    [
        (_restaurants8k_label({"valueSpan": {"startIndex": 10, "endIndex": 11}}), "example 0"),
        (_restaurants8k_label({"slot": "people", "valueSpan": {"startIndex": 10}}), "example 0"),
        (_restaurants8k_label("people"), "example 0"),
        (lambda: mtop_line_to_utterance("1\tIN:X\tx:1:SL:A\thello there\tmisc\ten", line_no=4), "line 4"),
    ],
    ids=["r8k-no-slot", "r8k-no-end-index", "r8k-label-not-an-object", "mtop-non-integer-offset"],
)
def test_malformed_native_record_raises_data_error_naming_it(convert, where):
    with pytest.raises(DataError, match=where):
        convert()
