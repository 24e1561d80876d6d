"""Tokenizer, the four dataset layouts, BIO round trip, fractions, substitution."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import save_conll

from slotlab.crf import TagSet, spans_from_bio
from slotlab.data import (
    DataError,
    SlotSpan,
    Utterance,
    bio_from_spans,
    fraction_split,
    load_dataset,
    save_jsonl,
    substitute_entities,
    tokenize,
    utterance_from_text,
    utterance_from_words,
)

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures"


def test_tokenize_plain():
    toks = tokenize("book at noon")
    assert [t.surface for t in toks] == ["book", "at", "noon"]
    assert [(t.start, t.end) for t in toks] == [(0, 4), (5, 7), (8, 12)]


def test_tokenize_peels_punctuation():
    toks = tokenize("(hello  world!?) don't 8:30")
    assert [t.surface for t in toks] == ["(", "hello", "world", "!", "?", ")", "don't", "8:30"]
    text = "(hello  world!?) don't 8:30"
    for t in toks:
        assert text[t.start : t.end] == t.surface


def test_tokenize_all_punct_chunk():
    assert [t.surface for t in tokenize("!! ...")] == ["!", "!", ".", ".", "."]


def test_load_jsonl_book_at_noon(tmp_path):
    p = tmp_path / "one.jsonl"
    p.write_text('{"text":"book at noon","spans":[{"start_char":8,"end_char":12,"slot":"time"}]}\n')
    (utt,) = load_dataset(p)
    assert utt.words == ["book", "at", "noon"]
    assert utt.spans == [SlotSpan(2, 2, "time")]


def test_load_jsonl_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_dataset(p) == []


def test_load_jsonl_mid_token_span_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"text":"ok fine","spans":[]}\n'
        '{"text":"book at noon","spans":[{"start_char":8,"end_char":10,"slot":"time"}]}\n'
    )
    with pytest.raises(DataError) as err:
        load_dataset(p)
    assert "line 2" in str(err.value)


def test_load_jsonl_overlap_rejected(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"text":"a b c","spans":[{"start_char":0,"end_char":3,"slot":"x"},{"start_char":2,"end_char":5,"slot":"y"}]}\n'
    )
    with pytest.raises(DataError):
        load_dataset(p)


def test_load_jsonl_malformed_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    for bad in (
        "not json",
        '{"text":5}',
        '{"text":"a b","spans":[{"start_char":0,"end_char":1,"slot":5}]}',
        '{"text":"a b","spans":[{"start_char":0,"end_char":1,"slot":""}]}',
        '{"text":"a b","spans":[{"start_char":[0],"end_char":1,"slot":"x"}]}',
        '{"text":"a b","lang":5}',
        '{"text":"c","lang":["x"]}',
    ):
        p.write_text('{"text":"ok"}\n' + bad + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(p)
        assert "line 2" in str(err.value), bad


def test_jsonl_round_trip(tmp_path):
    utts = load_dataset(FIXTURES / "booking.jsonl")
    out = tmp_path / "again.jsonl"
    save_jsonl(utts, out)
    again = load_dataset(out)
    assert [u.text for u in again] == [u.text for u in utts]
    assert [u.spans for u in again] == [u.spans for u in utts]


@pytest.mark.parametrize("suffix, layout", [(".json", "RESTAURANTS-8K"), (".conll", "CoNLL or MTOP"), (".tsv", "CoNLL or MTOP"), (".bio", "CoNLL or MTOP")])
def test_save_jsonl_refuses_a_name_read_as_another_layout(tmp_path, suffix, layout):
    out = tmp_path / ("small" + suffix)
    with pytest.raises(DataError) as err:
        save_jsonl(load_dataset(FIXTURES / "booking.jsonl"), out)
    assert str(err.value).startswith(f"{out}: ") and layout in str(err.value)
    assert not out.exists()


def test_load_conll_two_blocks(tmp_path):
    p = tmp_path / "two.conll"
    p.write_text("a\tO\nb\tB-x\n\nc\tO\n\n")
    utts = load_dataset(p)
    assert len(utts) == 2
    assert utts[0].words == ["a", "b"] and utts[1].words == ["c"]


def test_load_conll_spans():
    utts = load_dataset(FIXTURES / "flights.conll")
    assert utts[0].spans == [SlotSpan(3, 3, "fromloc"), SlotSpan(5, 5, "toloc")]
    assert utts[2].spans == [SlotSpan(3, 4, "fromloc"), SlotSpan(6, 6, "toloc")]


def test_load_conll_unknown_prefix_names_block(tmp_path):
    p = tmp_path / "bad.conll"
    for tag in ("Q-x", "B-", "I-"):  # a prefix with no type would drop its span
        p.write_text(f"a\tO\n\nb\t{tag}\n")
        with pytest.raises(DataError) as err:
            load_dataset(p)
        assert "block 1" in str(err.value), tag


def test_conll_round_trip(tmp_path):
    utts = load_dataset(FIXTURES / "flights.conll")
    out = tmp_path / "rt.conll"
    save_conll(utts, out)
    again = load_dataset(out)
    assert [u.words for u in again] == [u.words for u in utts]
    assert [u.spans for u in again] == [u.spans for u in utts]
    save_conll(again, out)
    assert load_dataset(out)[0].spans == again[0].spans


def test_conll_repairs_dangling_inside(tmp_path):
    p = tmp_path / "repair.conll"
    p.write_text("x\tI-time\ny\tI-time\n\n")
    (utt,) = load_dataset(p)
    assert utt.spans == [SlotSpan(0, 1, "time")]


def test_jsonl_round_trip_keeps_line_separators_inside_a_text(tmp_path):
    utts = [utterance_from_text("book at noon\x85now", [(8, 12, "time")]), utterance_from_text("a\u2028b", [])]
    save_jsonl(utts, tmp_path / "sep.jsonl")
    again = load_dataset(tmp_path / "sep.jsonl")
    assert [(u.text, u.spans) for u in again] == [(u.text, u.spans) for u in utts]


# ---------------------------------------------------------------------------
# native layouts: RESTAURANTS-8K (.json) and MTOP (.tsv rows of four or more fields)

MTOP_ROW = "1\tIN:X\t\thello there\tmisc\ten\n"


def _r8k_label(label) -> str:
    return json.dumps({"examples": [{"userInput": {"text": "table for 2"}, "labels": [label]}]})


def _write(tmp_path, name, content):
    p = tmp_path / name
    if isinstance(content, bytes):
        p.write_bytes(content)
    else:
        p.write_text(content, encoding="utf-8")
    return p


def test_restaurants8k_fixture():
    utts = load_dataset(FIXTURES / "restaurants8k_native.json")
    assert len(utts) == 5
    assert utts[0].words == ["table", "for", "2", "at", "7", "pm"]
    assert utts[0].spans == [SlotSpan(2, 2, "people"), SlotSpan(4, 5, "time")]
    assert utts[4].spans == []


def test_restaurants8k_requested_slot_without_span(tmp_path):
    payload = {"examples": [{"userInput": {"text": "anything"}, "labels": [{"slot": "time"}]}]}
    (utt,) = load_dataset(_write(tmp_path, "r8k.json", json.dumps(payload)))
    assert utt.spans == []


def test_restaurants8k_missing_text_rejected(tmp_path):
    with pytest.raises(DataError, match="example 0: missing userInput.text"):
        load_dataset(_write(tmp_path, "r8k.json", json.dumps({"examples": [{"labels": []}]})))


def test_mtop_fixture():
    utts = load_dataset(FIXTURES / "mtop_native.tsv")
    assert len(utts) == 5
    assert utts[0].spans == [SlotSpan(3, 3, "LOCATION")]
    assert utts[1].spans == [SlotSpan(3, 4, "DATE_TIME")]
    assert utts[4].spans == []
    assert all(u.lang == "en" for u in utts)


def test_mtop_bad_slot_chunk_names_line(tmp_path):
    p = _write(tmp_path, "bad.tsv", MTOP_ROW * 6 + "1\tIN:X\tnonsense\thello there\tmisc\ten\n")
    with pytest.raises(DataError) as err:
        load_dataset(p)
    assert "line 7: bad slot chunk 'nonsense'" in str(err.value)


def test_mtop_short_row_rejected(tmp_path):
    with pytest.raises(DataError, match="line 2: expected at least 4 tab-separated columns"):
        load_dataset(_write(tmp_path, "bad.tsv", MTOP_ROW + "1\tIN:X\n"))


@pytest.mark.parametrize(
    "name, content, where",
    [
        ("r8k.json", _r8k_label({"valueSpan": {"startIndex": 10, "endIndex": 11}}), "example 0"),
        ("r8k.json", _r8k_label({"slot": "people", "valueSpan": {"startIndex": 10}}), "example 0"),
        ("r8k.json", _r8k_label("people"), "example 0"),
        ("mtop.tsv", MTOP_ROW * 3 + "1\tIN:X\tx:1:SL:A\thello there\tmisc\ten\n", "line 4"),
    ],
    ids=["r8k-no-slot", "r8k-no-end-index", "r8k-label-not-an-object", "mtop-non-integer-offset"],
)
def test_malformed_native_record_raises_data_error_naming_it(tmp_path, name, content, where):
    p = _write(tmp_path, name, content)
    with pytest.raises(DataError, match=where) as err:
        load_dataset(p)
    assert str(err.value).startswith(f"{p} {where}")


@pytest.mark.parametrize(
    "name, content",
    [
        ("r8k.json", "not json"),
        ("r8k.json", '{"examples": 5}'),
        ("r8k.json", '{"examples": [{"userInput": {"text": "caf\xe9"}}]}'.encode("latin-1")),
        ("one.jsonl", '{"text": "caf\xe9"}\n'.encode("latin-1")),
        ("one.conll", "caf\xe9\tO\n".encode("latin-1")),
        ("one.tsv", MTOP_ROW.replace("hello", "h\xe9llo").encode("latin-1")),
    ],
    ids=["r8k-not-json", "r8k-examples-not-a-list", "r8k-not-utf8", "jsonl-not-utf8", "conll-not-utf8", "mtop-not-utf8"],
)
def test_malformed_file_raises_data_error_naming_it(tmp_path, name, content):
    p = _write(tmp_path, name, content)
    with pytest.raises(DataError) as err:
        load_dataset(p)
    assert str(err.value).startswith(f"{p}: ")


def test_layout_follows_extension_then_first_non_blank_row(tmp_path):
    mtop, conll, jsonl = (FIXTURES / name for name in ("mtop_native.tsv", "flights.conll", "booking.jsonl"))
    for suffix in (".conll", ".tsv", ".bio"):
        assert load_dataset(_write(tmp_path, "m" + suffix, "\n \n" + mtop.read_text())) == load_dataset(mtop)
        assert load_dataset(_write(tmp_path, "c" + suffix, conll.read_text())) == load_dataset(conll)
    assert load_dataset(_write(tmp_path, "b.txt", jsonl.read_text())) == load_dataset(jsonl)
    (utt,) = load_dataset(_write(tmp_path, "four.tsv", "1\tIN:X\t0:5:SL:A\thello there\n"))
    assert (utt.spans, utt.lang) == ([SlotSpan(0, 0, "A")], "")
    with pytest.raises(DataError, match="cannot parse line"):
        load_dataset(_write(tmp_path, "three.tsv", "1\tIN:X\thello there\n"))


# ---------------------------------------------------------------------------
# BIO codec round trip


def test_bio_from_spans_basic():
    ts = TagSet.from_slot_types(["time", "people"])
    utt = utterance_from_words("see you at eight pm".split(), [SlotSpan(3, 4, "time")])
    tags = bio_from_spans(utt, ts)
    assert [ts.tag(t) for t in tags] == ["O", "O", "O", "B-time", "I-time"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bio_round_trip_property(data):
    n = data.draw(st.integers(1, 12))
    slots = ["a", "b"]
    spans = []
    pos = 0
    while pos < n:
        if data.draw(st.booleans()):
            end = data.draw(st.integers(pos, min(n - 1, pos + 3)))
            spans.append(SlotSpan(pos, end, data.draw(st.sampled_from(slots))))
            pos = end + 2
        else:
            pos += 1
    ts = TagSet.from_slot_types(slots)
    utt = utterance_from_words([f"w{k}" for k in range(n)], spans)
    assert spans_from_bio(bio_from_spans(utt, ts), ts) == sorted(spans)


def test_bio_rejects_overlap():
    ts = TagSet.from_slot_types(["a"])
    utt = Utterance("x y", tokenize("x y"), [SlotSpan(0, 1, "a"), SlotSpan(1, 1, "a")])
    with pytest.raises(DataError):
        bio_from_spans(utt, ts)


# ---------------------------------------------------------------------------
# fractions


def test_fraction_sizes_match_protocol_table():
    items = list(range(8198))
    sizes = [len(fraction_split(items, d, seed=11)) for d in (2, 4, 8, 16, 32, 64, 128, 256)]
    assert sizes == [4099, 2049, 1024, 512, 256, 128, 64, 32]


def test_fraction_d1_is_content_identity():
    items = list(range(100))
    out = fraction_split(items, 1, seed=5)
    assert sorted(out) == items and len(out) == 100


def test_fraction_nesting():
    items = [f"u{k}" for k in range(512)]
    previous = None
    for d in (256, 128, 64, 32, 16, 8, 4, 2, 1):
        cur = set(map(str, fraction_split(items, d, seed=3)))
        if previous is not None:
            assert previous <= cur
        previous = cur


def test_fraction_determinism():
    items = list(range(1000))
    a = fraction_split(items, 8, seed=42)
    b = fraction_split(items, 8, seed=42)
    assert a == b
    c = fraction_split(items, 8, seed=43)
    assert a != c


def test_fraction_rejects_bad_denominator():
    items = list(range(10))
    for d in (0, 3, 5, 512, -2):
        with pytest.raises(DataError):
            fraction_split(items, d, seed=0)


def test_fraction_rejects_empty_result():
    with pytest.raises(DataError):
        fraction_split([1, 2, 3], 4, seed=0)


# ---------------------------------------------------------------------------
# entity substitution


def _fromto(words, *spans):
    return utterance_from_words(words.split(), [SlotSpan(*s) for s in spans])


def test_substitute_untouched_without_target_spans():
    utt = _fromto("hello there")
    out = substitute_entities([utt], "city", ["zagreb"], seed=0)
    assert out == [utt]


def test_substitute_single_token():
    utt = _fromto("to boston now", (1, 1, "city"))
    (out,) = substitute_entities([utt], "city", ["zagreb"], seed=0)
    assert out.words == ["to", "zagreb", "now"]
    assert out.spans == [SlotSpan(1, 1, "city")]


def test_substitute_multiword_shifts_following_spans():
    utt = _fromto("from boston to denver tonight", (1, 1, "city"), (3, 3, "city"), (4, 4, "when"))
    (out,) = substitute_entities([utt], "city", ["new york"], seed=1)
    # offset oracle: recompute expected indices from replacement lengths
    expected_words = ["from", "new", "york", "to", "new", "york", "tonight"]
    assert out.words == expected_words
    assert SlotSpan(1, 2, "city") in out.spans and SlotSpan(4, 5, "city") in out.spans
    assert SlotSpan(6, 6, "when") in out.spans


def test_substitute_offsets_match_independent_oracle():
    rng = np.random.default_rng(0)
    reps = ["porto alegre", "lyon", "a b c"]
    for _ in range(25):
        n = int(rng.integers(4, 10))
        words = [f"w{k}" for k in range(n)]
        spans = []
        pos = 0
        while pos < n - 1:
            slot = "city" if rng.random() < 0.6 else "other"
            end = min(n - 1, pos + int(rng.integers(0, 2)))
            spans.append(SlotSpan(pos, end, slot))
            pos = end + 2
        utt = utterance_from_words(words, spans)
        (out,) = substitute_entities([utt], "city", reps, seed=17)

        # oracle: replay with an explicit old->new length map
        rng2 = np.random.default_rng(17)
        lengths = {}
        for sp in sorted(s for s in utt.spans if s.slot_type == "city"):
            choice = reps[int(rng2.integers(len(reps)))]
            lengths[(sp.start_token, sp.end_token)] = len(choice.split())
        new_pos = {}
        cursor = 0
        old = 0
        while old < n:
            covering = [sp for sp in utt.spans if sp.slot_type == "city" and sp.start_token == old]
            if covering:
                sp = covering[0]
                cursor += lengths[(sp.start_token, sp.end_token)]
                old = sp.end_token + 1
            else:
                new_pos[old] = cursor
                cursor += 1
                old += 1
        for sp in utt.spans:
            if sp.slot_type != "city":
                assert SlotSpan(new_pos[sp.start_token], new_pos[sp.end_token], sp.slot_type) in out.spans
        assert len(out.spans) == len(utt.spans)


def test_substitute_rejects_collisions():
    utt = _fromto("to boston now", (1, 1, "city"))
    with pytest.raises(DataError) as err:
        substitute_entities([utt], "city", ["boston", "zagreb"], seed=0)
    assert "boston" in str(err.value)


def test_substitute_respects_explicit_training_surfaces():
    utt = _fromto("to boston now", (1, 1, "city"))
    out = substitute_entities([utt], "city", ["boston"], seed=0, training_surfaces={"denver"})
    assert out[0].words == ["to", "boston", "now"]
    with pytest.raises(DataError):
        substitute_entities([utt], "city", ["denver"], seed=0, training_surfaces={"denver"})


def test_substitute_preserves_counts_and_other_slots():
    utts = load_dataset(FIXTURES / "fromto.jsonl")
    out = substitute_entities(utts, "from_city", ["quito", "novi sad"], seed=9)
    assert len(out) == len(utts)
    assert sum(len(u.spans) for u in out) == sum(len(u.spans) for u in utts)
    before = sorted(sp.slot_type for u in utts for sp in u.spans)
    after = sorted(sp.slot_type for u in out for sp in u.spans)
    assert before == after
    for u in out:
        for sp in u.spans:
            if sp.slot_type == "from_city":
                assert " ".join(u.words[sp.start_token : sp.end_token + 1]) in {"quito", "novi sad"}


def test_substitute_deterministic():
    utts = load_dataset(FIXTURES / "fromto.jsonl")
    a = substitute_entities(utts, "to_city", ["x1", "x2", "x3"], seed=4)
    b = substitute_entities(utts, "to_city", ["x1", "x2", "x3"], seed=4)
    assert [u.words for u in a] == [u.words for u in b]


def test_substitute_rejects_empty_replacements():
    with pytest.raises(DataError):
        substitute_entities([], "city", [], seed=0)
