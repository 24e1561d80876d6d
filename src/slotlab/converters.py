"""Thin converters from native dataset layouts to the canonical utterance form.

restaurants8k: JSON with a top-level "examples" list (or a bare list), each
example {"userInput": {"text": ...}, "labels": [{"slot": ..., "valueSpan":
{"startIndex": ..., "endIndex": ...}}]}; endIndex is exclusive. A missing
valueSpan (requested-but-absent slot) contributes no span.

mtop: tab-separated rows id, intent, slot string, utterance, domain, locale,
... where the slot string is comma-separated "start:end:Label" triples with
char offsets into the utterance (exclusive end); an optional "SL:" prefix on
the label is stripped.

ATIS-style token/tag files are already the CoNLL form handled by data.load_conll.
"""

from __future__ import annotations

import json

from .data import DataError, Utterance, utterance_from_text


def restaurants8k_to_utterances(payload) -> list[Utterance]:
    if isinstance(payload, str):
        payload = json.loads(payload)
    examples = payload.get("examples", payload) if isinstance(payload, dict) else payload
    out = []
    for k, ex in enumerate(examples):
        where = f"restaurants8k example {k}"
        try:
            text = ex["userInput"]["text"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{where}: missing userInput.text") from exc
        spans = []
        try:
            for label in ex.get("labels", []):
                vs = label.get("valueSpan")
                if vs is not None:
                    spans.append((vs.get("startIndex", 0), vs["endIndex"], label["slot"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{where}: each label needs a slot and a valueSpan with an endIndex") from exc
        out.append(utterance_from_text(text, spans, where=where))
    return out


def mtop_line_to_utterance(line: str, line_no: int = 0) -> Utterance:
    parts = line.rstrip("\n").split("\t")
    if len(parts) < 4:
        raise DataError(f"mtop line {line_no}: expected at least 4 tab-separated columns")
    slot_field, text = parts[2], parts[3]
    lang = parts[5] if len(parts) > 5 else ""
    spans = []
    if slot_field.strip():
        for chunk in slot_field.split(","):
            bits = chunk.split(":")
            if len(bits) < 3 or not (bits[0].isdecimal() and bits[1].isdecimal()):
                raise DataError(f"mtop line {line_no}: bad slot chunk {chunk!r}")
            spans.append((int(bits[0]), int(bits[1]), bits[-1]))
    return utterance_from_text(text, spans, lang=lang, where=f"mtop line {line_no}")


def mtop_to_utterances(text: str) -> list[Utterance]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            out.append(mtop_line_to_utterance(line, ln))
    return out
