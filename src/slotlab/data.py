"""Dataset reading and canonical JSONL storage, BIO codec, and protocols.

Canonical JSONL: one object per line, {"text": str, "spans": [{"start_char",
"end_char", "slot"}], "lang"?}; char offsets are half-open and must align
with token boundaries. CoNLL: "token<TAB>tag" lines, blank line between
utterances, tags O / B-x / I-x. RESTAURANTS-8K: JSON, {"examples": [...]} or a
bare list, each {"userInput": {"text"}, "labels": [{"slot", "valueSpan":
{"startIndex", "endIndex"}}]} with endIndex exclusive; a label without a
valueSpan (a requested slot left unfilled) gives no span. MTOP: tab-separated
rows id, intent, slots, utterance, domain, locale, ..., the slots being
comma-separated "start:end:Label" char offsets (end exclusive) into the
utterance, the label's "SL:" prefix dropped. Every file is UTF-8.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .tensor import SlotlabError

_PUNCT = set(string.punctuation)


class DataError(SlotlabError, ValueError):
    """Malformed or inconsistent dataset content."""


class Token(NamedTuple):
    surface: str
    start: int  # char offset into text
    end: int  # exclusive


@dataclass(frozen=True, order=True)
class SlotSpan:
    start_token: int
    end_token: int  # inclusive
    slot_type: str


@dataclass
class Utterance:
    text: str
    tokens: list[Token]
    spans: list[SlotSpan]
    lang: str = ""

    @property
    def words(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def __len__(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# tokenization


def tokenize(text: str) -> list[Token]:
    """Whitespace split, then peel leading/trailing punctuation into own tokens."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        a, b = i, j
        lead: list[Token] = []
        while b - a > 1 and text[a] in _PUNCT:
            lead.append(Token(text[a], a, a + 1))
            a += 1
        trail: list[Token] = []
        while b - a > 1 and text[b - 1] in _PUNCT:
            trail.append(Token(text[b - 1], b - 1, b))
            b -= 1
        tokens.extend(lead)
        tokens.append(Token(text[a:b], a, b))
        tokens.extend(reversed(trail))
        i = j
    return tokens


def _check_spans(spans: Sequence[SlotSpan], n_tokens: int, where: str) -> list[SlotSpan]:
    for sp in spans:
        if not isinstance(sp.slot_type, str) or not sp.slot_type:
            raise DataError(f"{where}: span slot type must be a non-empty string, got {sp.slot_type!r}")
    ordered = sorted(spans)
    for sp in ordered:
        if not (0 <= sp.start_token <= sp.end_token < n_tokens):
            raise DataError(f"{where}: span {sp} outside token range [0, {n_tokens})")
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start_token <= prev.end_token:
            raise DataError(f"{where}: overlapping spans {prev} and {cur}")
    return ordered


def utterance_from_text(text: str, char_spans: Sequence[tuple[int, int, str]], lang: str = "", where: str = "utterance") -> Utterance:
    """Tokenize and convert half-open char spans to inclusive token spans."""
    if not isinstance(text, str):
        raise DataError(f"{where}: text must be a string, got {text!r}")
    tokens = tokenize(text)
    starts = {t.start: k for k, t in enumerate(tokens)}
    ends = {t.end: k for k, t in enumerate(tokens)}
    spans = []
    for s, e, slot in char_spans:
        if type(s) is not int or type(e) is not int:
            raise DataError(f"{where}: span offsets must be integers, got [{s!r}, {e!r})")
        if s not in starts or e not in ends or starts[s] > ends[e]:
            raise DataError(f"{where}: span [{s}, {e}) of type {slot!r} does not align with token boundaries")
        spans.append(SlotSpan(starts[s], ends[e], slot))
    return Utterance(text, tokens, _check_spans(spans, len(tokens), where), lang)


def utterance_from_words(words: Sequence[str], spans: Sequence[SlotSpan], lang: str = "", where: str = "utterance") -> Utterance:
    """Build an utterance from pre-tokenized words joined by single spaces."""
    tokens = []
    pos = 0
    for w in words:
        if not w or any(ch.isspace() for ch in w):
            raise DataError(f"{where}: invalid token {w!r}")
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    text = " ".join(words)
    return Utterance(text, tokens, _check_spans(spans, len(tokens), where), lang)


# ---------------------------------------------------------------------------
# dataset files


def read_utf8(path) -> str:
    """The whole file as text; a file that is not UTF-8 fails naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


# the layouts a file name selects other than canonical JSONL
_SUFFIX_LAYOUTS = {".json": "RESTAURANTS-8K", ".conll": "CoNLL or MTOP", ".tsv": "CoNLL or MTOP", ".bio": "CoNLL or MTOP"}


def load_dataset(path) -> list[Utterance]:
    """Read a dataset file: `.json` is RESTAURANTS-8K; `.conll`, `.tsv` and `.bio`
    are CoNLL, or MTOP when the first non-blank row has four or more
    tab-separated fields; anything else is canonical JSONL."""
    path = Path(path)
    text = read_utf8(path)
    layout = _SUFFIX_LAYOUTS.get(path.suffix)
    if layout == "RESTAURANTS-8K":
        return _parse_restaurants8k(text, path)
    lines = text.split("\n")  # not splitlines(): save_jsonl writes U+0085 and U+2028 raw
    if layout:
        first = next((line for line in lines if line.strip()), "")
        return _parse_rows(lines, path, _mtop_row) if first.count("\t") >= 3 else _parse_conll(lines, path)
    return _parse_rows(lines, path, _jsonl_row)


def _parse_rows(lines: list[str], path, parse_row) -> list[Utterance]:
    """One utterance per non-blank line; parse_row(line, where) gives its text, char spans and lang."""
    out = []
    for ln, line in enumerate(lines, start=1):
        if line.strip():
            where = f"{path} line {ln}"
            out.append(utterance_from_text(*parse_row(line, where), where=where))
    return out


def _jsonl_row(line: str, where: str) -> tuple[str, list, str]:
    try:
        obj = json.loads(line.strip())
        text = obj["text"]
        raw = [(sp["start_char"], sp["end_char"], sp["slot"]) for sp in obj.get("spans", [])]
        lang = obj.get("lang", "")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{where}: malformed record ({exc})") from exc
    if not isinstance(lang, str):
        raise DataError(f"{where}: lang must be a string, got {lang!r}")
    return text, raw, lang


def save_jsonl(utterances: Iterable[Utterance], path) -> None:
    """Write canonical JSONL; a name that `load_dataset` reads as another layout fails before anything is written."""
    layout = _SUFFIX_LAYOUTS.get(Path(path).suffix)
    if layout:
        raise DataError(f"{path}: a {Path(path).suffix} file is read as {layout}, not JSONL; name it .jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for u in utterances:
            spans = [
                {"start_char": u.tokens[sp.start_token].start, "end_char": u.tokens[sp.end_token].end, "slot": sp.slot_type}
                for sp in u.spans
            ]
            rec: dict = {"text": u.text, "spans": spans}
            if u.lang:
                rec["lang"] = u.lang
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _parse_conll(lines: list[str], path) -> list[Utterance]:
    """token<TAB>tag blocks; I- tags without an open span are repaired as B-."""
    from .crf import TagSet, spans_from_bio

    blocks: list[list[tuple[str, str]]] = [[]]
    for line in lines:
        if not line.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}: cannot parse line {line!r}")
        blocks[-1].append((parts[0], parts[1]))
    if blocks and not blocks[-1]:
        blocks.pop()

    all_tags = {tag for block in blocks for _, tag in block}
    for bi, block in enumerate(blocks):
        for _, tag in block:
            if tag != "O" and not (tag[:2] in ("B-", "I-") and len(tag) > 2):
                raise DataError(f"{path} block {bi}: tag {tag!r} is not O, B-type or I-type")
    types = sorted({t[2:] for t in all_tags if t != "O"})
    tagset = TagSet.from_slot_types(types)

    out = []
    for bi, block in enumerate(blocks):
        words = [tok for tok, _ in block]
        ids = [tagset.index(tag) for _, tag in block]
        spans = spans_from_bio(ids, tagset)
        out.append(utterance_from_words(words, spans, where=f"{path} block {bi}"))
    return out


def _mtop_row(line: str, where: str) -> tuple[str, list, str]:
    parts = line.split("\t")
    if len(parts) < 4:
        raise DataError(f"{where}: expected at least 4 tab-separated columns")
    slot_field, text = parts[2], parts[3]
    spans = []
    if slot_field.strip():
        for chunk in slot_field.split(","):
            bits = chunk.split(":")
            if len(bits) < 3 or not (bits[0].isdecimal() and bits[1].isdecimal()):
                raise DataError(f"{where}: bad slot chunk {chunk!r}")
            spans.append((int(bits[0]), int(bits[1]), bits[-1]))
    return text, spans, parts[5] if len(parts) > 5 else ""


def _parse_restaurants8k(text: str, path) -> list[Utterance]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not JSON ({exc})") from exc
    examples = payload.get("examples") if isinstance(payload, dict) else payload
    if not isinstance(examples, list):
        raise DataError(f'{path}: expected a list of examples or an object with an "examples" list')
    out = []
    for k, ex in enumerate(examples):
        where = f"{path} example {k}"
        try:
            utt_text = ex["userInput"]["text"]
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
        out.append(utterance_from_text(utt_text, spans, where=where))
    return out


# ---------------------------------------------------------------------------
# BIO encoding (the decoder lives next to the CRF)


def bio_from_spans(utt: Utterance, tagset) -> list[int]:
    """Exact BIO tag ids for an utterance's non-overlapping spans."""
    _check_spans(utt.spans, len(utt.tokens), "bio_from_spans")
    tags = [0] * len(utt.tokens)
    for sp in utt.spans:
        tags[sp.start_token] = tagset.index("B-" + sp.slot_type)
        for t in range(sp.start_token + 1, sp.end_token + 1):
            tags[t] = tagset.index("I-" + sp.slot_type)
    return tags


# ---------------------------------------------------------------------------
# few-shot fraction protocol


def fraction_split(items: Sequence, denominator: int, seed: int) -> list:
    """Deterministic 1/denominator subset: one seeded shuffle, prefix take.

    Subsets with the same seed nest: the 1/2d subset is a prefix of the 1/d
    subset, so learning curves are monotone in data.
    """
    if denominator < 1 or denominator > 256 or denominator & (denominator - 1):
        raise DataError(f"denominator must be a power of two in [1, 256], got {denominator}")
    n = len(items) // denominator
    if n == 0:
        raise DataError(f"fraction 1/{denominator} of {len(items)} items is empty")
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[int(i)] for i in perm[:n]]


# ---------------------------------------------------------------------------
# unseen-entity substitution


def _span_surface(utt: Utterance, sp: SlotSpan) -> str:
    return " ".join(utt.words[sp.start_token : sp.end_token + 1])


def substitute_entities(
    dataset: Sequence[Utterance],
    slot_type: str,
    replacements: Sequence[str],
    seed: int,
    training_surfaces: set[str] | None = None,
) -> list[Utterance]:
    """Replace every span of `slot_type` with a sampled replacement value.

    Replacement surfaces are retokenized, span boundaries and all other span
    indices shift accordingly. `training_surfaces` is the set of surface forms
    the replacements must avoid; by default the surfaces of `slot_type` found
    in `dataset` are used.
    """
    if not replacements:
        raise DataError("substitute_entities: empty replacement list")
    if training_surfaces is None:
        training_surfaces = {
            _span_surface(u, sp) for u in dataset for sp in u.spans if sp.slot_type == slot_type
        }
    collisions = sorted(set(replacements) & training_surfaces)
    if collisions:
        raise DataError(f"substitute_entities: replacements collide with known surfaces: {collisions}")

    rng = np.random.default_rng(seed)
    out = []
    for utt in dataset:
        targets = sorted(sp for sp in utt.spans if sp.slot_type == slot_type)
        if not targets:
            out.append(utt)
            continue
        others = [sp for sp in utt.spans if sp.slot_type != slot_type]
        new_words: list[str] = []
        new_index: dict[int, int] = {}
        new_spans: list[SlotSpan] = []
        ti = 0
        old_i = 0
        while old_i < len(utt.tokens):
            if ti < len(targets) and old_i == targets[ti].start_token:
                choice = replacements[int(rng.integers(len(replacements)))]
                rep_words = [t.surface for t in tokenize(choice)]
                start = len(new_words)
                new_words.extend(rep_words)
                new_spans.append(SlotSpan(start, start + len(rep_words) - 1, slot_type))
                old_i = targets[ti].end_token + 1
                ti += 1
            else:
                new_index[old_i] = len(new_words)
                new_words.append(utt.words[old_i])
                old_i += 1
        for sp in others:
            new_spans.append(SlotSpan(new_index[sp.start_token], new_index[sp.end_token], sp.slot_type))
        out.append(utterance_from_words(new_words, sorted(new_spans), utt.lang))
    return out
