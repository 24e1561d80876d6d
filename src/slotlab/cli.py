"""Command-line surface: training, evaluation, prediction, and the protocols.

Exit codes: 0 success, 1 data/config/runtime errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (
    DataError,
    fraction_split,
    load_dataset,
    read_utf8,
    save_jsonl,
    substitute_entities,
    utterance_from_text,
)
from .evaluate import score
from .model import Checkpoint, ModelConfig, count_parameters, parameter_reduction
from .tensor import SlotlabError
from .training import train

ERRORS = (SlotlabError, OSError)

ABLATION_VARIANTS = {
    "crf_only": "none",
    "self_attn": "self_abs",
    "self_rel_attn": "self_rel",
    "abstract_rel_attn": "abstract_rel",
}

# Tagset/vocab scale used when a params query gives no dataset: 79 entity
# types in BIO form plus "O", and a 45-character vocabulary plus PAD/UNK.
ATIS_SCALE = {"num_tags": 2 * 79 + 1, "char_vocab_size": 45 + 2}


def _report_manifest(config: ModelConfig, dataset: str, count: int) -> dict:
    return {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "dataset": str(dataset),
        "examples": count,
    }


def _load(path) -> list:
    """The utterances of a dataset file; one holding none is an error, since a command would report a number."""
    if not (utts := load_dataset(path)):
        raise DataError(f"{path}: holds no utterance")
    return utts


def _cmd_train(args) -> int:
    config = ModelConfig.from_json_file(args.config)
    train_set = _load(args.train)
    dev_set = _load(args.dev) if args.dev else None
    out_dir = Path(args.out)

    def on_epoch(record: dict) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)  # not up front: a run failing before its first epoch makes nothing
        with open(out_dir / "train_log.jsonl", "w" if record["epoch"] == 1 else "a", encoding="utf-8") as log:
            log.write(json.dumps(record) + "\n")
        dev = "-" if record["dev_f1"] is None else f"{record['dev_f1']:.4f}"
        print(f"epoch {record['epoch']:>3}  loss {record['train_loss']:.4f}  dev_f1 {dev}  {record['seconds']:.1f}s")

    checkpoint, _ = train(train_set, dev_set, config, on_epoch=on_epoch)
    checkpoint.save(out_dir)
    print(f"saved checkpoint to {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    checkpoint = Checkpoint.load(args.ckpt)
    test_set = _load(args.test)
    report = score(checkpoint.build_model(), test_set, _report_manifest(checkpoint.config, args.test, len(test_set)))
    print(report.table())
    print(f"micro F1 (no O): {report.micro_f1:.3f}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1)
        print(f"wrote report to {args.report}")
    return 0


def _cmd_predict(args) -> int:
    checkpoint = Checkpoint.load(args.ckpt)
    model = checkpoint.build_model()
    utt = utterance_from_text(args.text, [])
    spans = model.predict(utt)
    for sp in spans:
        surface = " ".join(utt.words[sp.start_token : sp.end_token + 1])
        print(json.dumps({"start_token": sp.start_token, "end_token": sp.end_token, "slot": sp.slot_type, "text": surface}))
    if not spans:
        print("[]")
    return 0


def _cmd_params(args) -> int:
    config = ModelConfig.from_json_file(args.config) if args.config else ModelConfig()
    num_tags = ATIS_SCALE["num_tags"] if args.num_tags is None else args.num_tags
    vocab = ATIS_SCALE["char_vocab_size"] if args.char_vocab_size is None else args.char_vocab_size
    full, blocked, factor = parameter_reduction(config, vocab, num_tags)
    breakdown = count_parameters(config, vocab, num_tags)
    print(f"tagset size {num_tags}, char vocab {vocab}")
    for name, count in breakdown.items():
        if name != "total":
            print(f"  {name:12s} {count:>10,}")
    print(f"full dense total:   {full:,}")
    print(f"block dense total:  {blocked:,} (num_blocks={config.num_blocks})")
    print(f"reduction factor:   {factor:.2f}")
    return 0


def _cmd_subset(args) -> int:
    utts = _load(args.inp)
    subset = fraction_split(utts, args.denominator, args.seed)
    save_jsonl(subset, args.out)
    print(f"wrote {len(subset)} of {len(utts)} examples (1/{args.denominator}, seed {args.seed}) to {args.out}")
    return 0


def _cmd_substitute(args) -> int:
    utts = _load(args.inp)
    values = [line.strip() for line in read_utf8(args.values).splitlines() if line.strip()]
    training_surfaces = None
    if args.train:
        train_utts = _load(args.train)
        training_surfaces = {
            " ".join(u.words[sp.start_token : sp.end_token + 1])
            for u in train_utts
            for sp in u.spans
            if sp.slot_type == args.slot
        }
    out = substitute_entities(utts, args.slot, values, args.seed, training_surfaces)
    save_jsonl(out, args.out)
    print(f"substituted {args.slot} in {len(out)} utterances -> {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    base = ModelConfig.from_json_file(args.config)
    train_set = _load(args.train)
    dev_set = _load(args.dev) if args.dev else None
    test_set = _load(args.test)
    results = {}
    for label, variant in ABLATION_VARIANTS.items():
        config = ModelConfig.from_dict({**base.to_dict(), "variant": variant})
        checkpoint, _ = train(train_set, dev_set, config)
        report = score(checkpoint.build_model(), test_set)
        results[label] = report.micro_f1
        print(f"{label:18s} micro F1 (no O): {report.micro_f1:.3f}")
    if args.report:
        payload = {
            "variants": results,
            "manifest": _report_manifest(base, args.test, len(test_set)),
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        print(f"wrote report to {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slotlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--config", required=True, help="JSON file mirroring ModelConfig fields")
    p.add_argument("--train", required=True, help="training data (.jsonl, .conll, .tsv, .bio or .json; see load_dataset)")
    p.add_argument("--dev", help="development data for early stopping")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="span F1 (excluding O) of a checkpoint on a test set")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="print predicted spans for one utterance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("params", help="parameter count breakdown, full vs block dense")
    p.add_argument("--config", help="JSON config; defaults to the standard configuration")
    p.add_argument("--num-tags", type=int, help="tagset size (default: ATIS scale, 159)")
    p.add_argument("--char-vocab-size", type=int, help="char vocab size (default: ATIS scale, 47)")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("subset", help="deterministic 1/d fraction of a dataset")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--denominator", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser("substitute", help="replace surfaces of one slot with unseen values")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--slot", required=True)
    p.add_argument("--values", required=True, help="file with one replacement per line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", help="optional training data defining the forbidden surfaces")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_substitute)

    p = sub.add_parser("ablate", help="train the 4-variant lattice and report test F1 per variant")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--test", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage; surface its code (2 on bad flags)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config too large for this machine
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
