#!/usr/bin/env python3
"""Train on the generated from/to corpus and score unseen-city generalization.

Runs one or more attention variants on the same corpus and prints test F1 on
utterances whose city names never occur in training, reproducing the
unseen-entity protocol at desk scale.

    python3 scripts/run_synthetic.py --variants abstract_rel self_abs none
"""

import argparse
import json
import time

from slotlab.evaluate import score
from slotlab.synthetic import desk_config, make_from_to_corpus
from slotlab.training import train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", nargs="+", default=["abstract_rel", "self_rel", "self_abs", "none"])
    parser.add_argument("--corpus-seed", type=int, default=7)
    parser.add_argument("--model-seed", type=int, default=3)
    parser.add_argument("--n-train", type=int, default=800)
    parser.add_argument("--n-test", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--report", help="write a JSON summary here")
    args = parser.parse_args()

    train_set, test_set = make_from_to_corpus(seed=args.corpus_seed, n_train=args.n_train, n_test=args.n_test)
    print(f"{len(train_set)} train / {len(test_set)} test utterances, unseen-city test split")

    results = {}
    for variant in args.variants:
        config = desk_config(variant=variant, seed=args.model_seed, max_epochs=args.epochs)
        t0 = time.perf_counter()
        checkpoint, log = train(train_set, None, config)
        seconds = time.perf_counter() - t0
        report = score(checkpoint.build_model(), test_set)
        results[variant] = {
            "micro_f1": report.micro_f1,
            "macro_f1": report.macro_f1,
            "final_train_loss": log[-1]["train_loss"],
            "seconds": round(seconds, 1),
        }
        print(f"{variant:13s} unseen-city micro F1 {report.micro_f1:.4f}  ({seconds:.0f}s)")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"results": results, "corpus_seed": args.corpus_seed, "model_seed": args.model_seed}, fh, indent=1)
        print(f"wrote {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
