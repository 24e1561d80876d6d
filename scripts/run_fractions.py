#!/usr/bin/env python3
"""Few-shot learning curve: train on nested 1/2^k fractions, fixed test set.

    python3 scripts/run_fractions.py --train train.jsonl --test test.jsonl \
        --config config.json --denominators 1 2 4 8 --seed 0

Fractions are nested (the 1/2d subset is contained in the 1/d subset for the
same seed) so the curve is monotone in data.
"""

import argparse
import json

from slotlab.data import fraction_split, load_dataset
from slotlab.evaluate import score
from slotlab.model import ModelConfig
from slotlab.training import train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", required=True)
    parser.add_argument("--test", required=True)
    parser.add_argument("--dev")
    parser.add_argument("--config", help="JSON ModelConfig; defaults to the standard configuration")
    parser.add_argument("--denominators", nargs="+", type=int, default=[1, 2, 4, 8, 16, 32, 64, 128, 256])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", help="write a JSON summary here")
    args = parser.parse_args()

    config = ModelConfig.from_json_file(args.config) if args.config else ModelConfig()
    full_train = load_dataset(args.train)
    test_set = load_dataset(args.test)
    dev_set = load_dataset(args.dev) if args.dev else None

    rows = []
    for d in args.denominators:
        subset = fraction_split(full_train, d, args.seed)
        checkpoint, _ = train(subset, dev_set, config)
        report = score(checkpoint.build_model(), test_set)
        rows.append({"fraction": f"1/{d}", "train_size": len(subset), "micro_f1": report.micro_f1})
        print(f"1/{d:<4} ({len(subset):>6})  micro F1 {report.micro_f1:.3f}")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "seed": args.seed, "config": config.to_dict()}, fh, indent=1)
        print(f"wrote {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
