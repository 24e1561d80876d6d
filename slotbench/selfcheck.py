#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload, untraced and traced, at tiny sizes.

    python3 slotbench/selfcheck.py

Asserts that BENCHMARK.json, run.py and the printed results agree: every
end-to-end and per-layer metric is present for every workload with its unit
and a sample count, every correctness gate passes, and the traced run's
per-layer self times cover the traced steps. Takes about ten seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_all(trace: int) -> list[tuple[dict, dict]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    records = [json.loads(ln[len("RECORD "):]) for ln in lines if ln.startswith("RECORD ")]
    combined = json.loads(lines[-1])
    assert set(combined) == {"correct", "attempted", "failed", "metrics"}, combined.keys()
    assert combined["correct"] and combined["failed"] == 0, [r["gates"] for r in records]
    return [(r, combined["metrics"]) for r in records]


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    return spec


def main() -> int:
    check_spec()
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        results = run_all(trace)
        assert [r["workload"] for r, _ in results] == list(run.WORKLOADS)
        for record, metrics in results:
            w = record["workload"]
            for name, unit in names.items():
                got = metrics[f"{w}.{name}"]
                assert got["unit"] == unit, (w, name, got)
                assert isinstance(got["value"], float), (w, name, got)
                assert record["samples"][name] >= 1, (w, name)
            assert record["fail_share"] == 0.0, record["gates"]
            assert record["provenance"]["pinned"] == run.PINNED
            if trace:
                assert record["gates"]["traced_loss_bit_exact"]["failed"] == 0
                assert record["gates"]["traced_grads_match"]["failed"] == 0
                assert metrics[f"{w}.trace.step_coverage"]["value"] >= 0.9, (w, metrics[f"{w}.trace.step_coverage"])
            else:
                for gate in ("save_load_identical", "batch_equals_single", "single_equals_batch", "cli_output_matches"):
                    assert record["gates"][gate]["checked"] >= 1, (w, gate)
                assert set(record["raw"]) == set(names) - {"peak_rss_mb"}, (w, record["raw"].keys())
                assert all(record["speed"]["median_s"].values()), (w, record["speed"])
            print(f"ok  {w:<17} trace={trace}  {len(names)} metrics, {sum(g['checked'] for g in record['gates'].values())} checks")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
