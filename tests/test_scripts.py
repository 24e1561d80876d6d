"""Smoke runs of the experiment scripts at tiny size: each trains, serves its checkpoints and writes its report."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / script), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)


def test_run_synthetic_reports_each_variant(tmp_path):
    report = tmp_path / "synthetic.json"
    args = ["--variants", "none", "abstract_rel", "--epochs", 1, "--n-train", 40, "--n-test", 10, "--report", report]
    proc = _run("run_synthetic.py", *args)
    results = json.loads(report.read_text())["results"]
    assert list(results) == ["none", "abstract_rel"]
    assert all(0.0 <= r["micro_f1"] <= 1.0 for r in results.values())
    assert "unseen-city micro F1" in proc.stdout


def test_run_fractions_reports_each_nested_fraction(tmp_path):
    config = tmp_path / "config.json"
    tiny = {"char_embed_dim": 8, "lstm_units": 8, "d_model": 16, "num_heads": 2, "head_size": 8, "max_epochs": 1}
    config.write_text(json.dumps(tiny))
    restaurants = ROOT / "data" / "fixtures" / "restaurants8k_native.json"
    report = tmp_path / "fractions.json"
    args = ["--train", restaurants, "--test", restaurants, "--config", config, "--denominators", 1, 2, "--report", report]
    proc = _run("run_fractions.py", *args)
    rows = json.loads(report.read_text())["rows"]
    assert [r["fraction"] for r in rows] == ["1/1", "1/2"]
    assert rows[0]["train_size"] == 5 and 1 <= rows[1]["train_size"] < 5
    assert all(0.0 <= r["micro_f1"] <= 1.0 for r in rows)
    assert "micro F1" in proc.stdout
