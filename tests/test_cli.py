"""Command-line behaviour: subcommands, exit codes, file outputs."""

import json
import math
import struct
from pathlib import Path

import pytest

from slotlab.cli import main
from slotlab.data import load_dataset, save_jsonl, utterance_from_words

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures"


def write_config(tmp_path, **overrides) -> Path:
    cfg = dict(
        char_embed_dim=12,
        lstm_units=16,
        d_model=24,
        num_heads=2,
        head_size=12,
        max_relative_distance=4,
        dropout=0.1,
        attention_dropout=0.1,
        learning_rate=3e-3,
        batch_size=8,
        max_epochs=60,
        patience=60,
        seed=3,
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_flag_exits_2(capsys):
    assert main(["params", "--bogus"]) == 2
    assert main(["definitely-not-a-command"]) == 2


def test_missing_file_exits_1(capsys):
    assert main(["subset", "--in", "nope.jsonl", "--denominator", "2", "--out", "x.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_params_default_scale(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "full dense total:   978,974" in out
    assert "reduction factor:   4.19" in out


def test_params_with_config_and_sizes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, num_blocks=4)
    assert main(["params", "--config", str(cfg_path), "--num-tags", "5", "--char-vocab-size", "12"]) == 0
    out = capsys.readouterr().out
    assert "reduction factor:" in out and "tagset size 5" in out


def test_subset_writes_exact_fraction(tmp_path, capsys):
    big = tmp_path / "big.jsonl"
    utts = [utterance_from_words([f"w{k}", "x"], []) for k in range(8198)]
    save_jsonl(utts, big)
    out = tmp_path / "sub.jsonl"
    assert main(["subset", "--in", str(big), "--denominator", "64", "--seed", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 128
    out2 = tmp_path / "sub2.jsonl"
    assert main(["subset", "--in", str(big), "--denominator", "64", "--seed", "5", "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_substitute_cli(tmp_path):
    out = tmp_path / "sub.jsonl"
    rc = main(
        [
            "substitute",
            "--in",
            str(FIXTURES / "fromto.jsonl"),
            "--slot",
            "to_city",
            "--values",
            str(FIXTURES / "cities.txt"),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    subbed = load_dataset(out)
    values = {line.strip() for line in (FIXTURES / "cities.txt").read_text().splitlines() if line.strip()}
    for u in subbed:
        for sp in u.spans:
            if sp.slot_type == "to_city":
                assert " ".join(u.words[sp.start_token : sp.end_token + 1]) in values


@pytest.mark.parametrize("suffix, layout", [(".json", "RESTAURANTS-8K"), (".conll", "CoNLL or MTOP"), (".tsv", "CoNLL or MTOP"), (".bio", "CoNLL or MTOP")])
@pytest.mark.parametrize("command", ["subset", "substitute"])
def test_jsonl_output_under_another_layouts_name_exits_1_writing_nothing(tmp_path, capsys, command, suffix, layout):
    out = tmp_path / ("small" + suffix)
    args = {
        "subset": ["subset", "--in", str(FIXTURES / "booking.jsonl"), "--denominator", "1"],
        "substitute": ["substitute", "--in", str(FIXTURES / "fromto.jsonl"), "--slot", "to_city", "--values", str(FIXTURES / "cities.txt")],
    }[command]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and layout in err
    assert not out.exists()


def test_train_evaluate_predict_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, variant="none", max_epochs=80, patience=80, dropout=0.0)
    ckpt_dir = tmp_path / "ckpt"
    data = str(FIXTURES / "booking.jsonl")
    assert main(["train", "--config", str(cfg_path), "--train", data, "--dev", data, "--out", str(ckpt_dir)]) == 0
    assert (ckpt_dir / "manifest.json").exists() and (ckpt_dir / "params.bin").exists()
    log_lines = (ckpt_dir / "train_log.jsonl").read_text().splitlines()
    first = json.loads(log_lines[0])
    assert {"epoch", "train_loss", "dev_f1", "seconds"} <= set(first)

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--ckpt", str(ckpt_dir), "--test", data, "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "micro F1 (no O): 1.000" in out
    report = json.loads(report_path.read_text())
    assert report["micro"]["f1"] == 1.0
    assert report["manifest"]["config_hash"]

    assert main(["predict", "--ckpt", str(ckpt_dir), "--text", "book a table for 4 people at noon"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert {"start_token": 4, "end_token": 5, "slot": "people", "text": "4 people"} in lines


def test_ablate_cli(tmp_path, capsys):
    cfg_path = write_config(tmp_path, max_epochs=40, batch_size=8)
    report = tmp_path / "ablation.json"
    data = str(FIXTURES / "fromto.jsonl")
    rc = main(
        ["ablate", "--config", str(cfg_path), "--train", data, "--test", data, "--report", str(report)]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert set(payload["variants"]) == {"crf_only", "self_attn", "self_rel_attn", "abstract_rel_attn"}
    assert payload["manifest"]["examples"] == 8
    out = capsys.readouterr().out
    assert "crf_only" in out


@pytest.mark.parametrize(
    "fixture, slots",
    [("restaurants8k_native.json", {"date", "last_name", "people", "time"}), ("mtop_native.tsv", {"CONTACT", "DATE_TIME", "EVENT_NAME", "LOCATION"})],
)
def test_train_evaluate_on_a_native_layout(tmp_path, capsys, fixture, slots):
    cfg_path = write_config(tmp_path, max_epochs=2)
    data, ckpt_dir = str(FIXTURES / fixture), str(tmp_path / "ckpt")
    assert main(["train", "--config", str(cfg_path), "--train", data, "--out", ckpt_dir]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--ckpt", ckpt_dir, "--test", data, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert set(payload["per_slot"]) == slots and payload["manifest"]["examples"] == 5


NON_UTF8_ARGS = {
    "train": lambda bad, tmp: ["train", "--config", str(write_config(tmp)), "--train", bad, "--out", str(tmp / "ck")],
    "evaluate": lambda bad, tmp: ["evaluate", "--ckpt", str(tmp / "ck"), "--test", bad],
    "subset": lambda bad, tmp: ["subset", "--in", bad, "--denominator", "1", "--out", str(tmp / "o.jsonl")],
    "substitute": lambda bad, tmp: ["substitute", "--in", bad, "--slot", "x", "--values", str(FIXTURES / "cities.txt"), "--out", str(tmp / "o.jsonl")],
    "substitute-values": lambda bad, tmp: ["substitute", "--in", str(FIXTURES / "fromto.jsonl"), "--slot", "to_city", "--values", bad, "--out", str(tmp / "o.jsonl")],
    "ablate": lambda bad, tmp: ["ablate", "--config", str(write_config(tmp)), "--train", bad, "--test", bad],
}


@pytest.mark.parametrize("command", list(NON_UTF8_ARGS))
def test_non_utf8_input_file_exits_1_naming_it(tmp_path, capsys, command):
    from slotlab.charlstm import CharVocab
    from slotlab.crf import TagSet
    from slotlab.model import Checkpoint, ModelConfig, SlotModel

    cfg = ModelConfig(char_embed_dim=8, lstm_units=8, d_model=16, num_heads=2, head_size=8, max_relative_distance=2)
    Checkpoint.from_model(SlotModel(cfg, CharVocab(list("abc")), TagSet.from_slot_types(["x"]))).save(tmp_path / "ck")
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes('{"text": "caf\xe9"}\n'.encode("latin-1"))
    assert main(NON_UTF8_ARGS[command](str(bad), tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8")


EMPTY_ARGS = {
    "train": lambda empty, tmp: ["train", "--config", str(write_config(tmp)), "--train", empty, "--out", str(tmp / "out")],
    "train-dev": lambda empty, tmp: [
        "train", "--config", str(write_config(tmp)), "--train", str(FIXTURES / "booking.jsonl"), "--dev", empty, "--out", str(tmp / "out"),
    ],
    "evaluate": lambda empty, tmp: ["evaluate", "--ckpt", str(tmp / "ck"), "--test", empty, "--report", str(tmp / "out")],
    "ablate": lambda empty, tmp: [
        "ablate", "--config", str(write_config(tmp)), "--train", str(FIXTURES / "booking.jsonl"), "--test", empty, "--report", str(tmp / "out"),
    ],
    "subset": lambda empty, tmp: ["subset", "--in", empty, "--denominator", "1", "--out", str(tmp / "out")],
    "substitute": lambda empty, tmp: ["substitute", "--in", empty, "--slot", "x", "--values", str(FIXTURES / "cities.txt"), "--out", str(tmp / "out")],
    "substitute-train": lambda empty, tmp: [
        "substitute", "--in", str(FIXTURES / "fromto.jsonl"), "--slot", "to_city", "--values", str(FIXTURES / "cities.txt"),
        "--train", empty, "--out", str(tmp / "out"),
    ],
}


@pytest.mark.parametrize("name, content", [("empty.jsonl", ""), ("blank.conll", "\n  \n"), ("none.json", '{"examples": []}')])
@pytest.mark.parametrize("command", list(EMPTY_ARGS))
def test_a_dataset_file_with_no_utterance_exits_1_naming_it_and_writes_nothing(tmp_path, capsys, command, name, content):
    """An empty --dev would train without early stopping, and an empty --test would score F1 0.000."""
    from slotlab.charlstm import CharVocab
    from slotlab.crf import TagSet
    from slotlab.model import Checkpoint, ModelConfig, SlotModel

    cfg = ModelConfig(char_embed_dim=8, lstm_units=8, d_model=16, num_heads=2, head_size=8, max_relative_distance=2)
    Checkpoint.from_model(SlotModel(cfg, CharVocab(list("abc")), TagSet.from_slot_types(["x"]))).save(tmp_path / "ck")
    empty = tmp_path / name
    empty.write_text(content)
    assert main(EMPTY_ARGS[command](str(empty), tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {empty}: holds no utterance"]
    assert not captured.out and not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--num-tags", "--char-vocab-size"])
def test_params_with_zero_size_exits_1_without_traceback(flag):
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "slotlab.cli", "params", flag, "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert "tagset size" not in proc.stdout


def _predict_subprocess(tmp_path, damage):
    """Save a tiny checkpoint, apply `damage` to its directory, run `slotlab predict` on it."""
    import os
    import subprocess
    import sys

    from slotlab.charlstm import CharVocab
    from slotlab.crf import TagSet
    from slotlab.model import Checkpoint, ModelConfig, SlotModel

    cfg = ModelConfig(char_embed_dim=8, lstm_units=8, d_model=16, num_heads=2, head_size=8, max_relative_distance=2)
    model = SlotModel(cfg, CharVocab(list("abc")), TagSet.from_slot_types(["x"]))
    Checkpoint.from_model(model).save(tmp_path / "ck")
    damage(tmp_path / "ck")
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "slotlab.cli", "predict", "--ckpt", str(tmp_path / "ck"), "--text", "abc"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_predict_on_truncated_checkpoint_exits_1_without_traceback(tmp_path):
    def truncate(ck):
        blob = ck / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])

    proc = _predict_subprocess(tmp_path, truncate)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "truncated" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_predict_on_manifest_that_is_not_json_exits_1_without_traceback(tmp_path):
    proc = _predict_subprocess(tmp_path, lambda ck: (ck / "manifest.json").write_text("not json {"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "manifest" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_predict_on_checkpoint_with_nan_parameter_exits_1_without_traceback(tmp_path):
    def poison(ck):
        params = json.loads((ck / "manifest.json").read_text())["params"]
        names = [p["name"] for p in params]
        offset = 8 * sum(math.prod(p["shape"]) for p in params[: names.index("crf.transitions")])
        blob = bytearray((ck / "params.bin").read_bytes())
        blob[offset : offset + 8] = struct.pack("<d", float("nan"))
        (ck / "params.bin").write_bytes(bytes(blob))

    proc = _predict_subprocess(tmp_path, poison)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "crf.transitions" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_predict_on_checkpoint_with_misshapen_parameter_exits_1_without_traceback(tmp_path):
    def reshape(ck):
        manifest = json.loads((ck / "manifest.json").read_text())
        entry = next(p for p in manifest["params"] if p["name"] == "crf.start")
        entry["shape"] = [1] + entry["shape"]
        (ck / "manifest.json").write_text(json.dumps(manifest))

    proc = _predict_subprocess(tmp_path, reshape)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "crf.start" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_predict_on_checkpoint_with_a_blob_outside_its_directory_exits_1_naming_the_field(tmp_path):
    def move_blob(ck):
        (ck / "params.bin").rename(tmp_path / "x.bin")  # readable weights, one directory up
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["blob_file"] = "../x.bin"
        (ck / "manifest.json").write_text(json.dumps(manifest))

    proc = _predict_subprocess(tmp_path, move_blob)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "blob_file" in proc.stderr
    assert "Traceback" not in proc.stderr


def _list_crf_end_twice(params):
    start = next(p for p in params if p["name"] == "crf.start")
    params.append({**start, "name": "crf.end"})  # crf.end again, with crf.start's shape


def _give_crf_end_a_negative_shape(params):
    next(p for p in params if p["name"] == "crf.end")["shape"] = [-1]  # count=-1 would read the rest of the blob


@pytest.mark.parametrize("edit", [_list_crf_end_twice, _give_crf_end_a_negative_shape])
def test_predict_on_malformed_parameter_index_exits_1_naming_it(tmp_path, edit):
    def damage(ck):
        manifest = json.loads((ck / "manifest.json").read_text())
        edit(manifest["params"])
        (ck / "manifest.json").write_text(json.dumps(manifest))

    proc = _predict_subprocess(tmp_path, damage)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "crf.end" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["train", "params"])
@pytest.mark.parametrize("content", ["{bad", "5"])
def test_malformed_config_file_exits_1_naming_it_without_traceback(tmp_path, command, content):
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    path = tmp_path / "config.json"
    path.write_text(content)
    cmd = [sys.executable, "-m", "slotlab.cli", command, "--config", str(path)]
    if command == "train":
        cmd += ["--train", str(FIXTURES / "booking.jsonl"), "--out", str(tmp_path / "ck")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "error:" in proc.stderr and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("lstm_units", 0), ("lstm_units", "48")])
def test_train_with_bad_config_value_exits_1_without_traceback(tmp_path, field, value):
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "slotlab.cli", "train", "--config", str(write_config(tmp_path, **{field: value}))]
    cmd += ["--train", str(FIXTURES / "booking.jsonl"), "--out", str(tmp_path / "ck")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "error:" in proc.stderr and field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_predict_on_a_format_3_checkpoint_exits_1_naming_the_version(tmp_path):
    def to_format_3(ck):
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["format_version"] = 3
        manifest["config"]["mask_current"] = None  # format 3 stored this field, since removed
        (ck / "manifest.json").write_text(json.dumps(manifest))

    proc = _predict_subprocess(tmp_path, to_format_3)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "format_version 3" in proc.stderr
    assert "Traceback" not in proc.stderr
