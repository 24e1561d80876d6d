"""A seeded mutation fuzz of the command line: malformed input exits 1 with one named error, never a traceback.

Each call mutates one input the CLI reads (a layout fixture, a config, a
checkpoint manifest, the predict text) with stdlib `random` under a fixed
seed: byte flips, cuts, truncations, swaps, copied runs and inserted JSON or
TSV tokens, a dataset with no utterance as --train, --dev or --test, plus
config fields set to wrong types and to sizes no machine can allocate. Every
call must return 0 or 1, and a 1 must print exactly one `error:` line; a
failing `train` must leave no --out directory. A mutant that would build a
large but allocatable model, or train for many epochs, is redrawn: the fuzz
never allocates more than a small model needs.
"""

import json
import random
from pathlib import Path

import pytest

from slotlab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures"
LAYOUTS = ["booking.jsonl", "flights.conll", "mtop_native.tsv", "restaurants8k_native.json"]
SEED = 0
CALLS = 500

CONFIG = dict(
    char_embed_dim=4, lstm_units=4, d_model=8, num_heads=2, head_size=4, num_blocks=2, max_relative_distance=2,
    batch_size=4, max_epochs=1, seed=1,
)
SIZE_FIELDS = ("char_embed_dim", "lstm_units", "d_model", "num_heads", "head_size", "num_blocks", "max_relative_distance")
OVERSIZED = 10**12  # its first array needs hundreds of TiB, so numpy refuses it before touching memory
TOKENS = [b"{", b"}", b"[", b"]", b'"', b":", b",", b"\t", b"\n", b"null", b"-1", b"0", b"1e999", b"NaN", b"\x00",
          b"\xff", b"\xc3\xa9", b'"spans"', b'"text"', b"O", b"B-x", b"I-", b"  "]
EMPTY = {".jsonl": b"", ".conll": b"\n \n", ".tsv": b"", ".json": b'{"examples": []}'}  # no utterance in each layout
TEXTS = ["", " ", "\t\n", "\x00", "a" * 500, "\ud800", "book a table", "x " * 200, "é ü 中文", "-1 1e999 null"]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte-level edits of data."""
    for _ in range(rng.randint(1, 3)):
        n = len(data)
        i, j = sorted(rng.randrange(n + 1) for _ in range(2))
        kind = rng.randrange(6)
        if kind == 0 and n:
            k = rng.randrange(n)
            data = data[:k] + bytes([data[k] ^ (1 << rng.randrange(8))]) + data[k + 1 :]
        elif kind == 1:
            data = data[:i] + data[j:]  # cut
        elif kind == 2:
            data = data[:i]  # truncate
        elif kind == 3:
            k = rng.randrange(n + 1)
            data = data[:k] + data[i:j] + data[k:]  # copy a run
        elif kind == 4:
            data = data[:i] + data[j : j + (j - i)] + data[i:j] + data[j + (j - i) :]  # swap neighbouring runs
        else:
            data = data[:i] + rng.choice(TOKENS) + data[i:]
    return data


def small(config) -> bool:
    """Whether a parsed config stays a small model trained briefly, or fails at once: what the fuzz may run."""
    if not isinstance(config, dict):
        return True
    for name in SIZE_FIELDS + ("max_epochs",):
        value = config.get(name)
        bound = 2 if name == "max_epochs" else 64
        if isinstance(value, (int, float)) and not isinstance(value, bool) and bound < value < OVERSIZED:
            return False
    return True


def safe_mutant(data: bytes, rng: random.Random, config_of=lambda parsed: parsed) -> bytes:
    while True:
        out = mutate(data, rng)
        try:
            parsed = json.loads(out)
        except ValueError:
            return out
        if small(config_of(parsed) if isinstance(parsed, dict) else parsed):
            return out


def config_field_mutant(rng: random.Random) -> bytes:
    config = dict(CONFIG)
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(list(CONFIG) + ["dtype", "variant", "dropout", "use_block_dense", "unknown_field"])
        pool = [0, -1, 1.5, "8", None, True, [], {}, float("nan"), "f16", "self_abs", 0.99, 3]
        if name in SIZE_FIELDS:
            pool += [OVERSIZED, 10**15]
        config[name] = rng.choice(pool)
    return json.dumps(config).encode()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert main(["train", "--config", str(root / "config.json"), "--train", str(FIXTURES / "booking.jsonl"),
                 "--out", str(root / "ck")]) == 0
    return root


def fuzz_calls(root: Path, rng: random.Random):
    """Yield (what, argv) for CALLS calls, writing each mutant under root first; each train call gets a new --out."""
    config, ck = root / "config.json", root / "ck"
    booking = str(FIXTURES / "booking.jsonl")
    manifest = (ck / "manifest.json").read_bytes()
    bad_ck = root / "bad_ck"
    bad_ck.mkdir(exist_ok=True)
    (bad_ck / "params.bin").write_bytes((ck / "params.bin").read_bytes())
    for k in range(CALLS):
        target = k % 5
        if target == 0:  # a layout fixture, mutated or holding no utterance, as --train, --dev or --test
            name = rng.choice(LAYOUTS)
            path = root / f"mutant_{name}"
            path.write_bytes(mutate((FIXTURES / name).read_bytes(), rng) if rng.random() < 0.8 else EMPTY[path.suffix])
            role = rng.choice(["--train", "--dev", "--test"])
            if role == "--test":
                yield name, ["evaluate", "--ckpt", str(ck), "--test", str(path)]
            else:
                data = ["--train", str(path)] if role == "--train" else ["--train", booking, "--dev", str(path)]
                yield name, ["train", "--config", str(config), *data, "--out", str(root / f"out{k}")]
        elif target in (1, 2):  # a config: its bytes, or a field's value
            path = root / "mutant_config.json"
            path.write_bytes(config_field_mutant(rng) if target == 2 else safe_mutant(config.read_bytes(), rng))
            if rng.random() < 0.5:
                yield "config", ["params", "--config", str(path), "--num-tags", "5", "--char-vocab-size", "12"]
            else:
                yield "config", ["train", "--config", str(path), "--train", booking, "--out", str(root / f"out{k}")]
        elif target == 3:  # a checkpoint manifest, served or evaluated
            (bad_ck / "manifest.json").write_bytes(safe_mutant(manifest, rng, lambda m: m.get("config")))
            if rng.random() < 0.5:
                yield "manifest", ["predict", "--ckpt", str(bad_ck), "--text", "book a table for 4 people"]
            else:
                yield "manifest", ["evaluate", "--ckpt", str(bad_ck), "--test", str(FIXTURES / "booking.jsonl")]
        else:  # the text of a predict
            text = rng.choice(TEXTS)
            if rng.random() < 0.5:
                text = mutate(text.encode("utf-8", "surrogatepass"), rng).decode("utf-8", "surrogateescape")
            yield "text", ["predict", "--ckpt", str(ck), f"--text={text}"]  # a text may start with "-"


def test_mutated_inputs_exit_0_or_1_with_one_named_error(workspace, capsys):
    rng = random.Random(SEED)
    exits = {0: 0, 1: 0}
    for what, argv in fuzz_calls(workspace, rng):
        try:
            code = main(argv)
        except Exception as exc:  # the point is that nothing escapes
            pytest.fail(f"{what}: {argv[0]} let {exc!r} escape")
        out, err = capsys.readouterr()
        assert code in (0, 1), (what, argv, code)
        assert "Traceback" not in err, (what, argv, err)
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (what, argv, err)
            if argv[0] == "train":  # every failure the fuzz provokes comes before the first epoch
                assert not Path(argv[argv.index("--out") + 1]).exists(), (what, argv, err)
        exits[code] += 1
    assert exits[0] and exits[1], exits  # the mutants reach both outcomes


@pytest.mark.parametrize("command", ["params", "train"])
def test_an_oversized_config_exits_1_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d_model": OVERSIZED}))
    argv = ["params", "--config", str(path)]
    if command == "train":
        argv = ["train", "--config", str(path), "--train", str(FIXTURES / "booking.jsonl"), "--out", str(tmp_path / "ck")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {command}: out of memory: "), lines
    assert "TiB" in lines[0]
    assert not (tmp_path / "ck").exists()  # train fails before its first epoch, so it creates no --out
