"""Model assembly, parameter accounting, checkpoints, and training behaviour."""

import dataclasses
import math

import numpy as np
import pytest
from reference_ops import AdamWAllocating, contract_reshaped, fusion_gate_composed, grad_check

from slotlab import tensor as T
from slotlab.charlstm import CharVocab
from slotlab.crf import TagSet, crf_nll_batch, spans_from_bio, viterbi_decode_batch
from slotlab.data import DataError, SlotSpan, bio_from_spans, utterance_from_words
from slotlab.evaluate import span_f1
from slotlab.model import Checkpoint, ModelConfig, SlotModel, count_parameters, parameter_reduction
from slotlab.params import ROW_CAPACITY, split_by_shape
from slotlab.synthetic import desk_config, make_from_to_corpus
from slotlab.tensor import ConfigError, ContractError, NumericError
from slotlab.training import AdamW, build_model, train, _check_finite

VOCAB = CharVocab([chr(97 + i) for i in range(10)])  # size 12
TAGSET = TagSet.from_slot_types(["x", "y"])  # size 5


def tiny_config(**overrides):
    base = dict(
        char_embed_dim=8,
        lstm_units=8,
        d_model=16,
        num_heads=2,
        head_size=8,
        num_blocks=4,
        max_relative_distance=2,
        dropout=0.0,
        attention_dropout=0.0,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def utt(words, *spans):
    return utterance_from_words(words.split(), [SlotSpan(*s) for s in spans])


def features(model, u):
    """Fused features [T, d_model] of one utterance, run as a batch of one."""
    return model.features_batch([u])[0].data


def by_utterance(H, lengths) -> list[np.ndarray]:
    """features_batch's packed rows split into each utterance's [n, d_model]."""
    return np.split(H.data.reshape(-1, H.shape[-1]), np.cumsum(lengths)[:-1])


# ---------------------------------------------------------------------------
# configuration


BAD_FIELD_VALUES = [
    ("char_embed_dim", -2),
    ("batch_size", 0),
    ("lstm_units", 0),
    ("lstm_units", "48"),
    ("d_model", 16.0),
    ("d_model", 0),
    ("num_heads", True),
    ("head_size", 0),
    ("num_blocks", 2.0),
    ("max_relative_distance", 0),
    ("max_epochs", -1),
    ("patience", -1),
    ("seed", 0.5),
    ("dropout", 1.0),
    ("attention_dropout", -0.1),
    ("beta1", 1.0),
    ("beta2", float("nan")),
    ("learning_rate", -1e-3),
    ("weight_decay", float("inf")),
    ("adam_eps", 0.0),
    ("use_block_dense", 1),
    ("variant", "crf_only"),
    ("dtype", "f16"),
]


def test_every_config_field_has_a_bad_value_case():
    assert {f.name for f in dataclasses.fields(ModelConfig)} == {name for name, _ in BAD_FIELD_VALUES}


@pytest.mark.parametrize("field, value", BAD_FIELD_VALUES)
def test_config_rejects_a_bad_field_naming_it(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        ModelConfig.from_dict({**desk_config().to_dict(), field: value})


def test_config_accepts_boundary_values():
    cfg = ModelConfig(learning_rate=0, weight_decay=0.0, dropout=0, patience=0, seed=-3, beta1=0.0)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_matches_hand_sum_toy():
    cfg = tiny_config()
    counts = count_parameters(cfg, VOCAB.size, TAGSET.size)
    assert counts["char_embed"] == 12 * 8
    assert counts["char_lstm"] == 8 * 32 + 8 * 32 + 32
    assert counts["word_proj"] == 8 * 16 + 16
    # q(2*8) + key (16*16) + value (16*16) + out (16*16) + rel ((2*2+1)*8)
    assert counts["attention"] == 16 + 256 * 3 + 40
    assert counts["gate"] == 32 * 16 + 16
    assert counts["crf"] == 16 * 5 + 5 + 25 + 10
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")


@pytest.mark.parametrize("variant", ["abstract_rel", "self_rel", "self_abs", "none"])
@pytest.mark.parametrize("blocked", [False, True])
def test_count_matches_built_store(variant, blocked):
    cfg = tiny_config(variant=variant, use_block_dense=blocked)
    model = SlotModel(cfg, VOCAB, TAGSET)
    assert count_parameters(cfg, VOCAB.size, TAGSET.size)["total"] == model.store.total_count()


def test_atis_scale_totals_and_reduction():
    cfg = ModelConfig()
    full, blocked, factor = parameter_reduction(cfg, 47, 159)
    assert 0.9e6 <= full <= 1.15e6
    assert 3.8 <= factor <= 4.7
    assert blocked == count_parameters(
        ModelConfig(use_block_dense=True), 47, 159
    )["total"]


def test_blocked_kernels_store_exactly_one_kth():
    cfg_full = tiny_config(use_block_dense=False)
    cfg_blk = tiny_config(use_block_dense=True)
    full = count_parameters(cfg_full, VOCAB.size, TAGSET.size)
    blk = count_parameters(cfg_blk, VOCAB.size, TAGSET.size)
    # each blocked kernel shrinks by exactly 1/num_blocks; biases, embeddings,
    # the word projection and the CRF stay identical
    k = cfg_blk.num_blocks
    lstm_kernels = 8 * 32 + 8 * 32
    assert full["char_lstm"] - blk["char_lstm"] == lstm_kernels - lstm_kernels // k
    assert full["word_proj"] == blk["word_proj"]
    assert full["crf"] == blk["crf"]


def test_count_rejects_indivisible_blocking():
    cfg = tiny_config(use_block_dense=True, num_blocks=3)
    with pytest.raises(ConfigError):
        count_parameters(cfg, VOCAB.size, TAGSET.size)


@pytest.mark.parametrize("char_vocab_size, num_tags", [(1, 5), (12, 0)])
def test_count_rejects_sizes_below_the_reserved_entries(char_vocab_size, num_tags):
    with pytest.raises(ConfigError):
        count_parameters(tiny_config(), char_vocab_size, num_tags)


def test_block_dense_model_shrinks_at_default_config():
    full, blocked, factor = parameter_reduction(ModelConfig(), 47, 159)
    assert factor >= 3.5


# ---------------------------------------------------------------------------
# forward behaviour


def test_variant_none_features_are_word_embeddings():
    cfg = tiny_config(variant="none")
    model = SlotModel(cfg, VOCAB, TAGSET)
    u = utt("abc de fgh")
    E = model.encoder.encode_words(model.word_ids(u))
    assert np.array_equal(E.data, features(model, u))


def test_saturated_gate_equals_crf_only_construction():
    cfg_none = tiny_config(variant="none")
    ref = SlotModel(cfg_none, VOCAB, TAGSET)
    cfg_attn = tiny_config(variant="abstract_rel")
    model = SlotModel(cfg_attn, VOCAB, TAGSET)
    for p in ref.store:  # shared submodules have identical names
        model.store[p.name].data[...] = p.data
    model.gate.bias.data[...] = 30.0
    u = utt("abc de fgh abc")
    assert model.predict(u) == ref.predict(u)
    em_a = model.crf.emission(model.features_batch([u])[0]).data
    em_b = ref.crf.emission(ref.features_batch([u])[0]).data
    assert np.max(np.abs(em_a - em_b)) < 1e-9


def test_fixed_seed_rebuild_is_bit_identical():
    cfg = tiny_config()
    a = SlotModel(cfg, VOCAB, TAGSET)
    b = SlotModel(cfg, VOCAB, TAGSET)
    u = utt("abc de")
    assert np.array_equal(features(a, u), features(b, u))
    for pa, pb in zip(a.store, b.store):
        assert pa.name == pb.name and np.array_equal(pa.data, pb.data)


def test_f32_and_f64_forward_agree():
    cfg64 = tiny_config(dtype="f64")
    cfg32 = tiny_config(dtype="f32")
    m64 = SlotModel(cfg64, VOCAB, TAGSET)
    m32 = SlotModel(cfg32, VOCAB, TAGSET)
    u = utt("abc de fgh")
    em64 = m64.crf.emission(m64.features_batch([u])[0]).data
    em32 = m32.crf.emission(m32.features_batch([u])[0]).data
    assert em32.dtype == np.float32
    rel = np.abs(em64 - em32) / np.maximum(1e-6, np.abs(em64))
    assert rel.max() < 1e-3


def test_unknown_characters_never_fail():
    cfg = tiny_config()
    model = SlotModel(cfg, VOCAB, TAGSET)
    spans = model.predict(utt("zzz 0101 abc"))
    assert isinstance(spans, list)


def test_untrained_model_saturated_towards_outside_predicts_nothing():
    cfg = tiny_config()
    model = SlotModel(cfg, VOCAB, TAGSET)
    model.crf.emission.bias.data[...] = -20.0
    model.crf.emission.bias.data[0] = 20.0  # "O"
    assert model.predict(utt("abc de fgh")) == []


def test_two_process_runs_produce_identical_logits(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "emit.py"
    script.write_text(
        "import hashlib\n"
        "from slotlab.charlstm import CharVocab\n"
        "from slotlab.crf import TagSet\n"
        "from slotlab.data import utterance_from_words\n"
        "from slotlab.model import ModelConfig, SlotModel\n"
        "cfg = ModelConfig(char_embed_dim=8, lstm_units=8, d_model=16, num_heads=2,\n"
        "                  head_size=8, num_blocks=4, max_relative_distance=2, seed=5)\n"
        "model = SlotModel(cfg, CharVocab(list('abcdefghij')), TagSet.from_slot_types(['x', 'y']))\n"
        "u = utterance_from_words('abc de fgh'.split(), [])\n"
        "em = model.crf.emission(model.features_batch([u])[0]).data\n"
        "print(hashlib.sha256(em.tobytes()).hexdigest())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    runs = {
        subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True, env=env).stdout
        for _ in range(2)
    }
    assert len(runs) == 1


def test_batched_features_match_single():
    """Each utterance's rows of a ragged batch, packed, equal the utterance run alone."""
    cfg = tiny_config()
    model = SlotModel(cfg, VOCAB, TAGSET)
    utts = [utt("abc de"), utt("fgh abc de i"), utt("a")]
    H, lengths = model.features_batch(utts)
    assert H.shape == (7, cfg.d_model) and lengths == [2, 4, 1]
    for rows, u in zip(by_utterance(H, lengths), utts):
        alone, _ = model.features_batch([u])
        assert alone.shape == (len(u.tokens), cfg.d_model)
        assert np.max(np.abs(rows - alone.data)) < 1e-12


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas.get('version', '?')}"


@pytest.fixture(scope="module")
def desk_served():
    """The checkpoint of a desk model after two epochs, and the unseen-city test split.

    A test that compares two ways of serving builds one model for each, so neither reads rows the other kept.
    """
    train_set, test_set = make_from_to_corpus(seed=7)
    checkpoint, _ = train(train_set, None, desk_config(max_epochs=2))
    return checkpoint, test_set


def test_word_rows_are_bitwise_equal_alone_and_in_a_batch(desk_served):
    checkpoint, test_set = desk_served
    model, alone_model = checkpoint.build_model(), checkpoint.build_model()
    print(f"BLAS: {_blas()}")
    ids = [model.vocab.encode(w) for w in dict.fromkeys(w for u in test_set for w in u.words)]
    with T.no_grad():
        together = model.encoder.encode_words(ids).data
        differ = [
            w for w, row in zip(ids, together) if not np.array_equal(alone_model.encoder.encode_words([w]).data[0], row)
        ]
    assert not differ, f"{len(differ)} of {len(ids)} words get another encoder row alone, on BLAS {_blas()}"


def _features_differing_alone(checkpoint, test_set) -> int:
    """How many utterances get other fused features served alone than in batches of 32, by two built models."""
    model, alone_model = checkpoint.build_model(), checkpoint.build_model()
    differ = 0
    with T.no_grad():
        for lo in range(0, len(test_set), 32):
            batch = test_set[lo : lo + 32]
            H, lengths = model.features_batch(batch)
            for rows, u in zip(by_utterance(H, lengths), batch):
                alone, _ = alone_model.features_batch([u])
                differ += not np.array_equal(alone.data, rows)
    return differ


def test_utterance_features_are_bitwise_equal_alone_and_in_a_batch(desk_served):
    checkpoint, test_set = desk_served
    print(f"BLAS: {_blas()}")
    differ = _features_differing_alone(checkpoint, test_set)
    assert differ == 0, f"{differ} of {len(test_set)} utterances get other features alone, on BLAS {_blas()}"


@pytest.mark.parametrize("served", ["desk_f32", "block_dense"])
def test_utterance_features_are_bitwise_equal_alone_and_in_a_batch_in_f32_and_block_dense(served):
    """A desk model trained two epochs in f32, and an untrained paper-size ModelConfig(use_block_dense=True)."""
    train_set, test_set = make_from_to_corpus(seed=7)
    if served == "desk_f32":
        checkpoint, _ = train(train_set, None, dataclasses.replace(desk_config(max_epochs=2), dtype="f32"))
    else:
        checkpoint = Checkpoint.from_model(build_model(train_set, ModelConfig(use_block_dense=True)))
    differ = _features_differing_alone(checkpoint, test_set)
    assert differ == 0, f"{differ} of {len(test_set)} utterances get other features alone, on BLAS {_blas()}"


def test_features_batch_rejects_empty_batch():
    model = SlotModel(tiny_config(), VOCAB, TAGSET)
    with pytest.raises(ContractError, match="features_batch: empty batch"):
        model.features_batch([])


def test_predict_batch_decodes_the_graph_built_emissions():
    """predict_batch runs its forward without a graph; the spans equal decoding the recorded forward."""
    from slotlab.crf import spans_from_bio, viterbi_decode

    model = SlotModel(tiny_config(), VOCAB, TAGSET)
    model.crf.emission.bias.data[...] = np.array([0.0, 0.4, 0.1, 0.3, 0.2])
    utts = [utt("abc de"), utt("fgh abc de i"), utt("a")]
    H, lengths = model.features_batch(utts)
    em = model.crf.emission(H)
    assert em.requires_grad
    crf = model.crf
    want = [
        spans_from_bio(viterbi_decode(rows, crf.transitions.data, crf.start.data, crf.end.data)[0], TAGSET)
        for rows in by_utterance(em, lengths)
    ]
    assert any(want)
    assert model.predict_batch(utts) == want


def test_serving_does_not_depend_on_earlier_calls():
    """On a writable model and on one built from its checkpoint, whose row cache the earlier calls fill."""
    batch = [utt("abc de"), utt("fgh abc de i"), utt("a"), utt("de de bij")]

    def served(model):
        with T.no_grad():
            H3, _ = model.features_batch(batch)
        return H3.data, model.predict_batch(batch)

    for built in (False, True):

        def fresh():
            model = SlotModel(tiny_config(), VOCAB, TAGSET)
            return Checkpoint.from_model(model).build_model() if built else model

        cold = served(fresh())
        model = fresh()
        model.predict_batch([utt("abc xyz de"), utt("hhh")])
        model.predict(utt("de de bij"))
        warm = served(model)
        assert np.array_equal(warm[0], cold[0]), built
        assert warm[1] == cold[1], built

def test_full_model_gradient_check():
    cfg = tiny_config()
    model = SlotModel(cfg, VOCAB, TAGSET)
    u = utt("abc de fgh", (0, 0, "x"), (2, 2, "y"))

    def f(store):
        return model.loss([u], training=False)

    # wider step than the per-layer checks: the deep graph leaves coordinates
    # with ~1e-8 gradients where 1e-5 steps are dominated by cancellation
    assert grad_check(f, model.store, eps=3e-4) < 1e-4


def test_full_model_gradient_check_on_ragged_batch():
    """Padded words, padded utterances and CRF steps past a sequence's end get no gradient."""
    cfg = tiny_config()
    model = SlotModel(cfg, VOCAB, TAGSET)
    utts = [utt("abc de fgh", (0, 0, "x")), utt("j", (0, 0, "y")), utt("bcd ef", (1, 1, "x"))]

    def f(store):
        return model.loss(utts, training=False)

    assert grad_check(f, model.store, eps=3e-4) < 1e-4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_config(variant="self_rel", use_block_dense=True)
    model = SlotModel(cfg, VOCAB, TAGSET)
    ck = Checkpoint.from_model(model)
    ck.save(tmp_path / "ck")
    again = Checkpoint.load(tmp_path / "ck")
    assert again.config == cfg
    assert again.vocab == VOCAB and again.tagset == TAGSET
    assert set(again.arrays) == set(ck.arrays)
    for name, arr in ck.arrays.items():
        assert np.array_equal(arr, again.arrays[name])
    u = utt("abc de fgh")
    assert again.build_model().predict(u) == model.predict(u)


def test_checkpoint_round_trip_f32(tmp_path):
    cfg = tiny_config(dtype="f32")
    model = SlotModel(cfg, VOCAB, TAGSET)
    ck = Checkpoint.from_model(model)
    ck.save(tmp_path / "ck32")
    again = Checkpoint.load(tmp_path / "ck32")
    for name, arr in ck.arrays.items():
        assert arr.dtype == np.float32 and np.array_equal(arr, again.arrays[name])


def test_checkpoint_manifest_is_versioned_and_explicit(tmp_path):
    import json

    cfg = tiny_config()
    Checkpoint.from_model(SlotModel(cfg, VOCAB, TAGSET)).save(tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest.keys() == {"format_version", "config", "tagset", "char_vocab", "params"}
    assert manifest["format_version"] == 4
    assert manifest["config"] == cfg.to_dict()
    assert all(p.keys() == {"name", "shape"} for p in manifest["params"])
    shapes = {p["name"]: p["shape"] for p in manifest["params"]}
    assert shapes["encoder.lstm.input.kernel"] == [1, 8, 32]  # [num_blocks, in/k, out/k]
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    total = sum(int(np.prod(p["shape"]) if p["shape"] else 1) for p in manifest["params"])
    assert len(blob) == total * 8


def test_checkpoint_rejects_unknown_version(tmp_path):
    import json

    cfg = tiny_config()
    Checkpoint.from_model(SlotModel(cfg, VOCAB, TAGSET)).save(tmp_path / "ck")
    path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(path.read_text())
    # 1 stored dense kernels as [in, out] under other names; 2 stored offsets; 3 stored mask_current
    for version in (1, 2, 3, 99):
        manifest["format_version"] = version
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            Checkpoint.load(tmp_path / "ck")


def _saved_checkpoint(tmp_path):
    import json

    Checkpoint.from_model(SlotModel(tiny_config(), VOCAB, TAGSET)).save(tmp_path / "ck")
    path = tmp_path / "ck" / "manifest.json"
    return path, json.loads(path.read_text())


def test_checkpoint_rejects_truncated_blob(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    blob = path.parent / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="truncated"):
        Checkpoint.load(path.parent)


def test_checkpoint_rejects_blob_with_trailing_bytes(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    blob = path.parent / "params.bin"
    blob.write_bytes(blob.read_bytes() + bytes(8))
    with pytest.raises(ConfigError, match="trailing bytes"):
        Checkpoint.load(path.parent)


@pytest.mark.parametrize(
    "damage, kind, key",
    [
        (lambda m: m.pop("tagset"), "missing", "tagset"),
        (lambda m: m.update(endianness="little"), "extra", "endianness"),
        (lambda m: m["params"][0].pop("shape"), "missing", "shape"),
        (lambda m: m["params"][-1].update(offset=0), "extra", "offset"),
        (lambda m: m["config"].pop("max_relative_distance"), "missing", "max_relative_distance"),
        (lambda m: m["config"].update(hidden=3), "extra", "hidden"),
    ],
    ids=["top-missing", "top-extra", "entry-missing", "entry-extra", "config-missing", "config-extra"],
)
def test_checkpoint_load_names_each_missing_or_extra_key(tmp_path, damage, kind, key):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    damage(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=rf"malformed checkpoint manifest .* {kind} keys \['{key}'\]"):
        Checkpoint.load(path.parent)


@pytest.mark.parametrize(
    "damage, text",
    [
        (lambda e: {"name": e["name"]}, "a 'params' entry: missing keys ['shape'], extra keys []"),
        (lambda e: {**e, "offset": 0}, "a 'params' entry: missing keys [], extra keys ['offset']"),
        (lambda e: {"name": e["name"], "shp": e["shape"]}, "a 'params' entry: missing keys ['shape'], extra keys ['shp']"),
        (lambda e: [e["name"], e["shape"]], "AttributeError(\"'list' object has no attribute 'keys'\")"),
        (lambda e: None, "AttributeError(\"'NoneType' object has no attribute 'keys'\")"),
    ],
    ids=["missing", "extra", "renamed", "list", "null"],
)
def test_a_bad_params_entry_fails_with_its_full_error_text(tmp_path, damage, text):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    i = len(manifest["params"]) // 2
    manifest["params"][i] = damage(manifest["params"][i])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError) as err:
        Checkpoint.load(path.parent)
    assert str(err.value) == f"malformed checkpoint manifest {path}: {text}"


def test_checkpoint_rejects_missing_parameter(tmp_path):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    sizes = [8 * math.prod(p["shape"]) for p in manifest["params"]]
    i = [p["name"] for p in manifest["params"]].index("gate.bias")
    start = sum(sizes[:i])
    blob = path.parent / "params.bin"
    data = blob.read_bytes()
    blob.write_bytes(data[:start] + data[start + sizes[i] :])  # its values go too
    del manifest["params"][i]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ContractError, match="gate.bias"):
        Checkpoint.load(path.parent).build_model()


def test_checkpoint_rejects_manifest_that_is_not_json(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    path.write_text('{"format_version": 2, "params": [')
    with pytest.raises(ConfigError, match="malformed checkpoint manifest") as err:
        Checkpoint.load(path.parent)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "damage",
    [
        lambda m: m.pop("params"),
        lambda m: m.pop("config"),
        lambda m: m["params"][0].pop("shape"),
        lambda m: m.update(params=5),
        lambda m: m["params"][0].update(offset="0"),
    ],
    ids=["no-params", "no-config", "no-shape", "params-not-a-list", "offset-not-an-int"],
)
def test_checkpoint_rejects_manifest_with_missing_or_mistyped_key(tmp_path, damage):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    damage(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="malformed checkpoint manifest") as err:
        Checkpoint.load(path.parent)
    assert str(path) in str(err.value)


def _blob_elsewhere(absolute):
    def damage(manifest, ck):
        other = ck.parent / "x.bin"
        other.write_bytes((ck / "params.bin").read_bytes())  # readable weights, outside the checkpoint directory
        manifest["blob_file"] = str(other) if absolute else "../x.bin"

    return damage


@pytest.mark.parametrize(
    "damage, field",
    [
        (_blob_elsewhere(absolute=True), "blob_file"),
        (_blob_elsewhere(absolute=False), "blob_file"),
        (lambda m, ck: m.update(endianness="big"), "endianness"),
        (lambda m, ck: m["params"][3].update(dtype="f32"), "dtype"),
        (lambda m, ck: m["char_vocab"].__setitem__(0, 5), "char_vocab"),
        (lambda m, ck: m["char_vocab"].__setitem__(0, "ab"), "char_vocab"),
        (lambda m, ck: m["char_vocab"].__setitem__(0, m["char_vocab"][1]), "char_vocab"),
    ],
    ids=[
        "blob-absolute",
        "blob-parent",
        "big-endian",
        "dtype",
        "vocab-int",
        "vocab-two-chars",
        "vocab-twice",
    ],
)
def test_checkpoint_load_accepts_only_the_manifest_fields_save_writes(tmp_path, damage, field):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    damage(manifest, path.parent)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"'{field}'"):
        Checkpoint.load(path.parent)


def test_checkpoint_rejects_unknown_parameter(tmp_path):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    manifest["params"].append({**manifest["params"][-1], "name": "gate.extra"})
    path.write_text(json.dumps(manifest))
    blob = path.parent / "params.bin"
    blob.write_bytes(blob.read_bytes() + bytes(8 * math.prod(manifest["params"][-1]["shape"])))
    with pytest.raises(ContractError, match="gate.extra"):
        Checkpoint.load(path.parent).build_model()


def test_checkpoint_rejects_parameter_of_wrong_shape(tmp_path):
    import json

    path, manifest = _saved_checkpoint(tmp_path)
    entry = next(p for p in manifest["params"] if p["name"] == "crf.start")
    assert entry["shape"] == [TAGSET.size]
    entry["shape"] = [1, TAGSET.size]  # as many values as before, so the blob still reads
    path.write_text(json.dumps(manifest))
    with pytest.raises(ContractError, match=r"'crf.start' has shape \(1, 5\), expected \(5,\)"):
        Checkpoint.load(path.parent).build_model()


_BATCH = [utt("abc de"), utt("fgh abc de i"), utt("a"), utt("jab cd ef")]


def _assert_same_bits(got, want):
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_models_built_from_one_loaded_checkpoint_share_only_its_read_only_blob(tmp_path, dtype):
    """A loaded checkpoint's views of params.bin are served in place, and nothing can write them."""
    Checkpoint.from_model(SlotModel(tiny_config(dtype=dtype), VOCAB, TAGSET)).save(tmp_path / "ck")
    ck = Checkpoint.load(tmp_path / "ck")
    first, second = ck.build_model(), ck.build_model()
    for p in (*first.store, *second.store):
        assert np.shares_memory(p.data, ck.arrays[p.name]) and np.array_equal(p.data, ck.arrays[p.name]), p.name
        with pytest.raises(ValueError):
            p.data[...] = 0.0
        with pytest.raises(ValueError):
            p.data.flags.writeable = True
    _assert_same_bits(_served(second, _BATCH), _served(first, _BATCH))


def test_a_model_built_over_writable_arrays_copies_them():
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    want = _served(writable, _BATCH)
    source = writable.store.snapshot()
    model = SlotModel(tiny_config(), VOCAB, TAGSET, arrays=source)
    for name, array in source.items():
        assert not np.shares_memory(model.store[name].data, array), name
        array += 1.0
    _assert_same_bits(_served(model, _BATCH), want)


def test_a_model_built_from_a_models_checkpoint_shares_no_memory_with_it():
    corpus = _small_corpus(n=16)
    cfg = train_config()
    m = build_model(corpus, cfg)
    want = _served(m, corpus[:4])
    ck = Checkpoint.from_model(m)
    served = ck.build_model()
    for p in served.store:
        assert not np.shares_memory(p.data, m.store[p.name].data), p.name
        assert not np.shares_memory(p.data, ck.arrays[p.name]), p.name
    optimizer = AdamW(m.store, cfg)
    for _ in range(3):
        m.store.zero_grads()
        T.backward(m.loss(corpus[:8], training=True))
        optimizer.step()
    for array in ck.arrays.values():
        array[...] = 0.0
    assert _served(m, corpus[:4])[0].tobytes() != want[0].tobytes()  # training moved m
    _assert_same_bits(_served(served, corpus[:4]), want)


def test_a_model_built_from_trains_best_snapshot_shares_no_memory_with_it():
    corpus = _small_corpus(n=16)
    ck, _ = train(corpus, corpus[:8], train_config(max_epochs=2))
    want = _served(ck.build_model(), corpus[:4])
    served = ck.build_model()
    for p in served.store:
        assert not np.shares_memory(p.data, ck.arrays[p.name]), p.name
    for array in ck.arrays.values():
        array[...] = np.nan
    _assert_same_bits(_served(served, corpus[:4]), want)


def _views_of_two_blobs(arrays):
    names = list(arrays)
    views = {}
    for group in (names[: len(names) // 2], names[len(names) // 2 :]):
        blob = b"".join(arrays[name].tobytes() for name in group)
        views.update(split_by_shape(np.frombuffer(blob, np.float64), {name: arrays[name].shape for name in group}))
    return views


def _views_in_f32(arrays):
    blob = b"".join(a.astype(np.float32).tobytes() for a in arrays.values())
    return split_by_shape(np.frombuffer(blob, np.float32), {name: a.shape for name, a in arrays.items()})


@pytest.mark.parametrize("views", [_views_of_two_blobs, _views_in_f32], ids=["two-blobs", "other-dtype"])
def test_a_store_copies_bytes_views_it_cannot_serve_in_place(views):
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    source = views(writable.store.snapshot())
    model = SlotModel(tiny_config(), VOCAB, TAGSET, arrays=source)
    for p in model.store:
        assert not np.shares_memory(p.data, source[p.name]), p.name
        assert p.data.dtype == np.float64 and np.array_equal(p.data, source[p.name]), p.name


def test_serving_a_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    import slotlab.params

    cfg = tiny_config(dropout=0.5, attention_dropout=0.5)
    Checkpoint.from_model(SlotModel(cfg, VOCAB, TAGSET)).save(tmp_path / "ck")
    batch = [utt("abc de fgh", (0, 0, "x")), utt("ij a", (1, 1, "y"))]

    def no_stream(seed, name):
        raise AssertionError(f"seeded the random stream {name!r}")

    with monkeypatch.context() as m:
        m.setattr(slotlab.params, "_named_seed", no_stream)
        model = Checkpoint.load(tmp_path / "ck").build_model()
        one = model.predict(batch[0])
        assert model.predict_batch(batch)[0] == one
        eval_loss = float(model.loss(batch, training=False).data)
    assert float(model.loss(batch, training=True).data) != eval_loss  # training still drops units


def test_a_served_model_holds_no_gradient_buffers():
    model = SlotModel(tiny_config(), VOCAB, TAGSET)
    served = Checkpoint.from_model(model).build_model()
    served.predict_batch([utt("abc de"), utt("fgh abc de i"), utt("a")])
    assert sum(0 if p.grad is None else p.grad.nbytes for p in served.store) == 0
    served.store.zero_grads()  # training's first step allocates them
    assert all(p.grad.shape == p.shape and not p.grad.any() for p in served.store)


# ---------------------------------------------------------------------------
# serving from a frozen plan


def _served(model, batch):
    """Fused features and spans of a batch, as predict_batch serves them (under no_grad)."""
    with T.no_grad():
        H3, _ = model.features_batch(batch)
    return H3.data, model.predict_batch(batch)


@pytest.mark.parametrize(
    "config",
    [
        tiny_config(),
        tiny_config(use_block_dense=True),
        tiny_config(variant="self_rel"),
        tiny_config(variant="self_abs"),
        tiny_config(variant="none"),
        ModelConfig(),
        ModelConfig(dtype="f32"),
    ],
    ids=["dense", "block_dense", "self_rel", "self_abs", "none", "paper_f64", "paper_f32"],
)
def test_a_served_model_serves_the_writable_models_bits_cold_and_warm(config):
    """The warm pass reads every word row back from the served model's row cache, the cold pass some."""
    writable = SlotModel(config, VOCAB, TAGSET)
    batches = [[utt("abc de"), utt("fgh abc de i"), utt("a")], [utt("de de bij")], [utt("ab cd"), utt("ef gh")]]
    want = [_served(writable, b) for b in batches]
    model = Checkpoint.from_model(writable).build_model()
    for _ in ("cold", "warm"):
        for batch, (H3, spans) in zip(batches, want):
            got_H3, got_spans = _served(model, batch)
            assert np.array_equal(got_H3, H3) and got_spans == spans
    assert not writable.store._plan and writable.store._rows is None  # a writable model keeps the per-call path
    assert len(model.store._row_slot) == len({w for batch in batches for u in batch for w in u.words})
    if model.config.variant == "abstract_rel":
        assert set(model.store._plan) == {"char_table", "kernel_q", "rel_by_head"}
    else:
        assert set(model.store._plan) == {"char_table"}


def _distinct_words(n: int, length: int = 4) -> list[str]:
    """n distinct words of VOCAB's characters, so no two share their char ids."""
    chars = VOCAB.chars
    return ["".join(chars[(i // len(chars) ** j) % len(chars)] for j in range(length)) for i in range(n)]


def test_serving_more_distinct_words_than_the_row_cache_holds_gives_the_writable_models_bits():
    """One cold batch with more new words than the cache holds, then a stream of distinct words through single calls."""
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    model = Checkpoint.from_model(writable).build_model()
    words = _distinct_words(ROW_CAPACITY + 100)
    big = [utt(" ".join(words[i : i + 8])) for i in range(0, len(words), 8)][::-1]
    got, want = _served(model, big), _served(writable, big)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert len(model.store._row_slot) == ROW_CAPACITY
    assert model.store._rows.shape == (ROW_CAPACITY, model.config.d_model)
    stream = [utt(" ".join(words[i : i + 3])) for i in range(0, len(words), 3)]
    for u in stream + stream[:40]:  # the repeats were evicted since
        assert np.array_equal(_served(model, [u])[0], _served(writable, [u])[0]), u.text
    assert len(model.store._row_slot) == ROW_CAPACITY


def test_a_call_whose_misses_evict_its_own_hits_is_served_its_rows():
    """The cache is full and its oldest row is the next one overwritten: a call that reads that row and misses
    one word still gets the writable model's bits, so its result is read before its fresh rows are kept."""
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    model = Checkpoint.from_model(writable).build_model()
    words = _distinct_words(ROW_CAPACITY + 1)
    oldest, fill, new = words[0], words[:ROW_CAPACITY], words[ROW_CAPACITY]
    for lo in range(0, ROW_CAPACITY, 16):
        _served(model, [utt(" ".join(fill[lo : lo + 16]))])
    key = {w: tuple(VOCAB.encode(w)) for w in (oldest, new)}  # the cache keys on char ids
    assert model.store._row_slot[key[oldest]] == model.store._row_next == 0
    u = utt(f"{oldest} {new} {oldest}")
    with T.no_grad():
        got, _ = model.features_batch([u])
    assert np.array_equal(got.data, _served(writable, [u])[0])
    assert key[oldest] not in model.store._row_slot and model.store._row_slot[key[new]] == 0


def test_training_and_loss_keep_no_word_rows():
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    model = Checkpoint.from_model(writable).build_model()
    batch = [utt("abc de", (0, 0, "x")), utt("fgh abc de i", (2, 3, "y"))]
    writable.predict_batch(batch)
    for m in (writable, model):
        T.backward(m.loss(batch, training=True))
        m.loss(batch, training=False)
        assert m.store._rows is None and not m.store._row_slot
    model.predict_batch(batch)
    assert len(model.store._row_slot) == 4  # abc, de, fgh and i


def test_a_write_into_a_plan_input_of_a_served_model_raises():
    for variant in ("abstract_rel", "self_rel", "self_abs", "none"):
        model = Checkpoint.from_model(SlotModel(tiny_config(variant=variant), VOCAB, TAGSET)).build_model()
        for p in model.store:
            with pytest.raises(ValueError, match="read-only"):
                p.data[...] = 0.0


def test_a_served_parameter_cannot_be_made_writable_again():
    for variant in ("abstract_rel", "self_rel", "self_abs", "none"):
        model = Checkpoint.from_model(SlotModel(tiny_config(variant=variant), VOCAB, TAGSET)).build_model()
        for p in model.store:
            with pytest.raises(ValueError, match="WRITEABLE"):
                p.data.flags.writeable = True


def test_training_loss_on_a_served_model_still_reaches_the_plan_inputs():
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    model = Checkpoint.from_model(writable).build_model()
    batch = [utt("abc de", (0, 0, "x")), utt("fgh abc de i", (2, 3, "y"))]
    model.predict_batch(batch)  # fills the plan
    for m in (writable, model):
        m.store.zero_grads()
        T.backward(m.loss(batch, training=True))
    for name in ("encoder.char_embed", "attention.query", "attention.key.kernel"):
        assert model.store[name].grad.any(), name
        assert np.array_equal(model.store[name].grad, writable.store[name].grad), name


def test_an_unpadded_batch_gives_each_utterance_its_rows_alone_and_padded(desk_served):
    checkpoint, test_set = desk_served
    model, padded_model, alone_model = (checkpoint.build_model() for _ in range(3))
    length = max({len(u.tokens) for u in test_set}, key=lambda n: sum(len(u.tokens) == n for u in test_set))
    equal = [u for u in test_set if len(u.tokens) == length][:8]
    longer = next(u for u in test_set if len(u.tokens) > length)
    assert len(equal) > 1
    with T.no_grad():
        together, equal_lengths = model.features_batch(equal)
        ragged, lengths = padded_model.features_batch(equal + [longer])
        for mine, rows, u in zip(by_utterance(together, equal_lengths), by_utterance(ragged, lengths), equal):
            alone, _ = alone_model.features_batch([u])
            assert np.array_equal(mine, alone.data), u.text
            assert np.array_equal(mine, rows), u.text


# ---------------------------------------------------------------------------
# packed rows against the padded composition


def padded_composition(model, utts, training):
    """The layers as the benchmark's traced run drives them, over a zero-padded grid: encode_utterance, then each
    utterance narrowed out and padded with zero rows, attend_batch, fuse and crf_nll_batch. (loss, H3, lengths)."""
    cfg = model.config
    lengths = np.array([len(u.tokens) for u in utts])
    t_max = int(lengths.max())
    E = model.encoder.encode_utterance([model.vocab.encode(w) for u in utts for w in u.words], cfg.dropout, training)
    rows, lo = [], 0
    for n in lengths.tolist():
        piece = T.narrow(E, 0, lo, n)
        if n < t_max:
            piece = T.concat([piece, T.constant(np.zeros((t_max - n, cfg.d_model), E.data.dtype))], axis=0)
        rows.append(T.reshape(piece, (1, t_max, cfg.d_model)))
        lo += n
    H3 = E3 = T.concat(rows, axis=0)
    if model.attention is not None:
        H3 = model.gate.fuse(model.attention.attend_batch(E3, lengths, training)[0], E3)
    gold = np.zeros((len(utts), t_max), dtype=np.int64)
    for b, u in enumerate(utts):
        gold[b, : len(u.tokens)] = bio_from_spans(u, model.tagset)
    return T.reduce_mean(crf_nll_batch(H3, gold, lengths, model.crf)), H3, lengths


# the benchmark self-check's block-dense model
SELFCHECK_BLOCK = dict(
    use_block_dense=True, char_embed_dim=32, lstm_units=16, d_model=32, num_heads=2, head_size=16, num_blocks=4,
    max_relative_distance=4,
)


@pytest.fixture(scope="module")
def desk_corpus():
    train_set, _ = make_from_to_corpus(seed=7)
    length = max({len(u.tokens) for u in train_set}, key=lambda n: sum(len(u.tokens) == n for u in train_set))
    equal = [u for u in train_set if len(u.tokens) == length][:12]
    ragged = train_set[:32]
    assert len(set(len(u.tokens) for u in ragged)) > 2 and len(equal) == 12
    return train_set, {"ragged": ragged, "equal": equal}


@pytest.mark.parametrize("variant", ["abstract_rel", "self_rel", "self_abs", "none"])
@pytest.mark.parametrize("size", ["desk", "selfcheck_block"])
def test_packed_rows_equal_the_padded_composition_bit_for_bit(desk_corpus, size, variant):
    """loss (training on and off) and predict_batch against the padded composition, on ragged and equal-length
    batches: the same loss bits, gradients to 1e-9 of their largest entry, the same features and spans."""
    train_set, batches = desk_corpus
    if size == "desk":
        cfg = desk_config(variant=variant)
    else:
        cfg = ModelConfig(**SELFCHECK_BLOCK, variant=variant)
    for kind, batch in batches.items():
        for training in (True, False):
            packed, padded = build_model(train_set, cfg), build_model(train_set, cfg)  # the same dropout draws
            loss = packed.loss(batch, training=training)
            ref, _, _ = padded_composition(padded, batch, training)
            assert loss.data.tobytes() == ref.data.tobytes(), (kind, training)
            for model, out in ((packed, loss), (padded, ref)):
                model.store.zero_grads()
                T.backward(out)
            for p, q in zip(packed.store, padded.store):
                assert np.max(np.abs(p.grad - q.grad)) <= 1e-9 * max(np.abs(q.grad).max(), 1e-300), (kind, p.name)
        model = build_model(train_set, cfg)
        with T.no_grad():
            H, lengths = model.features_batch(batch)
            _, H3, _ = padded_composition(model, batch, False)
            em3 = model.crf.emission(H3).data
        real = np.arange(H3.shape[1]) < np.array(lengths)[:, None]
        assert H.data.tobytes() == H3.data[real].tobytes(), kind
        crf = model.crf
        paths, _ = viterbi_decode_batch(em3[real], lengths, crf.transitions.data, crf.start.data, crf.end.data)
        assert model.predict_batch(batch) == [spans_from_bio(path, model.tagset) for path in paths], kind


def test_equal_length_pad_and_unpad_are_views_whose_backward_is_the_reshape(monkeypatch):
    """When every length is the grid's width, pad and unpad return views of their input through a reshape node.
    So a single predict, an equal-length batch and its loss gather nothing; a ragged batch pads and unpads once,
    around the attention."""
    rng = np.random.default_rng(3)
    for B, n in ((1, 1), (1, 5), (3, 4)):
        rows = T.Tensor(rng.standard_normal((B * n, 3)), requires_grad=True)
        grid = T.pad(rows, [n] * B)
        cut = T.unpad(grid, np.array([n] * B))
        assert grid.shape == (B, n, 3) and cut.shape == rows.shape
        for out in (grid, cut):
            assert np.shares_memory(out.data, rows.data) and out._backward.__qualname__.startswith("reshape.")
        g = rng.standard_normal(cut.shape)
        T.backward(T.reduce_sum(cut * T.Tensor(g)))
        assert rows.grad.tobytes() == g.tobytes()

    ops = []
    op_result = T._result

    def counted(data, parents, backward):
        ops.append(backward.__qualname__.split(".")[0])  # the op whose backward closure this is
        return op_result(data, parents, backward)

    monkeypatch.setattr(T, "_result", counted)
    equal = [utt("abc de", (0, 0, "x")), utt("fgh i", (1, 1, "y")), utt("de de")]
    ragged = equal + [utt("a")]
    writable = SlotModel(tiny_config(), VOCAB, TAGSET)
    for model in (writable, Checkpoint.from_model(writable).build_model()):
        for call in (
            lambda: model.predict(utt("abc de i")),
            lambda: model.predict(utt("a")),
            lambda: model.predict_batch(equal),
            lambda: model.loss(equal, training=True),
        ):
            ops.clear()
            call()
            assert ops and not {"pad", "unpad"} & set(ops), ops
        for call in (lambda: model.predict_batch(ragged), lambda: model.loss(ragged, training=True)):
            ops.clear()
            call()
            assert ops.count("pad") == 1 and ops.count("unpad") == 1  # the attention's input and output


def test_adamw_counts_a_gradient_never_written_as_zero():
    corpus = _small_corpus(n=4)
    cfg = train_config(weight_decay=0.01)
    fresh, zeroed = build_model(corpus, cfg), build_model(corpus, cfg)
    zeroed.store.zero_grads()
    for model in (fresh, zeroed):
        AdamW(model.store, cfg).step()
    assert all(p.grad is None for p in fresh.store)
    for p in fresh.store:
        assert np.array_equal(p.data, zeroed.store[p.name].data), p.name


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_adamw_in_place_steps_are_bitwise_the_allocating_steps(dtype):
    """Twenty steps on real gradients, weight decay on, give the parameters and moments bit for bit."""
    corpus = _small_corpus(n=16)
    cfg = train_config(weight_decay=0.01, dtype=dtype)
    models = build_model(corpus, cfg), build_model(corpus, cfg)
    optimizers = AdamW(models[0].store, cfg), AdamWAllocating(models[1].store, cfg)
    for step in range(20):
        batch = corpus[step % 4 * 4 : step % 4 * 4 + 4]
        for model, optimizer in zip(models, optimizers):
            model.store.zero_grads()
            T.backward(model.loss(batch, training=True))
            optimizer.step()
    for (p, m, v, *_), (q, m_ref, v_ref, *_) in zip(optimizers[0]._slots, optimizers[1]._slots):
        assert p.data.tobytes() == q.data.tobytes(), p.name
        assert m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes(), p.name


@pytest.mark.parametrize("name, value", [("attention.out.kernel", np.inf), ("crf.end", np.nan)], ids=["middle", "last"])
def test_checkpoint_load_names_a_non_finite_parameter_anywhere_in_the_blob(tmp_path, name, value):
    model = SlotModel(tiny_config(), VOCAB, TAGSET)
    model.store[name].data.flat[-1] = value  # the parameter's last value, next to the following one's first
    Checkpoint.from_model(model).save(tmp_path / "ck")
    with pytest.raises(ConfigError, match=f"'{name}' has non-finite values"):
        Checkpoint.load(tmp_path / "ck")


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    model = SlotModel(tiny_config(), VOCAB, TAGSET)
    model.crf.transitions.data[1, 2] = np.nan
    Checkpoint.from_model(model).save(tmp_path / "nan")
    with pytest.raises(ConfigError, match="'crf.transitions' has non-finite values"):
        Checkpoint.load(tmp_path / "nan")
    model.store["gate.bias"].data[0] = -np.inf  # stored before the CRF: the first non-finite parameter is named
    Checkpoint.from_model(model).save(tmp_path / "inf")
    with pytest.raises(ConfigError, match="'gate.bias' has non-finite values"):
        Checkpoint.load(tmp_path / "inf")


# ---------------------------------------------------------------------------
# training loop


def _small_corpus(n=50, seed=5):
    train_set, _ = make_from_to_corpus(seed=seed, n_train=n, n_test=10, n_train_cities=20, n_test_cities=5)
    return train_set


def train_config(**overrides):
    cfg = desk_config().to_dict()
    cfg.update(
        dict(char_embed_dim=12, lstm_units=16, d_model=24, num_heads=2, head_size=12, max_relative_distance=4)
    )
    cfg.update(overrides)
    return ModelConfig.from_dict(cfg)


def test_training_reaches_perfect_fit_on_small_synthetic():
    corpus = _small_corpus()
    # patience large enough to survive the first epochs where dev F1 sits at 0
    cfg = train_config(max_epochs=200, patience=40, dropout=0.1)
    checkpoint, log = train(corpus, corpus, cfg)
    model = checkpoint.build_model()
    report = span_f1([list(u.spans) for u in corpus], model.predict_batch(corpus))
    assert report.micro_f1 == 1.0
    assert len(log) <= 200


def test_loss_decreases_over_first_five_epochs():
    corpus = _small_corpus(n=32)
    cfg = train_config(max_epochs=5, batch_size=32, dropout=0.0, attention_dropout=0.0)
    _, log = train(corpus, None, cfg)
    losses = [r["train_loss"] for r in log]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_zero_learning_rate_changes_nothing():
    corpus = _small_corpus(n=8)
    cfg = train_config(max_epochs=1, learning_rate=0.0, dropout=0.0, attention_dropout=0.0)
    model = build_model(corpus, cfg)
    before = model.store.snapshot()
    checkpoint, _ = train(corpus, None, cfg)
    for name, arr in checkpoint.arrays.items():
        assert np.array_equal(arr, before[name])


def test_same_seed_same_epoch_one_loss_to_the_bit():
    corpus = _small_corpus(n=24)
    cfg = train_config(max_epochs=2)
    _, log_a = train(corpus, None, cfg)
    _, log_b = train(corpus, None, cfg)
    assert log_a[0]["train_loss"] == log_b[0]["train_loss"]
    assert log_a[1]["train_loss"] == log_b[1]["train_loss"]


def test_early_stopping_returns_best_dev_checkpoint():
    corpus = _small_corpus(n=40)
    cfg = train_config(max_epochs=60, patience=3)
    checkpoint, log = train(corpus, corpus, cfg)
    best = max(r["dev_f1"] for r in log)
    model = checkpoint.build_model()
    report = span_f1([list(u.spans) for u in corpus], model.predict_batch(corpus))
    assert report.micro_f1 == pytest.approx(best)
    # stopped within patience+1 epochs of the last improvement
    best_epoch = max((r["epoch"] for r in log if r["dev_f1"] == best))
    assert log[-1]["epoch"] <= best_epoch + cfg.patience + 1


def test_train_rejects_empty_dataset():
    cfg = train_config()
    with pytest.raises(DataError):
        train([], None, cfg)


def test_nan_diagnostic_names_parameter():
    corpus = _small_corpus(n=4)
    cfg = train_config()
    model = build_model(corpus, cfg)
    model.store["encoder.char_embed"].data[...] = np.inf
    with pytest.raises(NumericError) as err:
        _check_finite(float("nan"), model)
    assert "encoder.char_embed" in str(err.value)


def test_desk_loss_graph_stays_small():
    """Nodes backward visits for one desk batch; an LSTM step of separate ops per character would add hundreds,
    a CRF forward algorithm of separate ops per step dozens, and a gold-path score of separate ops 17."""
    train_set, _ = make_from_to_corpus(seed=7)
    model = build_model(train_set, desk_config())
    loss = model.loss(train_set[:32], training=True)
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert len(seen) <= 52


def test_training_log_record_shape():
    corpus = _small_corpus(n=8)
    cfg = train_config(max_epochs=1)
    _, log = train(corpus, corpus[:4], cfg)
    record = log[0]
    assert set(record) == {"epoch", "train_loss", "dev_f1", "seconds"}
    assert record["epoch"] == 1 and record["seconds"] >= 0


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("variant", ["abstract_rel", "self_rel", "self_abs", "none"])
def test_features_and_loss_are_bitwise_those_of_the_reshape_contractions_and_composed_gate(variant, dtype, monkeypatch):
    """Against einsum2's reshape path and the gate as nine ops: the same features and loss bits, and gradients
    within 1e-12 (f64) or 1e-5 (f32) of the largest entry. The contractions run, forward and backward, are
    exactly the attention's forward specs of test_core's `variant_einsums` and their two gradients each."""
    train_set, _ = make_from_to_corpus(seed=7)
    model = build_model(train_set, dataclasses.replace(desk_config(variant=variant), dtype=dtype))
    seen = set()
    contract = T._contract

    def recorded(a_s, b_s, out_s, a, b):
        seen.add(f"{a_s},{b_s}->{out_s}")
        return contract(a_s, b_s, out_s, a, b)

    def run(batch):
        model.store.zero_grads()
        loss = model.loss(batch, training=False)
        T.backward(loss)
        with T.no_grad():
            features = model.features_batch(batch)[0].data
        return loss.data, features, {p.name: p.grad for p in model.store if p.grad is not None}

    one_word = dataclasses.replace(train_set[0], tokens=train_set[0].tokens[:1], spans=())
    batches = {"B = 1": train_set[3:4], "T = 1": [one_word], "ragged": train_set[40:47], "batch": train_set[:32]}
    tol = 1e-12 if dtype == "f64" else 1e-5
    for name, batch in batches.items():
        with monkeypatch.context() as m:
            m.setattr(T, "_contract", recorded)
            loss, features, grads = run(batch)
        with monkeypatch.context() as m:
            m.setattr(T, "_contract", contract_reshaped)
            m.setattr(T, "fusion_gate", fusion_gate_composed)
            ref_loss, ref_features, ref_grads = run(batch)
        assert loss.tobytes() == ref_loss.tobytes() and features.tobytes() == ref_features.tobytes(), name
        for key, want in ref_grads.items():
            assert np.max(np.abs(grads[key] - want)) <= tol * np.max(np.abs(want)), (name, key)
    forward = {"abstract_rel": ["imcu,icu->imc", "hd,rd->hr", "bhij,bjhd->bihd"],
               "self_rel": ["bihd,bjhd->bhij", "bihd,ijd->bhij", "bhij,bjhd->bihd"],
               "self_abs": ["bihd,bjhd->bhij", "bhij,bjhd->bihd"], "none": []}[variant]
    expected = set()
    for spec in forward:
        lhs, out_s = spec.split("->")
        a_s, b_s = lhs.split(",")
        expected |= {spec, f"{out_s},{b_s}->{a_s}", f"{a_s},{out_s}->{b_s}"}
    assert seen == expected
