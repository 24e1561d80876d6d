"""Full network assembly, configuration, parameter accounting, checkpoints.

Pipeline per utterance: char-LSTM word embeddings E -> context attention A ->
sigmoid gate fusing A with E -> CRF over the fused features. The crf_only
ablation (variant "none") skips the attention and gate entirely and runs the
CRF directly over the word embeddings, so its parameter count reflects what
it actually trains.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .attention import VARIANTS as ATTENTION_VARIANTS, ContextAttention, FusionGate
from .charlstm import CharLstmEncoder, CharVocab
from .crf import CrfHead, TagSet, spans_from_bio, viterbi_decode_batch
from .data import SlotSpan, Utterance, bio_from_spans
from .params import ParameterStore, split_by_shape
from .tensor import ConfigError, ContractError, SlotlabError, Tensor

CHECKPOINT_FORMAT_VERSION = 4
VARIANTS = ATTENTION_VARIANTS + ("none",)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field -> (test, what a valid value is): the one place a config field is checked
_POSITIVE = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_FRACTION = (lambda v: _is_number(v) and 0.0 <= v < 1.0, "a number in [0, 1)")
_NON_NEGATIVE = (lambda v: _is_number(v) and 0.0 <= v < math.inf, "a finite non-negative number")
_FIELD_RULES = {
    "char_embed_dim": _POSITIVE,
    "lstm_units": _POSITIVE,
    "d_model": _POSITIVE,
    "num_heads": _POSITIVE,
    "head_size": _POSITIVE,
    "num_blocks": _POSITIVE,
    "dropout": _FRACTION,
    "attention_dropout": _FRACTION,
    "weight_decay": _NON_NEGATIVE,
    "variant": (lambda v: v in VARIANTS, f"one of {VARIANTS}"),
    "use_block_dense": (lambda v: isinstance(v, bool), "true or false"),
    "max_relative_distance": _POSITIVE,
    "learning_rate": _NON_NEGATIVE,
    "beta1": _FRACTION,
    "beta2": _FRACTION,
    "adam_eps": (lambda v: _is_number(v) and 0.0 < v < math.inf, "a finite positive number"),
    "batch_size": _POSITIVE,
    "max_epochs": _POSITIVE,
    "patience": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "seed": (_is_int, "an integer"),
    "dtype": (lambda v: v in ("f32", "f64"), "'f32' or 'f64'"),
}


@dataclass
class ModelConfig:
    char_embed_dim: int = 512
    lstm_units: int = 128
    d_model: int = 256
    num_heads: int = 4
    head_size: int = 128
    num_blocks: int = 8
    dropout: float = 0.1
    attention_dropout: float = 0.1
    weight_decay: float = 0.01
    variant: str = "abstract_rel"
    use_block_dense: bool = False
    max_relative_distance: int = 8
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    dtype: str = "f64"

    def __post_init__(self):
        for name, (valid, expected) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"config field {name!r} must be {expected}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object of fields, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ModelConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except ValueError as exc:  # not UTF-8 JSON, or a ConfigError (a ValueError) of from_dict
            raise ConfigError(f"config file {path}: {exc}") from exc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


class SlotModel:
    """The assembled network over a frozen vocabulary and tagset.

    Without `arrays` every parameter is drawn from its initializer; with them
    (a checkpoint's) the model serves: each parameter is a read-only copy of
    the array of its name, and a missing, misshapen or unknown array fails
    with a ContractError naming it.
    """

    def __init__(
        self, config: ModelConfig, vocab: CharVocab, tagset: TagSet, arrays: dict[str, np.ndarray] | None = None
    ):
        self.config = config
        self.vocab = vocab
        self.tagset = tagset
        self.store = ParameterStore(seed=config.seed, dtype=config.dtype, arrays=arrays)
        blocks = config.num_blocks if config.use_block_dense else 1
        self.encoder = CharLstmEncoder(
            self.store,
            vocab.size,
            config.char_embed_dim,
            config.lstm_units,
            config.d_model,
            num_blocks=blocks,
        )
        if config.variant == "none":
            self.attention = None
            self.gate = None
        else:
            self.attention = ContextAttention(self.store, config, num_blocks=blocks)
            self.gate = FusionGate(self.store, config.d_model, num_blocks=blocks)
        self.crf = CrfHead(self.store, config.d_model, tagset.size)
        self.store.check_loaded()

    # ------------------------------------------------------------------
    # forward paths

    def word_ids(self, utt: Utterance) -> list[list[int]]:
        return [self.vocab.encode(w) for w in utt.words]

    def features_batch(self, utts: Sequence[Utterance], training: bool = False) -> tuple[Tensor, list[int]]:
        """Fused features [N, d_model] of the batch's N words, packed in utterance order, plus the utterance lengths.

        The rows are utterance b's words after utterance b-1's, the one layout
        the gate and the CRF read. Only the attention reads a padded
        [B, Tmax, d_model] grid (`tensor.pad`), and its output is cut back to
        the real rows (`tensor.unpad`); when every utterance has Tmax words,
        both are reshapes.
        """
        if not utts:
            raise ContractError("features_batch: empty batch")
        lengths = [len(u.tokens) for u in utts]
        if min(lengths) < 1:
            raise ContractError("cannot encode an utterance with no tokens")
        words = [w for u in utts for w in u.words]
        ids = {w: self.vocab.encode(w) for w in dict.fromkeys(words)}  # each distinct string encoded once
        E = self.encoder.encode_utterance([ids[w] for w in words], self.config.dropout, training)
        if self.attention is None:
            return E, lengths
        A, _ = self.attention.attend_batch(T.pad(E, lengths), lengths, training)
        return self.gate.fuse(T.unpad(A, lengths), E), lengths

    def loss(self, utts: Sequence[Utterance], training: bool = True) -> Tensor:
        """Mean CRF negative log-likelihood over a batch of utterances."""
        if not utts:
            raise ContractError("loss: empty batch")
        H, lengths = self.features_batch(utts, training)
        gold = np.concatenate([bio_from_spans(u, self.tagset) for u in utts])
        return T.reduce_mean(self.crf.nll(H, gold, lengths))

    # ------------------------------------------------------------------
    # decoding

    def predict(self, utt: Utterance) -> list[SlotSpan]:
        return self.predict_batch([utt])[0]

    def predict_batch(self, utts: Sequence[Utterance]) -> list[list[SlotSpan]]:
        if not utts:
            return []
        with T.no_grad():
            H, lengths = self.features_batch(utts, training=False)
            em = self.crf.emission(H).data
        crf = self.crf
        paths, _ = viterbi_decode_batch(em, lengths, crf.transitions.data, crf.start.data, crf.end.data)
        return [spans_from_bio(tags, self.tagset) for tags in paths]


# ---------------------------------------------------------------------------
# parameter accounting, read off a model built from the config

_COMPONENT_PREFIXES = {
    "char_embed": "encoder.char_embed",
    "char_lstm": "encoder.lstm.",
    "word_proj": "encoder.word_proj.",
    "attention": "attention.",
    "gate": "gate.",
    "crf": "crf.",
}


def count_parameters(config: ModelConfig, char_vocab_size: int, num_tags: int) -> dict[str, int]:
    """Stored-trainable counts per component plus 'total'.

    Builds the model over placeholder characters and tags of the given sizes
    and sums its parameters by name. With use_block_dense, the large kernels
    (both LSTM kernels, the attention query/key/value/output projections, and
    the gate) store 1/num_blocks of their full weights; the word projection
    and the CRF emission stay full.
    """
    if char_vocab_size < 2:
        raise ConfigError(f"char_vocab_size must count PAD and UNK, got {char_vocab_size}")
    if num_tags < 1:
        raise ConfigError(f"num_tags must be at least 1, got {num_tags}")
    vocab = CharVocab([str(i) for i in range(char_vocab_size - 2)])
    tagset = TagSet(["O"] + [f"B-{i}" for i in range(num_tags - 1)])
    store = SlotModel(config, vocab, tagset).store
    counts = {
        key: sum(p.size for p in store if p.name.startswith(prefix)) for key, prefix in _COMPONENT_PREFIXES.items()
    }
    counts["total"] = store.total_count()
    return counts


def parameter_reduction(config: ModelConfig, char_vocab_size: int, num_tags: int) -> tuple[int, int, float]:
    """(full-dense total, block-dense total, reduction factor)."""
    full = count_parameters(
        ModelConfig.from_dict({**config.to_dict(), "use_block_dense": False}), char_vocab_size, num_tags
    )["total"]
    blocked = count_parameters(
        ModelConfig.from_dict({**config.to_dict(), "use_block_dense": True}), char_vocab_size, num_tags
    )["total"]
    return full, blocked, full / blocked


# ---------------------------------------------------------------------------
# checkpoints: a JSON manifest plus one little-endian binary blob

_BLOB_DTYPES = {"f32": "<f4", "f64": "<f8"}


def _check_keys(path: Path, where: str, entry: dict, keys: set[str]) -> None:
    """Fail unless the JSON object `entry` has exactly `keys`, naming each missing and extra key."""
    missing, extra = sorted(keys - entry.keys()), sorted(entry.keys() - keys)
    if missing or extra:
        raise ConfigError(f"malformed checkpoint manifest {path}: {where}: missing keys {missing}, extra keys {extra}")


class Checkpoint:
    """Bit-exact persisted model: config, vocab, tagset, parameter arrays."""

    def __init__(self, config: ModelConfig, vocab: CharVocab, tagset: TagSet, arrays: dict[str, np.ndarray]):
        self.config = config
        self.vocab = vocab
        self.tagset = tagset
        self.arrays = dict(arrays)

    @classmethod
    def from_model(cls, model: SlotModel) -> "Checkpoint":
        return cls(model.config, model.vocab, model.tagset, model.store.snapshot())

    def build_model(self) -> SlotModel:
        """A model for serving: its parameters are read-only, so under no_grad its store plans the products once."""
        return SlotModel(self.config, self.vocab, self.tagset, self.arrays)

    def save(self, directory) -> None:
        """Write manifest.json and params.bin, the arrays concatenated in index order; offsets follow from shapes."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "tagset": self.tagset.tags,
            "char_vocab": self.vocab.chars,
            "params": [{"name": name, "shape": list(arr.shape)} for name, arr in self.arrays.items()],
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=1, ensure_ascii=False), encoding="utf-8")
        blob = b"".join(np.ascontiguousarray(a, dtype=_BLOB_DTYPES[self.config.dtype]) for a in self.arrays.values())
        (directory / "params.bin").write_bytes(blob)

    @classmethod
    def load(cls, directory) -> "Checkpoint":
        """Read a checkpoint; its arrays are read-only views of params.bin, which must be exactly the index long."""
        directory = Path(directory)
        path = directory / "manifest.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise ConfigError(f"unsupported checkpoint format_version {manifest.get('format_version')!r}")
            _check_keys(path, "the manifest", manifest, {"format_version", "config", "tagset", "char_vocab", "params"})
            _check_keys(path, "'config'", manifest["config"], set(ModelConfig.__dataclass_fields__))
            chars = manifest["char_vocab"]
            one_char = isinstance(chars, list) and all(isinstance(c, str) and len(c) == 1 for c in chars)
            if not one_char or len(set(chars)) != len(chars):
                raise ConfigError(f"checkpoint field 'char_vocab' must list distinct single characters, got {chars!r}")
            config = ModelConfig.from_dict(manifest["config"])
            shapes = {}
            for entry in manifest["params"]:
                _check_keys(path, "a 'params' entry", entry, {"name", "shape"})
                name, shape = entry["name"], tuple(entry["shape"])
                if name in shapes:
                    raise ConfigError(f"checkpoint parameter {name!r} is listed twice")
                if not all(_is_int(s) and s >= 0 for s in shape):
                    raise ConfigError(f"checkpoint parameter {name!r} has a bad shape {list(shape)}")
                shapes[name] = shape
            dtype = np.dtype(_BLOB_DTYPES[config.dtype])
            blob = (directory / "params.bin").read_bytes()
            need = dtype.itemsize * sum(math.prod(shape) for shape in shapes.values())
            if len(blob) != need:
                fault = "is truncated" if len(blob) < need else "has trailing bytes"
                raise ConfigError(f"checkpoint blob params.bin {fault}: {len(blob)} bytes, the index needs {need}")
            arrays = split_by_shape(np.frombuffer(blob, dtype), shapes)
            for name, arr in arrays.items():
                if not np.isfinite(arr).all():
                    raise ConfigError(f"checkpoint parameter {name!r} has non-finite values")
            return cls(config, CharVocab(chars), TagSet(manifest["tagset"]), arrays)
        except SlotlabError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # not JSON, or a value of the wrong type
            raise ConfigError(f"malformed checkpoint manifest {path}: {exc!r}") from exc
