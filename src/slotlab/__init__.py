"""Parameter-efficient slot labelling without pretrained language models.

Character-LSTM word embeddings, multi-head relative attention driven by a
shared trainable query with current-position masking, a sigmoid fusion gate,
and a linear-chain CRF — plus block-diagonal dense kernels that store 1/k of
the weights, and a training/evaluation harness for few-shot fractions,
ablations, and unseen-entity substitution.
"""

from .charlstm import CharVocab
from .crf import TagSet, spans_from_bio
from .data import (
    DataError,
    SlotSpan,
    Utterance,
    bio_from_spans,
    fraction_split,
    load_dataset,
    save_jsonl,
    substitute_entities,
    tokenize,
)
from .evaluate import EvalReport, span_f1
from .model import Checkpoint, ModelConfig, SlotModel, count_parameters, parameter_reduction
from .tensor import SlotlabError
from .training import train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "CharVocab",
    "DataError",
    "EvalReport",
    "ModelConfig",
    "SlotModel",
    "SlotSpan",
    "SlotlabError",
    "TagSet",
    "Utterance",
    "bio_from_spans",
    "count_parameters",
    "fraction_split",
    "load_dataset",
    "parameter_reduction",
    "save_jsonl",
    "span_f1",
    "spans_from_bio",
    "substitute_entities",
    "tokenize",
    "train",
]
