"""Generated from-city/to-city corpus with held-out city names.

The slot of a city token is decidable only from surrounding function words
("from X", "to Y", "departing X", "land in Y"), never from the city string
itself: every city occurs in both roles across the corpus, and the test split
uses city names that never appear in training. Several templates also use
"to" before a verb, so a model must combine the cue word with wider context
rather than tag everything after "to".
"""

from __future__ import annotations

import numpy as np

from .data import SlotSpan, Utterance, utterance_from_words

FROM_SLOT = "from_city"
TO_SLOT = "to_city"

TEMPLATES = [
    "i want to fly from {F} to {T}",
    "book a flight from {F} to {T}",
    "show me flights from {F} to {T}",
    "find flights from {F} to {T} please",
    "i need to go from {F} to {T} tomorrow",
    "what flights leave from {F} to {T}",
    "are there any seats from {F} to {T}",
    "from {F} to {T} on monday please",
    "please list all flights from {F} to {T}",
    "how much is a ticket from {F} to {T}",
    "i would like to travel from {F} to {T}",
    "do you have anything from {F} to {T} tonight",
    "get me from {F} to {T} as early as possible",
    "looking to book travel from {F} to {T}",
    "flights from {F} to {T} around noon",
    "i want to leave from {F} heading to {T}",
    "what is the cheapest fare from {F} to {T}",
    "show morning departures from {F} to {T}",
    "departing {F} arriving {T}",
    "show me departures from {F}",
    "which flights leave from {F} today",
    "i want to fly to {T}",
    "book me a seat to {T} for tomorrow",
    "any flights to {T} this evening",
    "how do i get to {T}",
    "when is the next flight to {T}",
    "what time do we land in {T}",
    "what time is it",
    "thanks that is all",
    "can you help me book a flight",
]

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _city_word(rng: np.random.Generator) -> str:
    syllables = int(rng.integers(2, 4))
    out = []
    for _ in range(syllables):
        out.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
        out.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
    if rng.random() < 0.3:
        out.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
    return "".join(out)


def make_cities(rng: np.random.Generator, count: int, taken_words: set[str], two_word_prob: float = 0.25) -> list[str]:
    """Fresh city names; no word of any city repeats an already-taken word."""
    cities: list[str] = []
    while len(cities) < count:
        words = [_city_word(rng)]
        if rng.random() < two_word_prob:
            words.append(_city_word(rng))
        if all(w not in taken_words for w in words) and len(set(words)) == len(words):
            taken_words.update(words)
            cities.append(" ".join(words))
    return cities


def render(template: str, from_city: str | None, to_city: str | None) -> Utterance:
    words: list[str] = []
    spans: list[SlotSpan] = []
    for piece in template.split():
        if piece == "{F}":
            city_words = from_city.split()
            spans.append(SlotSpan(len(words), len(words) + len(city_words) - 1, FROM_SLOT))
            words.extend(city_words)
        elif piece == "{T}":
            city_words = to_city.split()
            spans.append(SlotSpan(len(words), len(words) + len(city_words) - 1, TO_SLOT))
            words.extend(city_words)
        else:
            words.append(piece)
    return utterance_from_words(words, spans)


def sample_utterances(rng: np.random.Generator, cities: list[str], count: int) -> list[Utterance]:
    out = []
    for _ in range(count):
        template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
        a, b = rng.choice(len(cities), size=2, replace=False)
        out.append(render(template, cities[int(a)], cities[int(b)]))
    return out


def make_from_to_corpus(
    seed: int = 7,
    n_train: int = 800,
    n_test: int = 200,
    n_train_cities: int = 120,
    n_test_cities: int = 40,
) -> tuple[list[Utterance], list[Utterance]]:
    """(train, test); test city names are disjoint from training city names, 15% of them two words long."""
    rng = np.random.default_rng(seed)
    taken: set[str] = {w for t in TEMPLATES for w in t.split() if w not in ("{F}", "{T}")}
    train_cities = make_cities(rng, n_train_cities, taken, 0.15)
    test_cities = make_cities(rng, n_test_cities, taken, 0.15)
    train = sample_utterances(rng, train_cities, n_train)
    test = sample_utterances(rng, test_cities, n_test)
    return train, test


def desk_config(variant: str = "abstract_rel", seed: int = 3, max_epochs: int = 60):
    """Small configuration that solves the from/to corpus in about a minute.

    Word-embedding dropout is raised to 0.4: with only 120 training cities the
    model otherwise leans on memorized city identities, which is exactly what
    unseen-city evaluation punishes.
    """
    from .model import ModelConfig

    return ModelConfig(
        char_embed_dim=24,
        lstm_units=48,
        d_model=64,
        num_heads=2,
        head_size=32,
        max_relative_distance=6,
        dropout=0.4,
        attention_dropout=0.1,
        variant=variant,
        learning_rate=3e-3,
        batch_size=32,
        max_epochs=max_epochs,
        patience=1000,
        seed=seed,
    )
