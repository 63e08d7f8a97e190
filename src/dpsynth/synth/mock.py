"""Deterministic offline stand-in for a hosted text backend.

Responses are pure functions of (prompt hash, seed). Generated records mix a
fixed class-indicative vocabulary with shared filler words so downstream
classifiers have real signal to learn, and classification replies score the
query against the same vocabulary. Class labels in replies use the prompt
spelling (including "Bussiness"), which exercises the alias handling in
normalize_label exactly like a live model following the template would.
"""
from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from ..corpus import LABELS, ClassLabel, Corpus, NewsRecord, tokenize
from ..rngutil import make_rng
from .prompts import PROMPT_LABEL

CLASS_VOCAB: dict[ClassLabel, tuple[str, ...]] = {
    ClassLabel.WORLD: (
        "government", "minister", "border", "treaty", "election", "embassy",
        "parliament", "diplomat", "ceasefire", "province", "refugee", "summit",
    ),
    ClassLabel.SPORTS: (
        "coach", "season", "championship", "tournament", "league", "match",
        "stadium", "playoff", "striker", "trophy", "innings", "goalkeeper",
    ),
    ClassLabel.BUSINESS: (
        "market", "shares", "profit", "investor", "earnings", "merger",
        "stocks", "trading", "economy", "bank", "revenue", "quarterly",
    ),
    ClassLabel.SCITECH: (
        "software", "researchers", "satellite", "quantum", "internet",
        "processor", "laboratory", "telescope", "startup", "robotics",
        "browser", "spacecraft",
    ),
}

FILLER_WORDS: tuple[str, ...] = (
    "the", "new", "report", "today", "announced", "after", "with", "over",
    "first", "plan", "major", "official", "early", "group", "amid", "talks",
)

_COUNT_RE = re.compile(r"Now generate (\d+) different")


def _mock_seed(prompt_hash: str, seed: int) -> int:
    h = hashlib.sha256(f"{prompt_hash}:{seed}".encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


# Row i holds class LABELS[i]'s words, then the shared filler words from
# index _N_CLASS on, so that one (label, index) lookup picks either kind.
_WORDS = np.array([CLASS_VOCAB[label] + FILLER_WORDS for label in LABELS], dtype=object)
_TITLE_WORDS = np.array([[w.capitalize() for w in row] for row in _WORDS], dtype=object)
_N_CLASS, _N_ALL = len(CLASS_VOCAB[LABELS[0]]), _WORDS.shape[1]
_CLASS_SHARE = 0.55  # chance that a description word is a class word


def compose_mock_texts(rng, label_ids) -> list[tuple[str, str]]:
    """(title, description) pairs in the mock house style, one per label index.

    A title is two class words and one filler word in a uniform order, all
    capitalised. A description has 12 to 16 words, each a class word with
    probability 0.55 and a filler word otherwise, with its first word
    capitalised and a trailing ".". Each field is drawn for all records at once.
    """
    label_ids = np.asarray(label_ids, dtype=np.intp)
    title_idx = rng.integers((0, 0, _N_CLASS), (_N_CLASS, _N_CLASS, _N_ALL),
                             size=(len(label_ids), 3))
    title_idx = rng.permuted(title_idx, axis=1)
    lengths = rng.integers(12, 17, size=len(label_ids))
    is_class = rng.random(int(lengths.sum())) < _CLASS_SHARE
    word_idx = rng.integers(np.where(is_class, 0, _N_CLASS), np.where(is_class, _N_CLASS, _N_ALL))
    words = _WORDS[np.repeat(label_ids, lengths), word_idx].tolist()
    titles = _TITLE_WORDS[label_ids[:, None], title_idx].tolist()
    ends = np.cumsum(lengths).tolist()
    return [
        (" ".join(title), " ".join(words[b - n:b]).capitalize() + ".")
        for title, n, b in zip(titles, lengths.tolist(), ends)
    ]


def mock_generation_response(prompt_hash: str, seed: int, n_records: int) -> str:
    """A fenced JSON array of n labeled records, deterministic in (prompt, seed)."""
    rng = make_rng(_mock_seed(prompt_hash, seed))
    label_ids = np.arange(n_records) % len(LABELS)
    items = [
        {"Title": title, "Description": description, "Class_Label": PROMPT_LABEL[LABELS[i]]}
        for i, (title, description) in zip(label_ids.tolist(), compose_mock_texts(rng, label_ids))
    ]
    body = json.dumps(items, indent=1)
    return f"```json\n{body}\n```"


_QUERY_MARK = "for the follwoing news:"
_VOCAB_SETS = {label: frozenset(words) for label, words in CLASS_VOCAB.items()}


def mock_classification_response(prompt: str) -> str:
    """Answer a classification prompt by vocabulary overlap with the query."""
    query = prompt.rsplit(_QUERY_MARK, 1)[-1]
    tokens = tokenize(query.replace("Title:", " ").replace("Description:", " "))
    best = LABELS[0]
    best_score = -1
    for label in LABELS:
        vocab = _VOCAB_SETS[label]
        score = sum(1 for t in tokens if t in vocab)
        if score > best_score:
            best, best_score = label, score
    return f'Class Label: "{PROMPT_LABEL[best]}"'


def requested_count(prompt: str, fallback: int) -> int:
    m = _COUNT_RE.search(prompt)
    return int(m.group(1)) if m else fallback


def mock_original_corpus(n_per_class: int, seed: int) -> Corpus:
    """A built-in sample of original data for offline runs and tests.

    Drawn from the same vocabulary family as the mock backend (separate
    stream label, so records never collide with generated ones), classes
    interleaved in enum order.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = make_rng(_mock_seed("original-sample", seed))
    label_ids = np.tile(np.arange(len(LABELS)), n_per_class)
    texts = compose_mock_texts(rng, label_ids)
    return Corpus(tuple(
        NewsRecord(title, description, LABELS[i])
        for i, (title, description) in zip(label_ids.tolist(), texts)
    ))
