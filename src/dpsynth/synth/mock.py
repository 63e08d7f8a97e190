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


def _pick(rng, words) -> str:
    return words[int(rng.integers(0, len(words)))]


def _title_words(rng, label: ClassLabel) -> list[str]:
    vocab = CLASS_VOCAB[label]
    words = [_pick(rng, vocab), _pick(rng, vocab), _pick(rng, FILLER_WORDS)]
    order = rng.permutation(len(words))
    return [words[i] for i in order]


def _description_words(rng, label: ClassLabel) -> list[str]:
    vocab = CLASS_VOCAB[label]
    n_words = int(rng.integers(12, 17))
    out = []
    for _ in range(n_words):
        out.append(_pick(rng, vocab) if rng.random() < 0.55 else _pick(rng, FILLER_WORDS))
    return out


def compose_mock_text(rng, label: ClassLabel) -> tuple[str, str]:
    """One (title, description) pair in the mock house style."""
    title = " ".join(w.capitalize() for w in _title_words(rng, label))
    desc_words = _description_words(rng, label)
    description = (desc_words[0].capitalize() + " " + " ".join(desc_words[1:])).strip() + "."
    return title, description


def mock_generation_response(prompt_hash: str, seed: int, n_records: int) -> str:
    """A fenced JSON array of n labeled records, deterministic in (prompt, seed)."""
    rng = make_rng(_mock_seed(prompt_hash, seed))
    items = []
    for i in range(n_records):
        label = LABELS[i % len(LABELS)]
        title, description = compose_mock_text(rng, label)
        items.append(
            {"Title": title, "Description": description, "Class_Label": PROMPT_LABEL[label]}
        )
    body = json.dumps(items, indent=1)
    return f"```json\n{body}\n```"


_QUERY_MARK = "for the follwoing news:"


def mock_classification_response(prompt: str) -> str:
    """Answer a classification prompt by vocabulary overlap with the query."""
    query = prompt.rsplit(_QUERY_MARK, 1)[-1]
    tokens = tokenize(query.replace("Title:", " ").replace("Description:", " "))
    best = LABELS[0]
    best_score = -1
    for label in LABELS:
        vocab = set(CLASS_VOCAB[label])
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
    records = []
    for _ in range(n_per_class):
        for label in LABELS:
            title, description = compose_mock_text(rng, label)
            records.append(NewsRecord(title, description, label))
    return Corpus(tuple(records))
