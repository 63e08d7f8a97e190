"""Seeded inputs: Zipf-vocabulary news records in the AGNews CSV format.

One ``ClassModel`` holds the four class distributions. The dataset CSVs and
the fake endpoint's record pool both draw from it, so generated records look
like the original data. Every word is lowercase ASCII of length >= 2, which
the dpsynth tokenizer keeps unchanged.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

CLASSES = ("World", "Sports", "Business", "Sci/Tech")
# Spellings the generation template uses; the endpoint answers with these.
PROMPT_LABELS = ("World", "Sports", "Bussiness", "Sci/Tech")

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# Tuning choices, not measured AGNews statistics; README.md says where each
# constant comes from.
VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.1
SHARED_WEIGHT = 0.6  # weight of the Zipf law all classes share


def rng_for(seed: int, *labels: object) -> np.random.Generator:
    """A PCG64 stream named by a seed and a label path."""
    h = hashlib.sha256(repr((int(seed),) + labels).encode("utf-8"))
    return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest()[:8], "big")))


def make_words(n: int) -> list[str]:
    """n distinct pseudo-words: word i spells i in base len(_SYLLABLES).

    Shorter words go to lower indices, as in natural language, where the
    most frequent words are short.
    """
    base = len(_SYLLABLES)
    words = []
    for i in range(n):
        digits = [i % base]
        rest = i // base
        while rest:
            digits.append(rest % base)
            rest //= base
        words.append("".join(_SYLLABLES[d] for d in digits))
    return words


class ClassModel:
    """Four class-conditional Zipf distributions over one shared vocabulary.

    Each class mixes a Zipf law shared by all classes (SHARED_WEIGHT) with a
    Zipf law over its own random ordering of the vocabulary, so the head of
    every class is common filler and its body carries the signal.
    """

    def __init__(self, seed: int):
        self.words = np.array(make_words(VOCAB_SIZE), dtype=object)
        zipf = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
        zipf /= zipf.sum()
        rng = rng_for(seed, "class-model")
        common = zipf[np.argsort(rng.permutation(VOCAB_SIZE))]
        self.cdfs = []
        for _ in CLASSES:
            own = zipf[np.argsort(rng.permutation(VOCAB_SIZE))]
            cdf = np.cumsum(SHARED_WEIGHT * common + (1.0 - SHARED_WEIGHT) * own)
            cdf[-1] = 1.0
            self.cdfs.append(cdf)

    def records(self, rng: np.random.Generator, labels: np.ndarray) -> list[tuple[str, str]]:
        """One (title, description) pair per class index in ``labels``."""
        n = len(labels)
        title_len = rng.integers(4, 11, size=n)
        desc_len = rng.integers(12, 41, size=n)
        lengths = title_len + desc_len
        ends = np.cumsum(lengths)
        u = rng.random(int(ends[-1]))
        ids = np.empty(len(u), dtype=np.int64)
        owner = np.repeat(np.asarray(labels), lengths)
        for k, cdf in enumerate(self.cdfs):
            mask = owner == k
            ids[mask] = np.searchsorted(cdf, u[mask], side="right")
        tokens = self.words[np.minimum(ids, len(self.words) - 1)].tolist()
        out = []
        start = 0
        for t, end in zip(title_len.tolist(), ends.tolist()):
            title = " ".join(tokens[start:start + t])
            desc = " ".join(tokens[start + t:end])
            out.append((title.capitalize(), desc.capitalize() + "."))
            start = end
        return out


def write_agnews_csv(path: Path, model: ClassModel, seed: int, n_rows: int) -> dict:
    """Write a balanced, duplicate-free AGNews-format CSV.

    Returns {(title, description): class name} for every row, which the
    endpoint uses to answer classification queries and the checks use to
    tell original demonstrations from synthetic ones.
    """
    rng = rng_for(seed, "dataset", n_rows)
    labels = rng.permutation(np.arange(n_rows) % len(CLASSES))
    rows = model.records(rng, labels)
    seen: dict[tuple[str, str], str] = {}
    for i, row in enumerate(rows):
        while row in seen:  # astronomically rare; redraw keeps rows distinct
            row = model.records(rng, labels[i:i + 1])[0]
            rows[i] = row
        seen[row] = CLASSES[labels[i]]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for (title, desc), k in zip(rows, labels.tolist()):
            writer.writerow([k + 1, title, desc])
    return seen
