"""Labeled news corpora: loading, label normalization, splits, and token counts.

Four-class news records (World / Sports / Business / Sci/Tech) ingested from
the classic 3-column CSV (class index, title, description) or from JSONL with
``Title`` / ``Description`` / ``Class_Label`` keys. Token counts computed here
feed the histograms the dp module releases and the synth module reconciles
against, so the tokenizer is versioned and fingerprinted.
"""
from __future__ import annotations

import csv
import json
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count
from pathlib import Path

import numpy as np

from .rngutil import make_rng

# Embedded in histogram fingerprints. Bump it when tokenize()'s tokens
# change, not when its implementation does.
TOKENIZER_ID = "unigram-lower-min2-v1"


class ClassLabel(Enum):
    """The four news classes, in canonical order."""

    WORLD = "World"
    SPORTS = "Sports"
    BUSINESS = "Business"
    SCITECH = "Sci/Tech"


LABELS: tuple[ClassLabel, ...] = tuple(ClassLabel)
_LABEL_IDS = {label: k for k, label in enumerate(LABELS)}

_CSV_INDEX_TO_LABEL = {
    1: ClassLabel.WORLD,
    2: ClassLabel.SPORTS,
    3: ClassLabel.BUSINESS,
    4: ClassLabel.SCITECH,
}

_LABEL_ALIASES = {
    "world": ClassLabel.WORLD,
    "sports": ClassLabel.SPORTS,
    "business": ClassLabel.BUSINESS,
    # Spelling used inside the bundled prompt templates; accepted everywhere.
    "bussiness": ClassLabel.BUSINESS,
    "sci/tech": ClassLabel.SCITECH,
    "scitech": ClassLabel.SCITECH,
    "science/technology": ClassLabel.SCITECH,
}


def normalize_label(raw: str) -> ClassLabel:
    """Map a raw label string to a ClassLabel.

    Matching is case-insensitive and whitespace-trimmed; the alias table
    covers the display names plus common variant spellings. Raises
    ValueError for anything else.
    """
    label = _LABEL_ALIASES.get(raw.strip().lower()) if isinstance(raw, str) else None
    if label is None:
        raise ValueError(f"unknown class label: {str(raw)!r}")
    return label


@dataclass(frozen=True)
class NewsRecord:
    """One labeled news item: the one check on a record's text, whichever
    source it came from. Title and description must be strings that survive
    trimming and have a UTF-8 form (a JSON escape can carry a lone
    surrogate, which has none)."""

    title: str
    description: str
    label: ClassLabel

    def __post_init__(self):
        for name in ("title", "description"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
            if not value.strip():
                raise ValueError(f"empty {name}")
            if not value.isascii():  # ASCII text always has a UTF-8 form
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ValueError(f"{name} has no UTF-8 form: {exc.reason}") from None


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of records.

    ``token_counts`` and ``label_ids`` are cached on the instance, not
    fields, so equality and ``dataclasses.replace`` see only the records."""

    records: tuple[NewsRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @cached_property
    def token_counts(self) -> CsrMatrix:
        """The record x token count arrays, built on first use and kept."""
        return count_tokens(self.records)

    @cached_property
    def label_ids(self) -> np.ndarray:
        """Each record's label as its position in LABELS: the one numeric
        encoding of labels that training, scoring and counting share."""
        return np.fromiter((_LABEL_IDS[rec.label] for rec in self.records),
                           dtype=np.intp, count=len(self.records))


# ---------------------------------------------------------------- loading

def load_agnews(path: str | Path) -> Corpus:
    """Load a labeled news file into a Corpus; its suffix names the format.

    ``*.csv`` rows are (class index 1..4, title, description), no header,
    fields double-quoted with embedded quotes doubled. ``*.jsonl`` rows are
    objects with the keys Title, Description, Class_Label (extra keys
    ignored). Blank lines are skipped. Raises ValueError for any other
    suffix, and for a faulty row with its 1-based number.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".csv", ".jsonl"):
        raise ValueError(f"cannot tell the format of {path.name!r}; "
                         "name the file *.csv or *.jsonl")
    records: list[NewsRecord] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        if suffix == ".csv":
            rows, parse = csv.reader(fh), _record_from_csv_row
        else:
            # A blank line becomes "", as csv.reader makes it [].
            rows, parse = (line.strip() and line for line in fh), _record_from_jsonl_line
        for i, row in enumerate(rows, start=1):
            if not row:
                continue
            try:
                records.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None
    if not records:
        raise ValueError(f"no records in {path}")
    return Corpus(tuple(records))


def _record_from_csv_row(row: list[str]) -> NewsRecord:
    if len(row) != 3:
        raise ValueError(f"expected 3 columns, found {len(row)}")
    raw_idx, title, description = row
    try:
        label = _CSV_INDEX_TO_LABEL[int(raw_idx)]
    except (ValueError, KeyError):
        raise ValueError(f"unknown class label: {raw_idx.strip()!r}") from None
    return NewsRecord(title, description, label)


def _record_from_jsonl_line(line: str) -> NewsRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    for key in ("Title", "Description", "Class_Label"):
        if key not in obj:
            raise ValueError(f"missing key {key}")
    return NewsRecord(obj["Title"], obj["Description"], normalize_label(obj["Class_Label"]))


def save_jsonl(corpus: Corpus, path: str | Path) -> Path:
    """Write a corpus as JSONL with Title/Description/Class_Label keys."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(
                json.dumps(
                    {
                        "Title": rec.title,
                        "Description": rec.description,
                        "Class_Label": rec.label.value,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")
    return path


# ---------------------------------------------------------------- splitting

def sample_split(corpus: Corpus, n_train: int, n_test: int, seed: int) -> tuple[Corpus, Corpus]:
    """Stratified, disjoint train/test sample of the corpus.

    Each output holds exactly n/4 records per class, chosen by a seeded
    per-class permutation; selected records keep their ingestion order.
    Raises ValueError when 4 does not divide a size or a class cannot
    cover its share.
    """
    for name, n in (("n_train", n_train), ("n_test", n_test)):
        if n % 4 != 0:
            raise ValueError(f"{name}={n} is not divisible by 4")
    if n_train <= 0 or n_test <= 0:
        raise ValueError("split sizes must be positive")
    per_train = n_train // 4
    need = per_train + n_test // 4

    rng = make_rng(seed)
    chosen = []
    for k, label in enumerate(LABELS):
        pool = np.flatnonzero(corpus.label_ids == k)
        if len(pool) < need:
            raise ValueError(
                f"class {label.value}: need {need} records, have {len(pool)}"
            )
        chosen.append(pool[rng.permutation(len(pool))[:need]])

    def subset(part: slice) -> Corpus:
        rows = sorted(i for pick in chosen for i in pick[part].tolist())
        return Corpus(tuple(corpus.records[i] for i in rows))

    return subset(slice(per_train)), subset(slice(per_train, None))


# ---------------------------------------------------------------- tokens

# Whole alphanumeric runs of length >= 2: a shorter run never matches and a
# longer one is never matched in part, so no filtering pass is needed.
_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)
# Every non-alphanumeric ASCII character to a space; fixed, so it never grows.
_ASCII_SPACES = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2.

    Lowercased ASCII text is split by one translate to spaces, other text by
    ``_TOKEN_RE``; both give the same tokens, because ``str.isalnum`` is the
    class ``[^\\W_]`` on every code point and no alphanumeric is a space.
    Idempotent on its own space-joined output, which is what lets corpus
    reconciliation re-render edited records without disturbing counts.
    """
    text = text.lower()
    if not text.isascii():
        return _TOKEN_RE.findall(text)
    words = text.translate(_ASCII_SPACES).split()
    if words and min(map(len, words)) < 2:
        return [w for w in words if len(w) >= 2]
    return words


@dataclass(frozen=True)
class CsrMatrix:
    """A numpy matrix as the three arrays of a CSR matrix.

    Row i's sorted columns are ``indices[indptr[i]:indptr[i + 1]]`` and its
    values the same slice of ``data``. Token counts (``count_tokens``) are
    int32 and carry ``tokens``: column j counts ``tokens[j]``, the corpus's
    own tokens sorted lexicographically. Tf-idf features are float64 over a
    model's vocabulary and carry none.

    Every sum adds its stored entries in stored order with one
    ``np.bincount``, which is the order scipy's CSR kernels add them in, so
    a result is the same float either way. Only the SVM solver, which makes
    many products per fit, converts to scipy."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    tokens: tuple[str, ...] = ()

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def class_totals(self, label_ids: np.ndarray) -> np.ndarray:
        """Column sums per class, given each row's label id
        (``Corpus.label_ids``): one row per label in LABELS order, in the
        data's type widened to 64 bits."""
        n_cols = self.shape[1]
        cells = label_ids[self.row_ids()] * n_cols + self.indices
        totals = np.bincount(cells, weights=self.data, minlength=len(LABELS) * n_cols)
        return totals.reshape(len(LABELS), n_cols).astype(
            np.promote_types(self.data.dtype, np.int64))

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """The dense (n_rows, k) product with a dense (n_cols, k) array."""
        rows, n = self.row_ids(), self.shape[0]
        out = np.empty((n, dense.shape[1]))
        for k in range(dense.shape[1]):
            out[:, k] = np.bincount(rows, weights=self.data * dense[self.indices, k],
                                    minlength=n)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids(), self.indices] = self.data
        return out


def count_tokens(records: tuple[NewsRecord, ...]) -> CsrMatrix:
    """Tokenize every title and description once and count per record.

    Each record's distinct tokens are stored in lexicographic order under ids
    given out in order of first sight; renumbering the ids by rank at the end
    makes the columns lexicographic and leaves every row sorted."""
    ids = defaultdict(count().__next__)
    cols, data, indptr = array("i"), array("i"), array("q", [0])
    for rec in records:
        counts = Counter(tokenize(rec.title) + tokenize(rec.description))
        distinct = sorted(counts)
        cols.extend(map(ids.__getitem__, distinct))
        data.extend(map(counts.__getitem__, distinct))
        indptr.append(len(cols))

    tokens = tuple(sorted(ids))
    rank = np.empty(len(tokens), dtype=np.int32)
    rank[[ids[t] for t in tokens]] = np.arange(len(tokens), dtype=np.int32)
    return CsrMatrix(indptr=np.frombuffer(indptr, dtype=np.int64),
                     indices=rank[np.frombuffer(cols, dtype=np.int32)],
                     data=np.frombuffer(data, dtype=np.int32),
                     shape=(len(records), len(tokens)), tokens=tokens)
