"""TF-IDF featurization written out by hand.

idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the training documents, feature
value = raw count * idf, rows L2-normalized. The vocabulary comes from the
training corpus only, columns ordered lexicographically; unknown tokens map
to nothing, so an all-unknown record becomes the zero vector. Both the fit
and the transform read a corpus's cached token-count matrix
(``Corpus.token_counts``), so a corpus is tokenized once however many models
or splits use it. A transform is a ``corpus.CsrMatrix`` of float64 values,
which scoring and MNB training use on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus, CsrMatrix, NewsRecord


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict[str, int]  # token -> column, lexicographic
    idf: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(train: Corpus) -> TfIdfModel:
    """Learn vocabulary and idf weights from a training corpus."""
    if not train.records:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    n_docs = len(train.records)
    counts = train.token_counts
    # One stored entry per (document, token): its column's entry count is df.
    df = np.bincount(counts.indices, minlength=len(counts.tokens))
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    vocabulary = {token: j for j, token in enumerate(counts.tokens)}
    return TfIdfModel(vocabulary=vocabulary, idf=idf)


def transform(model: TfIdfModel, record: NewsRecord) -> CsrMatrix:
    """One record to a 1 x V L2-normalized tf-idf row."""
    return transform_corpus(model, Corpus((record,)))


def transform_corpus(model: TfIdfModel, corpus: Corpus) -> CsrMatrix:
    """All records to an n x V tf-idf matrix (row order = record order)."""
    counts, n = corpus.token_counts, len(corpus.records)
    to_model = np.array([model.vocabulary.get(t, -1) for t in counts.tokens],
                        dtype=np.int64)
    # Both column orders are lexicographic, so every row stays sorted.
    cols = to_model[counts.indices]
    known = cols >= 0
    cols = cols[known]
    rows = counts.row_ids()[known]
    vals = counts.data[known] * model.idf[cols]
    # Per-row sums of squares, accumulated in column order.
    vals /= np.sqrt(np.bincount(rows, weights=vals * vals, minlength=n))[rows]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return CsrMatrix(indptr, cols, vals, (n, model.n_features))
