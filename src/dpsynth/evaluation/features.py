"""TF-IDF featurization written out by hand.

idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the training documents, feature
value = raw count * idf, rows L2-normalized. The vocabulary comes from the
training corpus only, columns ordered lexicographically; unknown tokens map
to nothing, so an all-unknown record becomes the zero vector. Both the fit
and the transform read a corpus's cached token-count matrix
(``Corpus.token_counts``), so a corpus is tokenized once however many models
or splits use it. A transform is a ``TfIdfMatrix``: the CSR arrays and the
three operations scoring and training need, on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus, NewsRecord


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict[str, int]  # token -> column, lexicographic
    idf: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class TfIdfMatrix:
    """Records x features tf-idf values as the three arrays of a CSR matrix,
    laid out like ``corpus.TokenCounts``: row i's sorted columns are
    ``indices[indptr[i]:indptr[i + 1]]`` and its values the same slice of
    ``data``.

    Products add each row's stored products in stored order, one
    ``bincount`` per output column, which is the order scipy's CSR kernels
    add them in, so a score is the same float either way. Only the SVM
    solver, which makes many products per fit, converts to scipy."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __getitem__(self, rows) -> TfIdfMatrix:
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TfIdfMatrix(indptr, self.indices[take], self.data[take],
                           (len(rows), self.shape[1]))

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """The dense (n_rows, k) product with a dense (n_features, k) array."""
        rows, n = self._row_ids(), self.shape[0]
        out = np.empty((n, dense.shape[1]))
        for k in range(dense.shape[1]):
            out[:, k] = np.bincount(rows, weights=self.data * dense[self.indices, k],
                                    minlength=n)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_ids(), self.indices] = self.data
        return out


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


def transform(model: TfIdfModel, record: NewsRecord) -> TfIdfMatrix:
    """One record to a 1 x V L2-normalized tf-idf row."""
    return transform_corpus(model, Corpus((record,)))


def transform_corpus(model: TfIdfModel, corpus: Corpus) -> TfIdfMatrix:
    """All records to an n x V tf-idf matrix (row order = record order)."""
    counts, n = corpus.token_counts, len(corpus.records)
    to_model = np.array([model.vocabulary.get(t, -1) for t in counts.tokens],
                        dtype=np.int64)
    # Both column orders are lexicographic, so every row stays sorted.
    cols = to_model[counts.indices]
    known = cols >= 0
    cols = cols[known]
    rows = np.repeat(np.arange(n), np.diff(counts.indptr))[known]
    vals = counts.data[known] * model.idf[cols]
    # Per-row sums of squares, accumulated in column order.
    vals /= np.sqrt(np.bincount(rows, weights=vals * vals, minlength=n))[rows]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return TfIdfMatrix(indptr, cols, vals, (n, model.n_features))
