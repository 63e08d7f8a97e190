"""Multinomial Naive Bayes over tf-idf mass.

Class priors are empirical document frequencies. Token probabilities are
additively smoothed ratios of accumulated tf-idf mass:

    P(t | c) = (mass(t, c) + alpha) / (sum_t mass(t, c) + alpha * |V|)

so each class's token distribution sums to exactly 1. The model is a
LinearModel in log space: its weights are the log token probabilities, its
biases the log priors, and its link the softmax that turns the resulting
unnormalized log posteriors into posteriors.
"""
from __future__ import annotations

import numpy as np

from ..corpus import Corpus
from .features import TfIdfModel, transform_corpus
from .linear import LinearModel, classes_and_y


def train_mnb(train: Corpus, features: TfIdfModel, alpha: float = 1.0) -> LinearModel:
    if not train.records:
        raise ValueError("cannot train MNB on an empty corpus")
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    X = transform_corpus(features, train)
    classes, y = classes_and_y(train)
    n_classes = len(classes)
    V = features.n_features

    entry_class = np.repeat(y, np.diff(X.indptr))
    log_prior = np.empty(n_classes)
    log_prob = np.empty((n_classes, V))
    for k in range(n_classes):
        # The class's stored entries in row order, summed per column.
        mine = entry_class == k
        mass = np.bincount(X.indices[mine], weights=X.data[mine], minlength=V)
        total = mass.sum()
        log_prob[k] = np.log(mass + alpha) - np.log(total + alpha * V)
        log_prior[k] = np.log(np.count_nonzero(y == k) / len(y))
    return LinearModel(classes=classes, weights=log_prob, biases=log_prior, link=softmax)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Posterior class probabilities from log posteriors, via a stable log-sum-exp."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)
