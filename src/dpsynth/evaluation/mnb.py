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
    mass = X.class_totals(train.label_ids)[classes]
    log_prob = np.log(mass + alpha) - np.log(mass.sum(axis=1, keepdims=True)
                                             + alpha * features.n_features)
    log_prior = np.log(np.bincount(y) / len(y))
    return LinearModel(classes=classes, weights=log_prob, biases=log_prior, link=softmax)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Posterior class probabilities from log posteriors, via a stable log-sum-exp."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)
