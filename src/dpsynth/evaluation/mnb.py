"""Multinomial Naive Bayes over tf-idf mass.

Class priors are empirical document frequencies. Token probabilities are
additively smoothed ratios of accumulated tf-idf mass:

    P(t | c) = (mass(t, c) + alpha) / (sum_t mass(t, c) + alpha * |V|)

so each class's token distribution sums to exactly 1. Prediction and the
posterior are computed in log space; ties break toward the earlier class in
enum order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import LABELS, ClassLabel, Corpus
from ..errors import EmptyCorpus
from .features import TfIdfModel, transform_corpus


@dataclass(frozen=True)
class MnbModel:
    classes: tuple[ClassLabel, ...]          # classes present in training, enum order
    class_log_prior: np.ndarray              # (n_classes,)
    token_log_prob: np.ndarray               # (n_classes, V), rows on the simplex
    alpha: float


def train_mnb(train: Corpus, features: TfIdfModel, alpha: float = 1.0) -> MnbModel:
    if not train.records:
        raise EmptyCorpus("cannot train MNB on an empty corpus")
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    X = transform_corpus(features, train)
    labels = [rec.label for rec in train.records]
    classes = tuple(label for label in LABELS if label in set(labels))
    n_classes = len(classes)
    V = features.n_features

    log_prior = np.empty(n_classes)
    log_prob = np.empty((n_classes, V))
    y = np.array([classes.index(lab) for lab in labels])
    for k in range(n_classes):
        rows = np.flatnonzero(y == k)
        mass = np.asarray(X[rows].sum(axis=0)).ravel()
        total = mass.sum()
        log_prob[k] = np.log(mass + alpha) - np.log(total + alpha * V)
        log_prior[k] = np.log(len(rows) / len(labels))
    return MnbModel(
        classes=classes, class_log_prior=log_prior, token_log_prob=log_prob, alpha=alpha
    )


def mnb_scores(model: MnbModel, X: sparse.csr_matrix) -> np.ndarray:
    """Unnormalized log posteriors, one row per input row."""
    return X @ model.token_log_prob.T + model.class_log_prior


def mnb_predict(model: MnbModel, X: sparse.csr_matrix) -> list[ClassLabel]:
    scores = mnb_scores(model, X)
    return [model.classes[k] for k in np.argmax(scores, axis=1)]


def mnb_posterior(model: MnbModel, X: sparse.csr_matrix) -> np.ndarray:
    """Posterior class probabilities via a stable log-sum-exp."""
    scores = mnb_scores(model, X)
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)
