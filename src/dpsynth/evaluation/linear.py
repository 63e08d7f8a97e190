"""The one classifier type both trainers return: a linear score per class.

MNB's weights are its log token probabilities and its biases its log priors;
the SVM's are its one-vs-rest hyperplanes. Either way a row's scores are
``X @ W.T + b`` and its prediction is their argmax (ties go to the earlier
class, hence to LABELS order). Classes and predictions are label ids:
positions in LABELS, as ``Corpus.label_ids`` gives them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import LABELS, Corpus


@dataclass(frozen=True)
class LinearModel:
    classes: np.ndarray     # label ids seen in training, ascending
    weights: np.ndarray     # (n_classes, V)
    biases: np.ndarray      # (n_classes,)


def classes_and_y(train: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The label ids present in ``train``, ascending, and each record's
    row among them."""
    ids = train.label_ids
    classes = np.flatnonzero(np.bincount(ids, minlength=len(LABELS)))
    return classes, np.searchsorted(classes, ids)


def scores(model: LinearModel, X) -> np.ndarray:
    """One row of class scores per row of ``X``."""
    return X @ model.weights.T + model.biases


def predict(model: LinearModel, X) -> np.ndarray:
    """The label id of each row's highest score."""
    return model.classes[np.argmax(scores(model, X), axis=1)]
