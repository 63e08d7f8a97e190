"""One-vs-rest linear SVM: the L2-regularised squared hinge, solved by Newton-CG.

Per class k the primal objective is LIBLINEAR's L2-loss SVM (Fan et al. 2008),

    f_k(w) = 1/2 ||w||^2 + C * sum_i max(0, 1 - y_ik * w . x~_i)^2,

where x~_i is the tf-idf row plus one always-on bias coordinate (so the bias
is regularised like any other weight) and y_ik is +1 for class k, -1
otherwise. On the active set I = {i : y_ik * w . x~_i < 1} the gradient is
w + 2C X~_I^T (X~_I w - y_I) and the generalised Hessian I + 2C X~_I^T X~_I
(Keerthi & DeCoste 2005). All class columns are solved at once: each Newton
step runs conjugate gradients on Hessian-vector products X~^T (A * X~ V),
with A the active-set mask, so X~^T X~ is never formed; a backtracking line
search then picks each column's step. A solve stops on a certificate: every
column's gradient norm is at most GRAD_RTOL times its value at w = 0.
Reaching MAX_NEWTON_STEPS first raises RuntimeError.

The solve is deterministic; the seed only draws the validation split. Model
selection tries the C grid on that held-out slice (ties prefer the smaller
C), then refits on the full training set. The result is a LinearModel whose
link squashes each margin through the logistic and normalises across
classes, so the audit reads class probabilities off any SVM.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..corpus import Corpus
from ..rngutil import make_rng, subseed
from .features import TfIdfModel, transform_corpus
from .linear import LinearModel, classes_and_y

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_C_GRID = (0.1, 1.0, 10.0)
DEFAULT_VAL_FRACTION = 0.30

GRAD_RTOL = 1e-6          # stop when ||grad|| <= GRAD_RTOL * ||grad at w = 0||
MAX_NEWTON_STEPS = 50
MAX_CG_STEPS = 200        # per Newton step; an early CG stop is still a descent direction
_ARMIJO = 0.01            # sufficient-decrease fraction of the line search
_MAX_HALVINGS = 30


def _objective(W: np.ndarray, Z: np.ndarray, Y: np.ndarray, c_value: float) -> np.ndarray:
    """f_k for every column k, given the scores Z = X~ W."""
    slack = np.maximum(0.0, 1.0 - Y * Z)
    return 0.5 * np.einsum("ij,ij->j", W, W) + c_value * np.einsum("ij,ij->j", slack, slack)


def _newton_direction(Xb: sparse.csr_matrix, XbT: sparse.csr_matrix, mask: np.ndarray,
                      G: np.ndarray, c_value: float, tol: np.ndarray) -> np.ndarray:
    """Conjugate gradients on (I + 2C X~^T A X~) D = -G, column by column.

    Columns share every matrix product but keep their own CG scalars; a
    column stops once its residual norm is at most ``tol``.
    """
    D = np.zeros_like(G)
    R = -G
    P = R.copy()
    rr = np.einsum("ij,ij->j", R, R)
    for _ in range(MAX_CG_STEPS):
        live = rr > tol * tol
        if not live.any():
            break
        HP = P + 2.0 * c_value * (XbT @ (mask * (Xb @ P)))
        alpha = np.zeros_like(rr)
        alpha[live] = rr[live] / np.einsum("ij,ij->j", P[:, live], HP[:, live])
        D += alpha * P
        R -= alpha * HP
        rr_next = np.einsum("ij,ij->j", R, R)
        beta = np.zeros_like(rr)
        beta[live] = rr_next[live] / rr[live]
        P = R + beta * P
        rr = rr_next
    return D


def _fit_ovr(X: sparse.csr_matrix, y: np.ndarray, n_classes: int,
             c_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights (n_classes, V) and biases (n_classes,)."""
    from scipy import sparse
    n = X.shape[0]
    Xb = sparse.hstack([X, np.ones((n, 1))], format="csr")
    XbT = Xb.T.tocsr()
    Y = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)
    W = np.zeros((Xb.shape[1], n_classes))
    Z = np.zeros_like(Y)
    g0 = None
    for _ in range(MAX_NEWTON_STEPS + 1):
        mask = (Y * Z < 1.0).astype(np.float64)
        G = W + 2.0 * c_value * (XbT @ (mask * (Z - Y)))
        gnorm = np.linalg.norm(G, axis=0)
        if g0 is None:
            g0 = gnorm
        rel = np.divide(gnorm, g0, out=np.zeros_like(gnorm), where=g0 > 0)
        todo = rel > GRAD_RTOL
        if not todo.any():
            return W[:-1].T.copy(), W[-1].copy()
        # Converged columns get a zero direction and stay where they are.
        G = G * todo
        D = _newton_direction(Xb, XbT, mask, G, c_value,
                              tol=np.minimum(0.1, np.sqrt(rel)) * gnorm)
        XD = Xb @ D
        f0 = _objective(W, Z, Y, c_value)
        slope = np.einsum("ij,ij->j", G, D)
        t = np.ones(n_classes)
        for _ in range(_MAX_HALVINGS):
            f_t = _objective(W + t * D, Z + t * XD, Y, c_value)
            short = f_t > f0 + _ARMIJO * t * slope
            if not short.any():
                break
            t[short] *= 0.5
        W = W + t * D
        Z = Xb @ W
    raise RuntimeError(
        f"Newton-CG stopped after {MAX_NEWTON_STEPS} steps at C={c_value} with relative "
        f"gradient norms {rel.tolist()} (tolerance {GRAD_RTOL})"
    )


def _split_validation(y: np.ndarray, n_classes: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class holdout of DEFAULT_VAL_FRACTION; returns (train_idx, val_idx)."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for k in range(n_classes):
        rows = np.flatnonzero(y == k)
        perm = rng.permutation(len(rows))
        n_val = int(np.floor(len(rows) * DEFAULT_VAL_FRACTION))
        if len(rows) > 1:
            n_val = min(max(n_val, 1), len(rows) - 1)
        else:
            n_val = 0
        val_idx.extend(rows[perm[:n_val]])
        train_idx.extend(rows[perm[n_val:]])
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(val_idx))


def train_svm(
    train: Corpus,
    features: TfIdfModel,
    c_grid=DEFAULT_C_GRID,
    seed: int = 0,
) -> LinearModel:
    """Grid-selected one-vs-rest linear SVM.

    Candidate C values are tried in ascending order on a seed-deterministic
    validation split; validation-accuracy ties keep the smaller C. The
    winner is refit on the full training corpus.
    """
    if not train.records:
        raise ValueError("cannot train an SVM on an empty corpus")
    classes, y = classes_and_y(train)
    if len(classes) < 2:
        raise ValueError("SVM training needs at least two classes")
    c_grid = tuple(sorted(float(c) for c in c_grid))
    if not c_grid or any(c <= 0 for c in c_grid):
        raise ValueError("C grid must hold positive values")

    # Newton-CG makes many products per fit, and scipy's CSR kernels are
    # about 10x faster at them than bincount; no other model loads scipy.
    from scipy import sparse
    tfidf = transform_corpus(features, train)
    X = sparse.csr_matrix((tfidf.data, tfidf.indices, tfidf.indptr), shape=tfidf.shape)
    n_classes = len(classes)

    best_c = c_grid[0]
    best_acc = -1.0
    if len(c_grid) > 1:
        rng = make_rng(subseed(seed, "svm-val-split"))
        tr_idx, val_idx = _split_validation(y, n_classes, rng)
        X_tr, y_tr = X[tr_idx], y[tr_idx]
        X_val, y_val = X[val_idx], y[val_idx]
        for c_value in c_grid:  # ascending, so strict > keeps the smaller C on ties
            weights, biases = _fit_ovr(X_tr, y_tr, n_classes, c_value)
            scores = X_val @ weights.T + biases
            acc = float(np.mean(np.argmax(scores, axis=1) == y_val)) if len(y_val) else 0.0
            if acc > best_acc:
                best_acc = acc
                best_c = c_value

    weights, biases = _fit_ovr(X, y, n_classes, best_c)
    return LinearModel(classes=classes, weights=weights, biases=biases,
                       link=normalized_logistic)


def normalized_logistic(margins: np.ndarray) -> np.ndarray:
    """Each margin through the logistic, normalised across classes, so a
    zero-weight model gives every class the same probability."""
    squashed = _logistic(margins)
    return squashed / squashed.sum(axis=1, keepdims=True)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), computed from exp(-|x|) so no margin overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
