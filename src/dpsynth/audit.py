"""Membership-inference audit.

A threshold attacker sees the classifier's confidence in the true label of
a record and guesses "member" when that confidence clears a threshold. The
audit measures how well that attacker separates training members from held
out non-members: advantage = max over thresholds of (TPR - FPR), plus a
rank-based AUC. Comparing an attack against a model trained on original
data with one trained on noised synthetic data quantifies leakage reduction.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LABELS, Corpus
from .evaluation.features import TfIdfModel, transform_corpus
from .evaluation.linear import LinearModel, probabilities
from .rngutil import sub_rng


@dataclass(frozen=True)
class MiaResult:
    advantage: float
    auc: float
    best_threshold: float
    n_members: int
    n_nonmembers: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LeakageReport:
    baseline: MiaResult
    private: MiaResult
    delta: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_json_dict(),
            "private": self.private.to_json_dict(),
            "advantage_delta": self.delta,
            "verdict": self.verdict,
        }


def _true_label_confidences(model: LinearModel, X, label_ids: np.ndarray) -> np.ndarray:
    """Probability the model's link assigns to each row's true label; labels
    the model never saw get confidence 0."""
    column = np.full(len(LABELS), -1)
    column[model.classes] = np.arange(len(model.classes))
    cols = column[label_ids]
    out = np.where(cols >= 0, probabilities(model, X)[np.arange(len(cols)), cols], 0.0)
    # guard against sigmoid round-off nudging past 1
    return np.clip(out, 0.0, 1.0)


def _distinct_and_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` in ascending order, and the 1-based rank of
    each value; tied values share the mean of their ranks. One ``np.unique``
    serves both, and asking it for counts also keeps numpy from importing
    ``numpy.ma`` to check for a mask."""
    distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return distinct, (last - (counts - 1) / 2.0)[inverse]


def collect_confidences(
    model: LinearModel,
    features: TfIdfModel,
    members: Corpus,
    nonmembers: Corpus,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced member/non-member confidence samples for one model.

    Exact (title, description) collisions across the two corpora would make
    membership ill-defined, so they abort the audit. The larger side is
    down-sampled (seed-deterministic, ingestion order preserved) so both
    sides contribute equally to the attack. Each corpus is featurized and
    scored whole, and the confidences of the kept rows are returned; a row's
    score depends on that row alone.
    """
    member_keys = {(r.title, r.description) for r in members.records}
    clash = [
        r.title for r in nonmembers.records if (r.title, r.description) in member_keys
    ]
    if clash:
        raise ValueError(
            f"{len(clash)} record(s) appear in both member and non-member sets; "
            f"first title: {clash[0]!r}"
        )

    rng = sub_rng(seed, "mia-balance")
    size = min(len(members.records), len(nonmembers.records))

    def confidences(corpus: Corpus) -> np.ndarray:
        X = transform_corpus(features, corpus)
        conf = _true_label_confidences(model, X, corpus.label_ids)
        if len(conf) > size:
            conf = conf[np.sort(rng.choice(len(conf), size=size, replace=False))]
        return conf

    return confidences(members), confidences(nonmembers)


def threshold_attack(members, nonmembers) -> MiaResult:
    """Best threshold attacker over two arrays of confidences.

    Every distinct confidence is tried as a threshold (guess member when
    confidence >= threshold); one sort per side gives every threshold's TPR
    and FPR by binary search. Advantage is the best TPR - FPR; ties on
    advantage resolve to the smallest threshold. AUC is the Mann-Whitney
    statistic computed from midranks, so heavy ties are handled exactly.
    """
    member_conf = np.asarray(members, dtype=np.float64)
    nonmember_conf = np.asarray(nonmembers, dtype=np.float64)
    if member_conf.size == 0 or nonmember_conf.size == 0:
        raise ValueError("need at least one member and one non-member confidence")

    n_m = member_conf.size
    n_n = nonmember_conf.size
    combined = np.concatenate([member_conf, nonmember_conf])
    thresholds, ranks = _distinct_and_ranks(combined)
    # Values >= theta are those at or after theta's left insertion point.
    tpr = (n_m - np.searchsorted(np.sort(member_conf), thresholds, side="left")) / n_m
    fpr = (n_n - np.searchsorted(np.sort(nonmember_conf), thresholds, side="left")) / n_n
    advantages = tpr - fpr
    best = int(np.argmax(advantages))  # first maximum: the smallest threshold
    best_adv = float(advantages[best])
    best_threshold = float(thresholds[best])

    u_stat = float(ranks[:n_m].sum()) - n_m * (n_m + 1) / 2.0
    auc = u_stat / (n_m * n_n)

    return MiaResult(
        advantage=best_adv,
        auc=auc,
        best_threshold=best_threshold,
        n_members=int(n_m),
        n_nonmembers=int(n_n),
    )


def compare_leakage(baseline: MiaResult, private: MiaResult) -> LeakageReport:
    """Advantage drop when the original-data model is replaced by the
    private one. Positive delta means the private pipeline leaked less."""
    delta = baseline.advantage - private.advantage
    verdict = "reduced-leakage" if delta > 0 else "no-reduction"
    return LeakageReport(baseline=baseline, private=private, delta=delta, verdict=verdict)
