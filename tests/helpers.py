"""Shared fixtures and independent oracles for the test suite.

The oracles here re-derive expected results by a different route than the
library (direct products instead of log-space sums, exhaustive sweeps
instead of sorted single passes) so agreement is evidence, not tautology.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from dpsynth.corpus import (
    LABELS,
    ClassLabel,
    Corpus,
    NewsRecord,
    tokenize,
)
from dpsynth.dp import Mechanism, noise_scale, sample_gaussian, sample_laplace

# ---------------------------------------------------------------- builders

def rec(title: str, desc: str, label: ClassLabel) -> NewsRecord:
    return NewsRecord(title=title, description=desc, label=label)


def corp(*records: NewsRecord) -> Corpus:
    return Corpus(records=tuple(records))


def balanced_corpus(per_class: int, vocab: list[str], rng: np.random.Generator) -> Corpus:
    """Random balanced corpus over a word list; every class non-empty."""
    records = []
    for label in LABELS:
        for _ in range(per_class):
            n_title = int(rng.integers(1, 4))
            n_desc = int(rng.integers(2, 9))
            title = " ".join(str(rng.choice(vocab)) for _ in range(n_title))
            desc = " ".join(str(rng.choice(vocab)) for _ in range(n_desc))
            records.append(rec(title, desc, label))
    return corp(*records)


class ScriptedClient:
    """Backend stand-in that replays queued responses and records prompts."""

    kind = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts: list[str] = []
        self.calls: list[dict] = []
        self.stats = {"mock_calls": 0, "http_requests": 0, "cache_hits": 0}

    def complete(self, prompt: str, *, temperature: float, top_p: float,
                 max_tokens: int, seed: int) -> str:
        self.prompts.append(prompt)
        self.calls.append({
            "temperature": temperature,
            "top_p": top_p,
            "max_tokens": max_tokens,
            "seed": seed,
        })
        self.stats["mock_calls"] += 1
        if not self.responses:
            raise AssertionError("ScriptedClient ran out of responses")
        if len(self.responses) == 1:
            return self.responses[0]
        return self.responses.pop(0)


# Demonstration records used by the golden prompt files (the published
# backslash glitches are part of the source text and must survive).
GENERATION_DEMOS = (
    rec("Wall St. Bears Claw Back Into the Black (Reuters)",
        "Reuters - Short-sellers, Wall Street's dwindling\\band of ultra-cynics, "
        "are seeing green again.", ClassLabel.SCITECH),
    rec("Singh Leads, but Leonard Is Following",
        "Avoiding the late trouble that knocked other contenders off track, "
        "Vijay Singh held a one-stroke lead over Justin Leonard heading into "
        "the final round of the P.G.A. Championship.", ClassLabel.SPORTS),
    rec("Two visions of Iraq struggle to take hold",
        "Fighting in Najaf threatened to undermine a conference to choose a "
        "national assembly.", ClassLabel.WORLD),
    rec("Dollar Falls to Fresh Low Vs Euro (Reuters)",
        "Reuters - The dollar fell to a fresh four-week low\\versus the euro "
        "on Monday after a widening of the U.S. trade\\gap to record levels "
        "raised worries about capital inflows in\\the United States and a "
        "possible slowdown in the economy.", ClassLabel.BUSINESS),
)

ICL_DEMOS = (
    rec("Breakthrough in Renewable Energy Technology",
        "Innovative new technology in renewable energy could lead to more "
        "efficient solar panels and wind turbines.", ClassLabel.SCITECH),
    rec("College Basketball Tournament Kicks Off",
        "The much-anticipated college basketball tournament has begun, with "
        "teams vying for the championship title.", ClassLabel.SPORTS),
    rec("Cultural Heritage Sites Under Threat",
        "Several cultural heritage sites around the world are facing threats "
        "due to climate change and urban development.", ClassLabel.WORLD),
    rec("Tech Stocks Rally After Positive Earnings",
        "Tech stocks saw a significant rally today following a series of "
        "positive earnings reports from major companies.", ClassLabel.BUSINESS),
)

ICL_QUERY = GENERATION_DEMOS[0]


# ---------------------------------------------------------------- oracles

def mnb_oracle_scores(X: np.ndarray, y: np.ndarray, x_test: np.ndarray,
                      alpha: float, n_classes: int) -> list[float]:
    """Direct Bayes enumeration: prior times product of P(t|c)**x_t.

    Plain products and powers, no log-space. X is a dense (n_docs, n_tokens)
    nonnegative matrix, y integer class ids 0..n_classes-1.
    """
    n = X.shape[0]
    scores = []
    v = X.shape[1]
    for c in range(n_classes):
        rows = X[y == c]
        if rows.shape[0] == 0:
            scores.append(None)
            continue
        prior = rows.shape[0] / n
        mass = rows.sum(axis=0)
        total = float(mass.sum())
        score = prior
        for t in range(v):
            p = (float(mass[t]) + alpha) / (total + alpha * v)
            score *= p ** float(x_test[t])
        scores.append(score)
    return scores


def mnb_oracle_predict(X: np.ndarray, y: np.ndarray, x_test: np.ndarray,
                       alpha: float, n_classes: int,
                       rel_tol: float = 1e-9) -> list[int]:
    """Class ids whose oracle score is within rel_tol of the maximum.

    Returns the full near-tie set; the implementation's argmax must land in
    it (float associativity can legitimately flip exact ties).
    """
    scores = mnb_oracle_scores(X, y, x_test, alpha, n_classes)
    present = [(c, s) for c, s in enumerate(scores) if s is not None]
    best = max(s for _, s in present)
    return [c for c, s in present if s >= best * (1 - rel_tol)]


def threshold_oracle(members, nonmembers) -> tuple[float, float, float]:
    """Exhaustive threshold sweep plus pairwise AUC counting.

    Returns (advantage, best_threshold, auc). Every observed value and one
    value above the maximum are tried as thresholds.
    """
    members = [float(m) for m in members]
    nonmembers = [float(n) for n in nonmembers]
    candidates = sorted(set(members) | set(nonmembers))
    candidates.append(max(candidates) + 1.0)
    best_adv, best_theta = -math.inf, None
    for theta in candidates:
        tpr = sum(1 for m in members if m >= theta) / len(members)
        fpr = sum(1 for n in nonmembers if n >= theta) / len(nonmembers)
        if tpr - fpr > best_adv:
            best_adv, best_theta = tpr - fpr, theta

    wins = 0.0
    for m in members:
        for n in nonmembers:
            if m > n:
                wins += 1.0
            elif m == n:
                wins += 0.5
    auc = wins / (len(members) * len(nonmembers))
    return best_adv, best_theta, auc


def class_counts_restricted(corpus: Corpus, vocab_by_class: dict) -> dict:
    """Occurrence counts of the given per-class vocabularies, recounted
    directly from the text."""
    out = {}
    for label in LABELS:
        counter: Counter = Counter()
        for record in corpus.records:
            if record.label is label:
                counter.update(tokenize(record.title) + tokenize(record.description))
        vocab = vocab_by_class.get(label, {})
        out[label] = {token: counter.get(token, 0) for token in vocab}
    return out


def laplace_pdf(z: float, mu: float, b: float) -> float:
    return math.exp(-abs(z - mu) / b) / (2 * b)


def vector_releases(histogram, params, sensitivity, rng, n: int):
    """``n`` releases of ``histogram`` from one draw of n x cells noise values.

    Returns the cells, as (label, token) in ``perturb_histogram``'s order,
    and the (n, cells) array of released counts: the true counts plus the
    noise, rounded half to even and clamped at 0. Equal, bit for bit, to n
    sequential ``perturb_histogram`` calls on ``rng``."""
    cells = [(label, token) for label in LABELS
             for token in sorted(histogram.per_class.get(label, {}))]
    true = np.array([histogram.per_class[label][token] for label, token in cells], dtype=float)
    draw = sample_laplace if params.mechanism is Mechanism.LAPLACE else sample_gaussian
    noise = draw(rng, noise_scale(params, sensitivity), size=n * len(cells))
    return cells, np.maximum(0.0, np.rint(true + noise.reshape(n, len(cells)))).astype(np.int64)
