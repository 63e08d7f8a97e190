"""Empirical audits of the release (ROADMAP item 1).

Each audit runs the release on two neighbouring raw corpora, which differ in
one World record swapped for a canary, and guesses from each output which
side it came from. Clopper-Pearson upper bounds on the guess's false
positive and false negative rates give a lower bound on the epsilon any
mechanism with that output could have (Jagielski, Ullman & Oprea 2020):

    eps_lb = ln((1 - delta - FNR_ub) / FPR_ub).

A correct release keeps eps_lb at or below its stated epsilon. N, the seeds,
the canaries and the thresholds below were fixed before the first run.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import beta

from dpsynth.corpus import ClassLabel, Corpus, NewsRecord, tokenize
from dpsynth.dp import (
    DEFAULT_SENSITIVITY,
    Mechanism,
    PrivacyParams,
    TokenHistogram,
    build_histogram,
    perturb_histogram,
)
from dpsynth.rngutil import sub_rng
from dpsynth.synth.mock import mock_original_corpus
from dpsynth.synth.reconcile import reconcile_corpus

from helpers import vector_releases

AUDIT_SEED = 2020
VOCAB_LIMIT = 20
CONFIDENCE = 0.95

# The histogram canary: one document of 5000 copies of a token that is in
# World's top-K on both sides.
CELL_TOKEN = "government"
CELL_CANARY = NewsRecord(CELL_TOKEN, " ".join([CELL_TOKEN] * 4999), ClassLabel.WORLD)
N_HISTOGRAM = 1000

# The corpus canary: one ordinary-length record with a token no other record has.
RARE_TOKEN = "zqxcanary"
RARE_CANARY = NewsRecord(f"{RARE_TOKEN.capitalize()} border talks",
                         f"The {RARE_TOKEN} minister announced a summit.", ClassLabel.WORLD)
N_CORPUS = 40

# The out-of-key canary: one record whose KEY_COPIES copies of a token no other
# record has put that token into World's top-K on its side only.
KEY_TOKEN = "zqxkey"
KEY_COPIES = 20
KEY_CANARY = NewsRecord(f"{KEY_TOKEN.capitalize()} border talks",
                        " ".join([KEY_TOKEN] * (KEY_COPIES - 1)), ClassLabel.WORLD)
N_KEY = 10_000


def neighbours(canary: NewsRecord, avoid: str) -> tuple[Corpus, Corpus]:
    """(base, canary side) of the mock corpus: the first World record that
    does not hold ``avoid`` is swapped for ``canary``."""
    base = mock_original_corpus(25, seed=3)
    swap = next(i for i, r in enumerate(base.records) if r.label is ClassLabel.WORLD
                and avoid not in tokenize(f"{r.title} {r.description}"))
    records = list(base.records)
    records[swap] = canary
    return base, Corpus(tuple(records))


def cp_upper(errors: int, n: int) -> float:
    """One-sided Clopper-Pearson upper bound on a rate seen as errors / n."""
    return 1.0 if errors == n else float(beta.ppf(CONFIDENCE, errors + 1, n - errors))


def epsilon_lower_bound(false_pos: int, false_neg: int, n: int, delta: float) -> float:
    """eps_lb from a distinguisher's errors on n releases per side."""
    caught = 1.0 - delta - cp_upper(false_neg, n)
    return math.log(caught / cp_upper(false_pos, n)) if caught > 0 else 0.0


def world_cell(corpus: Corpus) -> int:
    return build_histogram(corpus, VOCAB_LIMIT).per_class[ClassLabel.WORLD][CELL_TOKEN]


def test_canaries_are_one_record_swaps():
    for canary, avoid in ((CELL_CANARY, CELL_TOKEN), (RARE_CANARY, RARE_TOKEN),
                          (KEY_CANARY, KEY_TOKEN)):
        base, side = neighbours(canary, avoid)
        assert len(base.records) == len(side.records) == 100
        assert sum(a != b for a, b in zip(base.records, side.records)) == 1
    base, side = neighbours(CELL_CANARY, CELL_TOKEN)
    assert (world_cell(base), world_cell(side)) == (19, 5019)
    assert len(tokenize(f"{CELL_CANARY.title} {CELL_CANARY.description}")) == 5000
    base, side = neighbours(RARE_CANARY, RARE_TOKEN)
    assert not any(RARE_TOKEN in tokenize(f"{r.title} {r.description}") for r in base.records)
    assert RARE_TOKEN not in build_histogram(side, VOCAB_LIMIT).per_class[ClassLabel.WORLD]
    base, side = neighbours(KEY_CANARY, KEY_TOKEN)
    assert not any(KEY_TOKEN in tokenize(f"{r.title} {r.description}") for r in base.records)
    assert KEY_TOKEN not in build_histogram(base, VOCAB_LIMIT).per_class[ClassLabel.WORLD]
    assert build_histogram(side, VOCAB_LIMIT).per_class[ClassLabel.WORLD][KEY_TOKEN] == KEY_COPIES


def test_clopper_pearson_bound():
    # No errors in n trials: the bound solves (1 - p)^n = 1 - CONFIDENCE.
    assert cp_upper(0, 1000) == pytest.approx(1 - 0.05 ** (1 / 1000), rel=1e-9)
    assert cp_upper(40, 40) == 1.0
    assert epsilon_lower_bound(0, 0, 40, 0.0) == pytest.approx(2.55, abs=0.01)
    assert epsilon_lower_bound(0, 0, 1000, 0.0) == pytest.approx(5.81, abs=0.01)


PARAMS = [
    pytest.param(PrivacyParams(1.0), id="laplace-eps1"),
    pytest.param(PrivacyParams(0.5, 1e-5, Mechanism.GAUSSIAN), id="gaussian-eps0.5"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: build_histogram clips no document, so one swapped 5000-token "
    "document moves a cell by 5000 while the noise is calibrated to a sensitivity of 200"))
@pytest.mark.parametrize("params", PARAMS)
def test_histogram_canary_epsilon_lower_bound(params):
    # Cells are noised independently and the guess reads one cell, so each
    # side releases a one-cell histogram of its true count.
    base, side = neighbours(CELL_CANARY, CELL_TOKEN)
    threshold = (world_cell(base) + world_cell(side)) / 2
    guesses = {}
    for name, corpus in (("base", base), ("canary", side)):
        cell = TokenHistogram({ClassLabel.WORLD: {CELL_TOKEN: world_cell(corpus)}}, VOCAB_LIMIT)
        rng = sub_rng(AUDIT_SEED, "histogram", params.mechanism.value, name)
        guesses[name] = sum(
            perturb_histogram(cell, params, DEFAULT_SENSITIVITY, rng)
            .per_class[ClassLabel.WORLD][CELL_TOKEN] >= threshold
            for _ in range(N_HISTOGRAM))
    eps_lb = epsilon_lower_bound(guesses["base"], N_HISTOGRAM - guesses["canary"],
                                 N_HISTOGRAM, params.delta)
    assert eps_lb <= params.epsilon, (eps_lb, guesses)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: reconcile never touches a token outside the released key set, "
    "so a raw record's rare token reaches the synthetic corpus in every release"))
def test_corpus_canary_epsilon_lower_bound():
    params = PrivacyParams(1.0)
    guesses = {}
    for name, corpus in zip(("base", "canary"), neighbours(RARE_CANARY, RARE_TOKEN)):
        hist = build_histogram(corpus, VOCAB_LIMIT)
        hits = 0
        for release in range(N_CORPUS):
            noisy = perturb_histogram(hist, params, DEFAULT_SENSITIVITY,
                                      sub_rng(AUDIT_SEED, "corpus", name, release, "dp-noise"))
            out = reconcile_corpus(corpus, noisy,
                                   sub_rng(AUDIT_SEED, "corpus", name, release, "reconcile"))
            hits += any(RARE_TOKEN in tokenize(f"{r.title} {r.description}")
                        for r in out.records)
        guesses[name] = hits
    eps_lb = epsilon_lower_bound(guesses["base"], N_CORPUS - guesses["canary"], N_CORPUS, 0.0)
    assert eps_lb <= params.epsilon, (eps_lb, guesses)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the key set depends on the data, so a token that is in one "
    "side's top-K only has a released count on that side alone"))
@pytest.mark.parametrize("params", PARAMS)
def test_out_of_key_canary_epsilon_lower_bound(params):
    # The guess reads the canary token's released World count, 0 where the
    # release has no such key, against half its true count on the canary side.
    threshold = KEY_COPIES / 2
    guesses = {}
    for name, corpus in zip(("base", "canary"), neighbours(KEY_CANARY, KEY_TOKEN)):
        hist = build_histogram(corpus, VOCAB_LIMIT)
        cells, released = vector_releases(hist, params, DEFAULT_SENSITIVITY,
                                          sub_rng(AUDIT_SEED, "key", params.mechanism.value, name),
                                          N_KEY)
        key = (ClassLabel.WORLD, KEY_TOKEN)
        counts = released[:, cells.index(key)] if key in cells else np.zeros(N_KEY)
        guesses[name] = int((counts >= threshold).sum())
    eps_lb = epsilon_lower_bound(guesses["base"], N_KEY - guesses["canary"], N_KEY, params.delta)
    assert eps_lb <= params.epsilon, (eps_lb, guesses)
