"""In-context-learning evaluation harness.

Builds classification prompts (0, 2, or 4 demonstrations, fixed per run),
queries a backend once per test record, and parses the first recognizable
class label out of each response. Responses with no readable label are
scored incorrect and counted separately. Queries fan out over a thread
pool of the backend's max_concurrent workers; answers are collected in
record order, so the report is deterministic.
"""
from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..corpus import _LABEL_ALIASES, LABELS, ClassLabel, Corpus, NewsRecord, normalize_label
from ..rngutil import make_rng, subseed
from ..synth.backends import BackendSpec
from ..synth.prompts import build_classification_prompt
from .report import EvalReport, evaluate

VALID_SHOTS = (0, 2, 4)

# Alias alternation, longest first so the earliest match position wins with
# the longest spelling available there.
_LABEL_SCAN_RE = re.compile(
    r"\b(" + "|".join(map(re.escape, sorted(_LABEL_ALIASES, key=len, reverse=True))) + r")\b",
    re.IGNORECASE,
)

# Label-only answers need very little room; sampling is pinned down.
_QUERY_TEMPERATURE = 0.0
_QUERY_TOP_P = 1.0
_QUERY_MAX_TOKENS = 16


@dataclass(frozen=True)
class IclConfig:
    shots: int
    demo_source: str = "Original"      # which corpus supplies demonstrations
    backend: BackendSpec = BackendSpec()
    seed: int = 0

    def __post_init__(self):
        if self.shots not in VALID_SHOTS:
            raise ValueError(f"shots must be one of {VALID_SHOTS}, got {self.shots}")
        if self.demo_source not in ("Original", "Synthetic"):
            raise ValueError("demo_source must be 'Original' or 'Synthetic'")


def select_icl_demos(config: IclConfig, demo_corpus: Corpus) -> list[NewsRecord]:
    """Seed-deterministic demonstration picks, fixed for the whole run:
    one per class for 4-shot, two distinct classes for 2-shot."""
    if config.shots == 0:
        return []
    rng = make_rng(subseed(config.seed, "icl-demos", config.shots))
    if config.shots == 4:
        demos = []
        for label in LABELS:
            pool = demo_corpus.by_class(label)
            if not pool:
                raise ValueError(f"class {label.display}: no demo records available")
            demos.append(pool[int(rng.integers(0, len(pool)))])
        return demos
    # 2-shot: two distinct seed-chosen classes.
    class_picks = rng.choice(4, size=2, replace=False)
    demos = []
    for ci in class_picks:
        label = LABELS[int(ci)]
        pool = demo_corpus.by_class(label)
        if not pool:
            raise ValueError(f"class {label.display}: no demo records available")
        demos.append(pool[int(rng.integers(0, len(pool)))])
    return demos


def parse_label_response(text: str) -> ClassLabel | None:
    """First recognizable class label in a response, or None."""
    m = _LABEL_SCAN_RE.search(text)
    return None if m is None else normalize_label(m.group(1))


def icl_evaluate(
    config: IclConfig,
    demo_corpus: Corpus,
    test: Corpus,
    *,
    client,
    config_fingerprint: str = "",
) -> EvalReport:
    """Accuracy of backend label predictions over the test corpus."""
    if not test.records:
        raise ValueError("cannot evaluate on an empty corpus")
    demos = select_icl_demos(config, demo_corpus)

    def ask(query: NewsRecord) -> int:
        prompt = build_classification_prompt(demos, query)
        response = client.complete(
            prompt,
            temperature=_QUERY_TEMPERATURE,
            top_p=_QUERY_TOP_P,
            max_tokens=_QUERY_MAX_TOKENS,
            seed=config.seed,
        )
        label = parse_label_response(response)
        return -1 if label is None else LABELS.index(label)

    # pool.map yields results in record order whatever order they finish in.
    with ThreadPoolExecutor(max_workers=config.backend.max_concurrent) as pool:
        predictions = np.array(list(pool.map(ask, test.records)))
    return evaluate(
        predictions,
        test,
        model_tag=f"icl-{config.shots}shot",
        train_source=config.demo_source if config.shots else "Original",
        config_fingerprint=config_fingerprint,
        n_unparseable=int(np.count_nonzero(predictions == -1)),
    )
