"""In-context-learning evaluation harness.

Builds classification prompts (0, 2, or 4 demonstrations, picked once per
run by ``synth.generate.select_demos``), queries a backend once per test
record, and parses the first recognizable class label out of each response.
Responses with no readable label are scored incorrect and counted
separately. Queries fan out over a pool of ``workers`` threads (the
backend's max_concurrent); answers are collected in record order, so the
report is deterministic.
"""
from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..corpus import _LABEL_ALIASES, LABELS, ClassLabel, Corpus, NewsRecord, normalize_label
from ..synth.generate import select_demos
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


def parse_label_response(text: str) -> ClassLabel | None:
    """First recognizable class label in a response, or None."""
    m = _LABEL_SCAN_RE.search(text)
    return None if m is None else normalize_label(m.group(1))


def icl_evaluate(
    shots: int,
    demo_corpus: Corpus,
    test: Corpus,
    *,
    client,
    seed: int,
    workers: int = 1,
    demo_source: str = "Original",
    config_fingerprint: str = "",
) -> EvalReport:
    """Accuracy of backend label predictions over the test corpus.

    ``seed`` picks the run's ``select_demos(demo_corpus, shots, seed)`` and
    is sent with every query."""
    if not test.records:
        raise ValueError("cannot evaluate on an empty corpus")
    demos = select_demos(demo_corpus, shots, seed)

    def ask(query: NewsRecord) -> int:
        prompt = build_classification_prompt(demos, query)
        response = client.complete(
            prompt,
            temperature=_QUERY_TEMPERATURE,
            top_p=_QUERY_TOP_P,
            max_tokens=_QUERY_MAX_TOKENS,
            seed=seed,
        )
        label = parse_label_response(response)
        return -1 if label is None else LABELS.index(label)

    # pool.map yields results in record order whatever order they finish in.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        predictions = np.array(list(pool.map(ask, test.records)))
    return evaluate(
        predictions,
        test,
        model_tag=f"icl-{shots}shot",
        train_source=demo_source if shots else "Original",
        config_fingerprint=config_fingerprint,
        n_unparseable=int(np.count_nonzero(predictions == -1)),
    )
