"""Synthetic corpus generation, backends, prompts, and reconciliation."""
from .backends import (
    BackendSpec,
    HttpClient,
    MockClient,
    ResponseCache,
    make_backend,
    resolve_cache_dir,
)
from .generate import (
    GenerationConfig,
    generate_batch,
    parse_synth_records,
    run_generation,
    select_demos,
)
from .mock import mock_original_corpus
from .prompts import (
    PROMPT_LABEL,
    build_classification_prompt,
    build_generation_prompt,
    render_demo,
)
from .reconcile import count_vocab_tokens, reconcile_corpus

__all__ = [
    "BackendSpec",
    "GenerationConfig",
    "HttpClient",
    "MockClient",
    "PROMPT_LABEL",
    "ResponseCache",
    "build_classification_prompt",
    "build_generation_prompt",
    "count_vocab_tokens",
    "generate_batch",
    "make_backend",
    "mock_original_corpus",
    "parse_synth_records",
    "reconcile_corpus",
    "render_demo",
    "resolve_cache_dir",
    "run_generation",
    "select_demos",
]
