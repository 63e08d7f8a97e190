"""Synthetic corpus generation: batch requests, parsing, and quota balancing."""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from ..corpus import LABELS, ClassLabel, Corpus, NewsRecord, normalize_label
from ..rngutil import make_rng, subseed
from .prompts import build_generation_prompt


# Token cap per requested record. A mock record is about 50 tokens of JSON,
# so a batch's cap leaves about four times the room its answer needs.
TOKENS_PER_RECORD = 200


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling and loop parameters for one generation run."""

    temperature: float = 0.7
    top_p: float = 1.0
    num_shots: int = 4
    batch_size: int = 16
    total_records: int = 400

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.total_records < 4 or self.total_records % 4 != 0:
            raise ValueError("total_records must be a positive multiple of 4")
        if self.num_shots < 0:
            raise ValueError("num_shots must be >= 0")


# ---------------------------------------------------------------- parsing

class AllRecordsMalformed(ValueError):
    """A backend response yielded zero parseable records; the generation
    loop counts the call against its cap and moves on."""


_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_-]+)?\s*\n(.*?)```", re.DOTALL)


def _json_payload(text: str) -> str:
    """The response body with any fenced code block unwrapped."""
    m = _FENCE_RE.search(text)
    return (m.group(1) if m else text).strip()


def _normalize_keys(item: dict) -> dict:
    return {re.sub(r"[\s_]+", "_", str(k).strip().lower()): v for k, v in item.items()}


def _record_from_item(item) -> NewsRecord | None:
    """The item as a record with its text trimmed, or None when it is not a
    valid record."""
    if not isinstance(item, dict):
        return None
    fields = _normalize_keys(item)
    try:
        rec = NewsRecord(fields.get("title"), fields.get("description"),
                         normalize_label(fields.get("class_label")))
    except ValueError:
        return None
    return NewsRecord(rec.title.strip(), rec.description.strip(), rec.label)


def parse_synth_records(raw: str) -> tuple[list[NewsRecord], int]:
    """Records parsed from a backend response plus the dropped-item count.

    Tolerates a fenced code block, a single top-level object instead of an
    array, and case or spacing drift in the three keys. Raises
    AllRecordsMalformed when nothing survives.
    """
    payload = _json_payload(raw)
    try:
        data = json.loads(payload)
    except json.JSONDecodeError:
        raise AllRecordsMalformed("response is not JSON") from None
    if isinstance(data, dict):
        items = [data]
    elif isinstance(data, list):
        items = data
    else:
        raise AllRecordsMalformed(f"unexpected JSON payload of type {type(data).__name__}")
    records: list[NewsRecord] = []
    dropped = 0
    for item in items:
        rec = _record_from_item(item)
        if rec is None:
            dropped += 1
        else:
            records.append(rec)
    if not records:
        raise AllRecordsMalformed(f"0 of {len(items)} records parsed")
    return records, dropped


def generate_batch(backend, prompt: str, config: GenerationConfig, seed: int) -> Corpus:
    """Request one batch from a client exposing ``complete`` and parse it."""
    raw = backend.complete(
        prompt,
        temperature=config.temperature,
        top_p=config.top_p,
        max_tokens=config.batch_size * TOKENS_PER_RECORD,
        seed=seed,
    )
    return Corpus(tuple(parse_synth_records(raw)[0]))


# ---------------------------------------------------------------- demo selection

def select_demos(corpus: Corpus, n: int, seed: int) -> list[NewsRecord]:
    """Seed-deterministic demonstration picks: the one choice of which
    records of ``corpus`` enter a generation or ICL prompt.

    Every class gives n // 4 distinct records, and n % 4 distinct classes,
    drawn at random, each give one more. Records come out in class order
    and none appears twice. Raises ValueError when a class has too few.
    """
    rng = make_rng(subseed(seed, "demos"))
    extra = rng.choice(len(LABELS), size=n % 4, replace=False) if n % 4 else ()
    demos: list[NewsRecord] = []
    for k, label in enumerate(LABELS):
        want = n // 4 + (k in extra)
        pool = np.flatnonzero(corpus.label_ids == k)
        if len(pool) < want:
            raise ValueError(f"class {label.display}: need {want} demo records, have {len(pool)}")
        picks = pool[rng.choice(len(pool), size=want, replace=False)]
        demos.extend(corpus.records[i] for i in picks)
    return demos


# ---------------------------------------------------------------- generation loop

def run_generation(original: Corpus, backend, config: GenerationConfig, seed: int) -> Corpus:
    """Generate a class-balanced synthetic corpus.

    Demonstrations are selected once per run, and so is the prompt: every
    call asks for batch_size records and sends its own seed derived from
    ``seed``, so a backend answers every call afresh. Batches are requested
    until every class holds total_records/4 records; surplus records of a
    full class are discarded, and exact (title, description) duplicates,
    including the demonstrations themselves, are dropped.
    Raises RuntimeError after 8 + 6 * ceil(total_records/batch_size) calls.
    """
    demos = select_demos(original, config.num_shots, seed)
    prompt = build_generation_prompt(demos, config.batch_size)
    quota = config.total_records // 4
    buckets: dict[ClassLabel, int] = {label: 0 for label in LABELS}
    seen: set[tuple[str, str]] = {(d.title, d.description) for d in demos}
    collected: list[NewsRecord] = []

    max_calls = 8 + 6 * math.ceil(config.total_records / config.batch_size)
    for call in range(max_calls):
        try:
            batch = generate_batch(backend, prompt, config, subseed(seed, "batch", call))
        except AllRecordsMalformed:
            continue  # a wasted call; the cap still bounds the loop
        for rec in batch.records:
            key = (rec.title, rec.description)
            if key in seen or buckets[rec.label] >= quota:
                continue
            seen.add(key)
            buckets[rec.label] += 1
            collected.append(rec)
        if len(collected) == config.total_records:
            return Corpus(tuple(collected))
    missing = {label.display: quota - n for label, n in buckets.items() if n < quota}
    raise RuntimeError(f"after {max_calls} calls still missing {missing} records per class")
