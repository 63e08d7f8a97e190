"""Generation pipeline: prompt building, response parsing, backends, quota loop,
and count reconciliation."""
from __future__ import annotations

import hashlib
import json
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from dpsynth.cli import ExperimentConfig, _make_client
from dpsynth.corpus import (
    LABELS,
    ClassLabel,
    Corpus,
    NewsRecord,
    tokenize,
)
from dpsynth.dp import (
    Mechanism,
    PrivacyParams,
    SensitivityBound,
    TokenHistogram,
    build_histogram,
    perturb_histogram,
)
from dpsynth.rngutil import make_rng, subseed
from dpsynth.synth import backends
from dpsynth.synth import mock as mock_module
from dpsynth.synth.backends import (
    BackendSpec,
    HttpClient,
    MockClient,
    ResponseCache,
    make_backend,
)
from dpsynth.synth.generate import (
    TOKENS_PER_RECORD,
    AllRecordsMalformed,
    GenerationConfig,
    generate_batch,
    parse_synth_records,
    run_generation,
    select_demos,
)
from dpsynth.synth.mock import (
    CLASS_VOCAB,
    FILLER_WORDS,
    compose_mock_texts,
    mock_classification_response,
    mock_generation_response,
    mock_original_corpus,
    requested_count,
)
from dpsynth.synth.prompts import (
    CLASSIFICATION_HEAD,
    PROMPT_LABEL,
    build_classification_prompt,
    build_generation_prompt,
    render_demo,
    render_demo_block,
)
from dpsynth.synth.reconcile import count_vocab_tokens, reconcile_corpus

from helpers import GENERATION_DEMOS, ICL_DEMOS, ICL_QUERY, ScriptedClient, class_counts_restricted

GOLDEN = Path(__file__).parent / "golden"


def chat_body(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


def synth_json(rows, fenced: bool = True) -> str:
    items = [{"Title": t, "Description": d, "Class_Label": c} for t, d, c in rows]
    body = json.dumps(items, indent=1)
    return f"```json\n{body}\n```" if fenced else body


# ---------------------------------------------------------------- prompts


class TestPrompts:
    def test_generation_prompt_matches_golden(self):
        prompt = build_generation_prompt(GENERATION_DEMOS, 10)
        assert prompt + "\n" == (GOLDEN / "generation_prompt.txt").read_text(encoding="utf-8")

    def test_classification_prompt_matches_golden(self):
        prompt = build_classification_prompt(ICL_DEMOS, ICL_QUERY)
        assert prompt + "\n" == (GOLDEN / "icl_prompt_4shot.txt").read_text(encoding="utf-8")

    def test_zero_shot_prompt_drops_demo_section(self):
        # Both templates follow one rule: with no demos, the header line goes
        # with the slot.
        generation = (GOLDEN / "generation_prompt.txt").read_text(encoding="utf-8")
        section = "Here is some example:\n\n" + render_demo_block(GENERATION_DEMOS) + "\n\n"
        assert section in generation
        for prompt, expected in (
            (build_classification_prompt([], ICL_QUERY),
             (GOLDEN / "icl_prompt_0shot.txt").read_text(encoding="utf-8")),
            (build_generation_prompt([], 10), generation.replace(section, "")),
        ):
            assert prompt + "\n" == expected
            assert "demonstrations" not in prompt and "example" not in prompt
            assert "###" not in prompt

    def test_two_shot_prompt_matches_golden(self):
        prompt = build_classification_prompt(ICL_DEMOS[:2], ICL_QUERY)
        assert prompt + "\n" == (GOLDEN / "icl_prompt_2shot.txt").read_text(encoding="utf-8")

    def test_record_count_is_substituted(self):
        prompt = build_generation_prompt(GENERATION_DEMOS, 25)
        assert "Now generate 25 different" in prompt
        assert "###<NUMBER>###" not in prompt
        assert "###" not in prompt

    def test_generation_prompt_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            build_generation_prompt(GENERATION_DEMOS, 0)

    def test_four_demos_must_cover_all_classes(self):
        skewed = [GENERATION_DEMOS[0]] * 4
        with pytest.raises(ValueError, match="^no demonstration for: World, Sports, Business$"):
            build_generation_prompt(skewed, 5)

    def test_small_demo_sets_pass_through(self):
        prompt = build_generation_prompt(GENERATION_DEMOS[:2], 5)
        assert prompt.count("Class Label:") == 2

    def test_render_demo_uses_prompt_spellings(self):
        rec = NewsRecord("Fed meets", "Rates on hold.", ClassLabel.BUSINESS)
        assert render_demo(rec) == 'Title: Fed meets\nDescription: Rates on hold.\nClass Label: "Bussiness"'
        sci = NewsRecord("Probe", "Mars lander.", ClassLabel.SCITECH)
        assert '"Sci/Tech"' in render_demo(sci)

    def test_prompt_heads(self):
        assert build_classification_prompt([], ICL_QUERY).startswith(CLASSIFICATION_HEAD)

    def test_query_is_rendered_without_label(self):
        prompt = build_classification_prompt(ICL_DEMOS, ICL_QUERY)
        tail = prompt.rsplit("follwoing news:", 1)[1]
        assert f"Title: {ICL_QUERY.title}" in tail
        assert f"Description: {ICL_QUERY.description}" in tail
        assert "Class Label" not in tail


# ---------------------------------------------------------------- parsing


class TestParseSynthRecords:
    GOOD = [
        ("Alpha", "First story.", "World"),
        ("Beta", "Second story.", "Sports"),
    ]

    def test_fenced_array(self):
        records, dropped = parse_synth_records(synth_json(self.GOOD))
        assert dropped == 0
        assert [r.title for r in records] == ["Alpha", "Beta"]
        assert records[0].label is ClassLabel.WORLD

    def test_bare_array(self):
        records, dropped = parse_synth_records(synth_json(self.GOOD, fenced=False))
        assert len(records) == 2 and dropped == 0

    def test_fence_without_language_tag(self):
        raw = "```\n" + synth_json(self.GOOD, fenced=False) + "\n```"
        records, _ = parse_synth_records(raw)
        assert len(records) == 2

    def test_single_object_is_accepted(self):
        raw = json.dumps({"Title": "X1", "Description": "Y.", "Class_Label": "Sci/Tech"})
        records, dropped = parse_synth_records(raw)
        assert len(records) == 1 and dropped == 0
        assert records[0].label is ClassLabel.SCITECH

    def test_key_spelling_drift_is_tolerated(self):
        raw = json.dumps([{"title": "A1", "DESCRIPTION": "B.", "Class Label": "Sports"}])
        records, _ = parse_synth_records(raw)
        assert records[0].label is ClassLabel.SPORTS

    def test_bussiness_label_is_normalized(self):
        raw = synth_json([("T1", "D.", "Bussiness")])
        records, _ = parse_synth_records(raw)
        assert records[0].label is ClassLabel.BUSINESS

    def test_fields_are_stripped(self):
        raw = json.dumps([{"Title": "  A1 ", "Description": " B. ", "Class_Label": "World"}])
        records, _ = parse_synth_records(raw)
        assert records[0].title == "A1" and records[0].description == "B."

    def test_malformed_items_are_dropped_and_counted(self):
        raw = json.dumps(
            [
                {"Title": "Ok", "Description": "Fine.", "Class_Label": "World"},
                {"Title": "NoDesc", "Class_Label": "World"},
                {"Title": "", "Description": "x", "Class_Label": "World"},
                {"Title": "Bad", "Description": "x", "Class_Label": "Weather"},
                {"Title": "Bad", "Description": 7, "Class_Label": "World"},
                "not an object",
                # lone surrogates: valid JSON escapes with no UTF-8 form
                {"Title": "Bad \ud800", "Description": "x", "Class_Label": "World"},
                {"Title": "Bad", "Description": "x \udfff", "Class_Label": "World"},
            ]
        )
        assert "\\ud800" in raw
        records, dropped = parse_synth_records(raw)
        assert [r.title for r in records] == ["Ok"]
        assert dropped == 7

    def test_not_json_raises(self):
        with pytest.raises(AllRecordsMalformed):
            parse_synth_records("Sorry, I cannot help with that.")

    def test_scalar_payload_raises(self):
        with pytest.raises(AllRecordsMalformed):
            parse_synth_records("42")

    def test_all_items_malformed_raises(self):
        raw = json.dumps([{"Title": "x"}, {"oops": 1}])
        with pytest.raises(AllRecordsMalformed) as err:
            parse_synth_records(raw)
        assert "0 of 2" in str(err.value)


# ---------------------------------------------------------------- mock backend


class TestMockBackend:
    def test_generation_response_is_deterministic(self):
        a = mock_generation_response("hash-a", 7, 8)
        assert a == mock_generation_response("hash-a", 7, 8)
        assert a != mock_generation_response("hash-a", 8, 8)
        assert a != mock_generation_response("hash-b", 7, 8)

    def test_generation_response_parses_and_cycles_classes(self):
        records, dropped = parse_synth_records(mock_generation_response("h", 0, 8))
        assert dropped == 0 and len(records) == 8
        assert [r.label for r in records] == list(LABELS) * 2

    def test_generation_response_uses_prompt_spelling(self):
        raw = mock_generation_response("h", 0, 4)
        assert '"Bussiness"' in raw and '"Business"' not in raw

    def test_mock_text_stays_inside_its_vocabulary(self):
        records, _ = parse_synth_records(mock_generation_response("h2", 3, 12))
        for rec in records:
            allowed = set(CLASS_VOCAB[rec.label]) | set(FILLER_WORDS)
            for tok in tokenize(rec.title) + tokenize(rec.description):
                assert tok in allowed

    def test_requested_count(self):
        assert requested_count(build_generation_prompt(GENERATION_DEMOS, 12), fallback=8) == 12
        assert requested_count("no count here", fallback=8) == 8

    def test_classification_response_picks_vocab_overlap(self):
        for label in LABELS:
            words = CLASS_VOCAB[label]
            query = NewsRecord(words[0].capitalize(), " ".join(words[1:4]) + ".", ClassLabel.WORLD)
            prompt = build_classification_prompt(ICL_DEMOS, query)
            assert mock_classification_response(prompt) == f'Class Label: "{PROMPT_LABEL[label]}"'

    def test_mock_client_dispatches_by_prompt_head(self):
        client = MockClient()
        gen_prompt = build_generation_prompt(GENERATION_DEMOS, 4)
        raw = client.complete(gen_prompt, temperature=0.7, top_p=1.0, max_tokens=200, seed=1)
        records, _ = parse_synth_records(raw)
        assert len(records) == 4
        cls_prompt = build_classification_prompt(ICL_DEMOS, ICL_QUERY)
        answer = client.complete(cls_prompt, temperature=0.0, top_p=1.0, max_tokens=16, seed=1)
        assert answer.startswith("Class Label:")
        assert client.stats["mock_calls"] == 2
        assert client.stats["http_requests"] == 0

    def test_mock_original_corpus_shape(self):
        corpus = mock_original_corpus(3, seed=11)
        assert len(corpus.records) == 12
        assert Counter(r.label for r in corpus) == {label: 3 for label in LABELS}
        again = mock_original_corpus(3, seed=11)
        assert corpus.records == again.records
        assert mock_original_corpus(3, seed=12).records != corpus.records

    def test_mock_original_corpus_rejects_zero(self):
        with pytest.raises(ValueError):
            mock_original_corpus(0, seed=1)

    def test_mock_original_corpus_labels_cycle_in_enum_order(self):
        corpus = mock_original_corpus(5, seed=3)
        assert [r.label for r in corpus] == list(LABELS) * 5


class TestMockComposer:
    """The law of the mock text, checked on large fixed-seed samples.

    The tolerances are several standard errors wide: they pin the shares and
    lengths the composer promises, not any particular draw.
    """

    N_RECORDS = 4000

    @pytest.fixture(scope="class")
    def sample(self):
        label_ids = np.arange(self.N_RECORDS) % len(LABELS)
        texts = compose_mock_texts(make_rng(2024), label_ids)
        return [LABELS[i] for i in label_ids.tolist()], texts

    def test_lists_are_disjoint(self):
        vocab = [set(CLASS_VOCAB[label]) for label in LABELS]
        assert sum(map(len, vocab)) == len(set().union(*vocab))
        assert not set().union(*vocab) & set(FILLER_WORDS)

    def test_title_is_two_class_words_and_one_filler(self, sample):
        for label, (title, _) in zip(*sample):
            words = title.split(" ")
            assert len(words) == 3
            assert all(w == w.capitalize() for w in words)
            lower = [w.lower() for w in words]
            assert sum(w in CLASS_VOCAB[label] for w in lower) == 2
            assert sum(w in FILLER_WORDS for w in lower) == 1

    def test_filler_slot_is_uniform(self, sample):
        slots = Counter(
            next(i for i, w in enumerate(title.lower().split(" ")) if w in FILLER_WORDS)
            for title, _ in sample[1]
        )
        for slot in range(3):
            assert abs(slots[slot] / self.N_RECORDS - 1 / 3) < 0.03

    def test_description_shape_and_words(self, sample):
        for label, (_, description) in zip(*sample):
            assert description.endswith(".") and not description.endswith("..")
            words = description[:-1].split(" ")
            assert 12 <= len(words) <= 16
            assert words[0] == words[0].capitalize()
            lower = [words[0].lower()] + words[1:]
            assert all(w in CLASS_VOCAB[label] or w in FILLER_WORDS for w in lower)

    def test_description_lengths_and_class_share(self, sample):
        lengths = Counter()
        n_class = n_words = 0
        for label, (_, description) in zip(*sample):
            words = description[:-1].lower().split(" ")
            lengths[len(words)] += 1
            n_class += sum(w in CLASS_VOCAB[label] for w in words)
            n_words += len(words)
        assert sorted(lengths) == [12, 13, 14, 15, 16]
        assert abs(n_class / n_words - 0.55) < 0.02

    def test_draw_count_does_not_grow_with_the_corpus(self, monkeypatch):
        # Every field is drawn for all records at once, so a corpus of 2000
        # records makes as many generator calls as one of 4.
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls += 1
                    return method(*args, **kwargs)
                return counted

        made = []
        real = mock_module.make_rng
        monkeypatch.setattr(mock_module, "make_rng",
                            lambda seed: made.append(CountingRng(real(seed))) or made[-1])
        small, large = mock_original_corpus(1, seed=5), mock_original_corpus(500, seed=5)
        assert (len(small), len(large)) == (4, 2000)
        assert len(made) == 2 and made[0].calls > 0
        assert made[0].calls == made[1].calls


# ---------------------------------------------------------------- http backend


class FakeTransport:
    """Scripted (status, body) responses; an Exception instance is raised instead."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, url, headers, body):
        self.requests.append((url, dict(headers), json.loads(json.dumps(body))))
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_spec(retry_limit: int = 3) -> BackendSpec:
    return BackendSpec(kind="http", endpoint_url="http://unit.test/v1/chat", model_name="m-test", retry_limit=retry_limit)


def http_client(tmp_path, outcomes, *, retry_limit: int = 3, cache: bool = True, spec: BackendSpec | None = None):
    transport = FakeTransport(outcomes)
    sleeps = []
    client = make_backend(
        spec or http_spec(retry_limit),
        cache_dir=tmp_path / "cache",
        cache_enabled=cache,
        transport=transport,
        sleep=sleeps.append,
    )
    return client, transport, sleeps


def ask(client, prompt="hello", **kw):
    args = {"temperature": 0.7, "top_p": 1.0, "max_tokens": 64, "seed": 0}
    args.update(kw)
    return client.complete(prompt, **args)


class TestHttpBackend:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="llm")
        with pytest.raises(ValueError):
            BackendSpec(kind="http", endpoint_url="", model_name="m")
        with pytest.raises(ValueError):
            BackendSpec(kind="http", endpoint_url="http://x", model_name="")
        with pytest.raises(ValueError):
            BackendSpec(max_concurrent=0)
        with pytest.raises(ValueError):
            BackendSpec(retry_limit=-1)

    def test_make_backend_dispatch(self, tmp_path):
        assert isinstance(make_backend(BackendSpec()), MockClient)
        client, _, _ = http_client(tmp_path, [(200, chat_body("hi"))])
        assert isinstance(client, HttpClient)

    def test_cache_dir_comes_from_the_config_alone(self, monkeypatch, tmp_path):
        # The manifest records config.cache_dir, so nothing else may move the
        # cache: a rerun from the manifest must find the same responses.
        monkeypatch.setenv("DPSYNTH_CACHE_DIR", str(tmp_path / "from-env"))
        monkeypatch.chdir(tmp_path)
        config = ExperimentConfig(backend=http_spec())
        assert _make_client(config).cache.directory == Path(".dpsynth-cache")
        assert make_backend(http_spec()).cache.directory == Path(".dpsynth-cache")
        explicit = ExperimentConfig(backend=http_spec(), cache_dir=str(tmp_path / "explicit"))
        assert _make_client(explicit).cache.directory == tmp_path / "explicit"
        assert not (tmp_path / "from-env").exists()

    def test_request_body_schema(self, tmp_path):
        client, transport, _ = http_client(tmp_path, [(200, chat_body("out"))])
        assert ask(client, "the prompt", temperature=0.3, max_tokens=99, seed=123) == "out"
        url, headers, body = transport.requests[0]
        assert url == "http://unit.test/v1/chat"
        assert headers == {"Content-Type": "application/json"}
        assert body == {
            "model": "m-test",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.3,
            "top_p": 1.0,
            "max_tokens": 99,
            "seed": 123,
        }

    def test_seed_is_sent_below_2_pow_31(self, tmp_path):
        # subseed gives 64-bit values; int32 request parsers reject those
        client, transport, _ = http_client(tmp_path, [(200, chat_body("out"))])
        ask(client, seed=2**64 - 1)
        sent = transport.requests[0][2]["seed"]
        assert 0 <= sent < 2**31
        assert sent == (2**64 - 1) % 2**31

    def test_different_seeds_each_reach_the_network(self, tmp_path):
        # generation sends the same prompt with a new seed on every call;
        # each must be a fresh sample, not the first call's cached body
        client, transport, _ = http_client(
            tmp_path, [(200, chat_body("first")), (200, chat_body("second"))]
        )
        assert ask(client, seed=1) == "first"
        assert ask(client, seed=2) == "second"
        assert len(transport.requests) == 2
        assert client.stats["cache_hits"] == 0

    def test_repeated_call_makes_one_request_and_one_hit(self, tmp_path):
        client, transport, _ = http_client(
            tmp_path, [(200, chat_body("first")), (200, chat_body("second"))]
        )
        assert ask(client, seed=1) == "first"
        assert ask(client, seed=1) == "first"
        assert len(transport.requests) == 1
        assert client.stats == {"mock_calls": 0, "http_requests": 1, "cache_hits": 1}

    def test_replay_run_makes_zero_http_calls(self, tmp_path):
        client, transport, _ = http_client(
            tmp_path, [(200, chat_body("first")), (200, chat_body("second"))]
        )
        ask(client, seed=1)
        ask(client, seed=2)
        # a new client over the same cache dir = a rerun of the same config
        fresh, transport2, _ = http_client(tmp_path, [(500, "boom")])
        assert ask(fresh, seed=1) == "first"
        assert ask(fresh, seed=2) == "second"
        assert transport2.requests == []
        assert fresh.stats["cache_hits"] == 2

    def test_warm_cache_answers_each_seed_in_any_order(self, tmp_path):
        client, _, _ = http_client(
            tmp_path, [(200, chat_body("for seed 1")), (200, chat_body("for seed 2"))]
        )
        ask(client, "p", seed=1)
        ask(client, "p", seed=2)
        fresh, transport, _ = http_client(tmp_path, [(500, "boom")])
        assert ask(fresh, "p", seed=2) == "for seed 2"
        assert ask(fresh, "p", seed=1) == "for seed 1"
        assert transport.requests == []
        assert fresh.stats["cache_hits"] == 2

    def test_cache_miss_on_changed_request(self, tmp_path):
        client, transport, _ = http_client(tmp_path, [(200, chat_body("a"))])
        ask(client, "p1")
        ask(client, "p2")
        ask(client, "p1", temperature=0.9)
        assert len(transport.requests) == 3

    def test_cache_disabled(self, tmp_path):
        client, transport, _ = http_client(tmp_path, [(200, chat_body("x"))], cache=False)
        ask(client)
        ask(client)
        assert len(transport.requests) == 2

    def test_retry_then_success_with_backoff(self, tmp_path):
        client, transport, sleeps = http_client(
            tmp_path, [(429, ""), (503, ""), (200, chat_body("ok"))]
        )
        assert ask(client) == "ok"
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_transport_errors_are_retried(self, tmp_path):
        client, transport, sleeps = http_client(
            tmp_path, [ConnectionError("refused"), (200, chat_body("ok"))]
        )
        assert ask(client) == "ok"
        assert sleeps == [0.5]

    def test_transport_exceptions_are_retried(self, tmp_path):
        client, transport, sleeps = http_client(tmp_path, [
            ConnectionError("refused"),
            TimeoutError("slow"),
            (200, chat_body("third")),
        ])
        assert ask(client) == "third"
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]
        assert client.stats["http_requests"] == 1

    def test_non_retryable_status_fails_fast(self, tmp_path):
        client, transport, _ = http_client(tmp_path, [(404, "missing")])
        with pytest.raises(RuntimeError, match="^backend returned status 404$"):
            ask(client)
        assert len(transport.requests) == 1

    def test_exhausted_retries(self, tmp_path):
        client, transport, sleeps = http_client(tmp_path, [(503, "down")], retry_limit=2)
        with pytest.raises(RuntimeError, match=r"^backend unavailable after 3 attempts \(status 503\)$"):
            ask(client)
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_malformed_completion_body(self, tmp_path):
        for text in ["not json", json.dumps({"choices": []}), json.dumps({"choices": [{"message": {"content": 5}}]})]:
            client, _, _ = http_client(tmp_path, [(200, text)])
            with pytest.raises(RuntimeError, match="^(malformed completion response body"
                                                   "|completion content is not a string)$"):
                ask(client)

    def test_failed_responses_are_not_cached(self, tmp_path):
        client, transport, _ = http_client(tmp_path, [(503, ""), (200, chat_body("late"))], retry_limit=0)
        with pytest.raises(RuntimeError, match="^backend unavailable after 1 attempts"):
            ask(client)
        client2, transport2, _ = http_client(tmp_path, [(200, chat_body("late"))])
        assert ask(client2) == "late"
        assert len(transport2.requests) == 1

    def test_auth_header(self, tmp_path, monkeypatch):
        spec = BackendSpec(
            kind="http", endpoint_url="http://unit.test/v1/chat", model_name="m-test",
            auth_env_var="DPSYNTH_TEST_TOKEN",
        )
        client, transport, _ = http_client(tmp_path, [(200, chat_body("ok"))], spec=spec)
        with pytest.raises(RuntimeError, match="^environment variable DPSYNTH_TEST_TOKEN is not set$"):
            ask(client)
        assert transport.requests == []
        monkeypatch.setenv("DPSYNTH_TEST_TOKEN", "sekrit")
        assert ask(client) == "ok"
        assert transport.requests[0][1]["Authorization"] == "Bearer sekrit"


class _YieldingStats(dict):
    """A stats mapping whose reads hand the GIL to another thread.

    CPython switches threads only at calls and backward jumps, so a bare
    ``dict[k] += 1`` seldom loses a count; a read that sleeps puts a thread
    switch inside every read-modify-write that no lock covers."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestBackendCounters:
    """The ICL pool calls one client from many threads; no count may be lost."""

    THREADS, CALLS = 8, 200

    def hammer(self, client, call):
        client.stats = _YieldingStats(client.stats)

        def worker():
            for _ in range(self.CALLS):
                call()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return self.THREADS * self.CALLS

    def test_mock_calls_are_exact(self):
        client = MockClient()
        n = self.hammer(client, lambda: ask(client, CLASSIFICATION_HEAD))
        assert client.stats == {"mock_calls": n, "http_requests": 0, "cache_hits": 0}

    def test_http_requests_are_exact(self, tmp_path):
        client, _, _ = http_client(tmp_path, [(200, chat_body("ok"))], cache=False)
        n = self.hammer(client, lambda: ask(client))
        assert client.stats == {"mock_calls": 0, "http_requests": n, "cache_hits": 0}


@contextmanager
def scripted_server(replies, tls=None):
    """Loopback chat endpoint that answers the n-th POST with replies[n].

    A reply is a ``(status, body)`` pair, or raw bytes written in place of a
    whole HTTP response. The last reply repeats once the script runs out.
    With ``tls``, a server-side ``ssl.SSLContext``, it serves HTTPS.
    """
    received = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            received.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
            reply = replies[min(len(received), len(replies)) - 1]
            if isinstance(reply, bytes):
                self.wfile.write(reply)
                return
            status, body = reply
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    try:
        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    except OSError as exc:
        pytest.skip(f"cannot bind a local test server: {exc}")
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    scheme = "http" if tls is None else "https"
    try:
        yield f"{scheme}://127.0.0.1:{server.server_address[1]}/v1/chat/completions", received
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def loopback_client(tmp_path, url, retry_limit=3):
    """An HttpClient on the real transport, with sleeps recorded, not slept."""
    sleeps = []
    spec = BackendSpec(kind="http", endpoint_url=url, model_name="m-test",
                       retry_limit=retry_limit)
    return make_backend(spec, cache_dir=tmp_path / "cache", sleep=sleeps.append), sleeps


def self_signed_cert(directory):
    """A certificate and key for 127.0.0.1, made with the openssl command."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl command to make a test certificate")
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "2", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1",
         "-addext", "basicConstraints=critical,CA:TRUE",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    return cert, key


class TestDefaultTransport:
    """The real transport against a loopback server: statuses, retries, text."""

    def test_unavailable_then_ok_is_retried(self, tmp_path):
        with scripted_server([(503, "busy"), (200, chat_body("ok"))]) as (url, received):
            client, sleeps = loopback_client(tmp_path, url)
            assert ask(client) == "ok"
        assert len(received) == 2
        assert sleeps == [0.5]
        assert client.stats["http_requests"] == 2

    def test_not_found_fails_after_one_request(self, tmp_path):
        with scripted_server([(404, "no such model")]) as (url, received):
            client, sleeps = loopback_client(tmp_path, url)
            with pytest.raises(RuntimeError, match="^backend returned status 404$"):
                ask(client)
        assert len(received) == 1
        assert sleeps == []

    @pytest.mark.parametrize("broken", [
        b"NOT-HTTP\r\n\r\n",
        b'HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{"choices"',
        b"HTTP/1.0 404 Not Found\r\nContent-Length: 100\r\n\r\nno such",
    ], ids=["bad-status-line", "cut-off-2xx-body", "cut-off-404-body"])
    def test_malformed_response_is_retried(self, tmp_path, broken):
        replies = [broken, (200, chat_body("ok"))]
        with scripted_server(replies) as (url, received):
            client, sleeps = loopback_client(tmp_path, url)
            assert ask(client) == "ok"
        assert len(received) == 2
        assert sleeps == [0.5]

    def test_closed_port_is_retried_up_to_the_limit(self, tmp_path):
        with socket.socket() as sock:  # a port that was just free, now closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client, sleeps = loopback_client(tmp_path, f"http://127.0.0.1:{port}/v1", retry_limit=2)
        with pytest.raises(RuntimeError, match="^backend unavailable after 3 attempts .*transport error"):
            ask(client)
        assert sleeps == [0.5, 1.0]
        assert client.stats["http_requests"] == 0

    def test_non_ascii_text_round_trips(self, tmp_path):
        prompt = "Schreib über Zürich — 東京 ✓"
        completion = "Zürich: «Straße» — 東京 ✓ \U0001F600"
        body = json.dumps({"choices": [{"message": {"content": completion}}]},
                          ensure_ascii=False)
        with scripted_server([(200, body)]) as (url, received):
            client, _ = loopback_client(tmp_path, url)
            assert ask(client, prompt) == completion
        assert received[0]["messages"][0]["content"] == prompt
        replay, _ = loopback_client(tmp_path, "http://127.0.0.1:1/unused")
        assert ask(replay, prompt) == completion
        assert replay.stats["cache_hits"] == 1

    def test_https_requests_share_one_tls_context(self, tmp_path, monkeypatch):
        cert, key = self_signed_cert(tmp_path)
        server_tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server_tls.load_cert_chain(cert, key)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # trust the test certificate
        built = []
        create = ssl.create_default_context

        def counted(*args, **kwargs):
            built.append(args)
            return create(*args, **kwargs)

        monkeypatch.setattr(ssl, "create_default_context", counted)
        backends._https_opener.cache_clear()
        try:
            replies = [(200, chat_body("one")), (200, chat_body("two")), (200, chat_body("3"))]
            with scripted_server(replies, tls=server_tls) as (url, received):
                client, sleeps = loopback_client(tmp_path, url)
                assert [ask(client, p) for p in ("a", "b", "c")] == ["one", "two", "3"]
        finally:
            backends._https_opener.cache_clear()
        assert len(received) == 3
        assert sleeps == []
        # building a context loads the CA bundle; three requests build one
        assert len(built) == 1


class TestResponseCache:
    KEY = ResponseCache.key_for({"model": "m", "seed": 1})

    def test_put_is_read_back_by_every_instance(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, {"model": "m"}, "the text")
        assert cache.get(self.KEY) == "the text"
        assert cache.get(self.KEY) == "the text"
        assert ResponseCache(tmp_path).get(self.KEY) == "the text"
        entry = json.loads((tmp_path / f"{self.KEY}.json").read_text(encoding="utf-8"))
        assert entry == {"request": {"model": "m"}, "response": "the text"}

    def test_key_covers_every_request_field(self, tmp_path):
        # every argument of a call, the seed included, is part of its key
        base = {"prompt": "p", "temperature": 0.7, "top_p": 1.0, "max_tokens": 100, "seed": 1}
        variants = [{"prompt": "q"}, {"temperature": 0.8}, {"top_p": 0.9},
                    {"max_tokens": 101}, {"seed": 2}]
        client, transport, _ = http_client(tmp_path, [(200, chat_body("x"))])
        other_model, _, _ = http_client(
            tmp_path, [(200, chat_body("x"))],
            spec=BackendSpec(kind="http", endpoint_url="http://unit.test/v1/chat",
                             model_name="m-other"))
        for change in [{}] + variants:
            ask(client, **{**base, **change})
        ask(other_model, **base)
        assert len(transport.requests) == 6
        assert len(list((tmp_path / "cache").glob("*.json"))) == 7

    def test_key_is_the_request_body_as_sent(self):
        body = {"model": "m", "messages": [{"role": "user", "content": "Zürich"}], "seed": 3}
        canon = '{"messages":[{"content":"Zürich","role":"user"}],"model":"m","seed":3}'
        assert ResponseCache.key_for(body) == hashlib.sha256(canon.encode("utf-8")).hexdigest()
        assert ResponseCache.key_for(dict(reversed(body.items()))) == ResponseCache.key_for(body)

    def test_each_key_writes_one_file(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for i in range(5):
            cache.put(ResponseCache.key_for({"seed": i}), {}, "x")
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 5

    def test_a_later_put_replaces_the_response(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put(self.KEY, {}, "r1")
        cache.put(self.KEY, {}, "r2 · Zürich\nline two")
        assert ResponseCache(tmp_path).get(self.KEY) == "r2 · Zürich\nline two"

    @pytest.mark.parametrize("corrupt", [
        b'{"request": {}, "response": "cut sho',
        b"",
        b'{"request": {}, "response": "caf\xc3',
        b"\x00 not json",
        b'{"request": {}}',
        b'["a list"]',
    ], ids=["cut-off", "empty", "cut-utf8", "binary", "no-response", "not-an-object"])
    def test_corrupt_key_file_is_a_miss_and_next_put_is_whole(self, tmp_path, corrupt):
        path = tmp_path / f"{self.KEY}.json"
        path.write_bytes(corrupt)
        cache = ResponseCache(tmp_path)
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, {"model": "m"}, "r1")
        assert json.loads(path.read_bytes()) == {"request": {"model": "m"}, "response": "r1"}
        assert ResponseCache(tmp_path).get(self.KEY) == "r1"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_file_deleted_mid_run_keeps_later_responses(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put(self.KEY, {}, "r1")
        (tmp_path / f"{self.KEY}.json").unlink()
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, {}, "r2")
        assert ResponseCache(tmp_path).get(self.KEY) == "r2"

    def test_concurrent_puts_leave_only_whole_files(self, tmp_path):
        # Eight threads each write keys of their own and one shared key.
        cache = ResponseCache(tmp_path)
        threads_n, puts = 8, 25
        shared = ResponseCache.key_for({"shared": True})

        def worker(t):
            for i in range(puts):
                cache.put(ResponseCache.key_for({"t": t, "i": i}), {"t": t}, f"t{t}-{i}")
                cache.put(shared, {"shared": True}, f"t{t}-{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert list(tmp_path.glob("*.tmp")) == []
        files = list(tmp_path.glob("*.json"))
        assert len(files) == threads_n * puts + 1
        for path in files:  # every file is one whole entry
            assert set(json.loads(path.read_bytes())) == {"request", "response"}
        reader = ResponseCache(tmp_path)
        assert all(reader.get(ResponseCache.key_for({"t": t, "i": i})) == f"t{t}-{i}"
                   for t in range(threads_n) for i in range(puts))
        assert reader.get(shared) in {f"t{t}-{puts - 1}" for t in range(threads_n)}


# ---------------------------------------------------------------- demo selection and the loop


class TestSelectDemos:
    def test_zero_shots(self):
        assert select_demos(mock_original_corpus(2, 0), 0, seed=1) == []

    def test_four_shots_cover_classes_in_enum_order(self):
        corpus = mock_original_corpus(5, 0)
        demos = select_demos(corpus, 4, seed=3)
        assert [d.label for d in demos] == list(LABELS)
        assert select_demos(corpus, 4, seed=3) == demos
        assert select_demos(corpus, 4, seed=4) != demos

    def test_eight_shots_two_per_class(self):
        demos = select_demos(mock_original_corpus(5, 0), 8, seed=3)
        counts = {label: 0 for label in LABELS}
        for d in demos:
            counts[d.label] += 1
        assert counts == {label: 2 for label in LABELS}
        assert len({(d.title, d.description) for d in demos}) == 8

    def test_every_class_gives_a_quarter_and_random_classes_the_rest(self):
        # n // 4 records per class, one more from each of n % 4 distinct
        # classes drawn at random, in class order, no record twice
        corpus = mock_original_corpus(3, 0)
        assert len({(r.title, r.description) for r in corpus.records}) == 12
        for n in range(10):
            extra_classes = Counter()
            for seed in range(200):
                demos = select_demos(corpus, n, seed)
                assert len(demos) == n
                assert len({(d.title, d.description) for d in demos}) == n, (n, seed)
                assert all(d in corpus.records for d in demos)
                labels = [d.label for d in demos]
                assert labels == sorted(labels, key=LABELS.index)
                shares = Counter(labels)
                assert all(shares[label] in (n // 4, n // 4 + 1) for label in LABELS)
                plus_one = [label for label in LABELS if shares[label] == n // 4 + 1]
                assert len(plus_one) == n % 4, (n, seed)
                extra_classes.update(plus_one)
            assert set(extra_classes) == (set(LABELS) if n % 4 else set()), n

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_multiples_of_four_keep_one_draw_per_class(self, n):
        # the draws every multiple of 4 made before the extra classes existed
        corpus = mock_original_corpus(5, 0)
        for seed in range(20):
            rng = make_rng(subseed(seed, "demos"))
            want = []
            for label in LABELS:
                pool = [r for r in corpus.records if r.label is label]
                want.extend(pool[int(i)] for i in rng.choice(len(pool), size=n // 4,
                                                             replace=False))
            assert select_demos(corpus, n, seed) == want

    def test_missing_class_raises(self):
        full = mock_original_corpus(2, 0)
        no_sports = Corpus(
            tuple(r for r in full.records if r.label is not ClassLabel.SPORTS))
        with pytest.raises(ValueError, match="^class Sports: need 1 demo records, have 0$"):
            select_demos(no_sports, 4, seed=1)


class TestGenerateBatch:
    def test_forwards_sampling_params_and_parses(self):
        raw = synth_json([("T1", "D one.", "World"), ("T2", "D two.", "Sports")])
        client = ScriptedClient([raw])
        config = GenerationConfig(temperature=0.4, top_p=0.95, batch_size=2, total_records=4)
        prompt = build_generation_prompt(GENERATION_DEMOS, 2)
        batch = generate_batch(client, prompt, config, 77)
        assert len(batch.records) == 2
        call = client.calls[0]
        assert call["temperature"] == 0.4
        assert call["top_p"] == 0.95
        assert call["max_tokens"] == 2 * TOKENS_PER_RECORD == 400
        assert call["seed"] == 77

    def test_counts_malformed_items(self):
        raw = json.dumps([
            {"Title": "Ok", "Description": "D.", "Class_Label": "World"},
            {"Title": "Bad"},
        ])
        batch = generate_batch(ScriptedClient([raw]), "p", GenerationConfig(), 0)
        assert [r.title for r in batch.records] == ["Ok"]
        assert parse_synth_records(raw)[1] == 1


class RecordingMock(MockClient):
    """The mock backend, recording each call's prompt and sampling values."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, dict]] = []

    def complete(self, prompt: str, **kwargs) -> str:
        self.calls.append((prompt, kwargs))
        return super().complete(prompt, **kwargs)


class TruncatingMock(MockClient):
    """The mock backend behind an endpoint that cuts each answer to its
    first ``max_tokens`` words."""

    def complete(self, prompt: str, **kwargs) -> str:
        words = re.findall(r"\S+\s*", super().complete(prompt, **kwargs))
        return "".join(words[:kwargs["max_tokens"]])


class ClassOrderClient:
    """Answers with the requested number of records, classes in the prompt's
    order (World first); its first answer drops one Sci/Tech Description."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt: str, *, temperature: float, top_p: float,
                 max_tokens: int, seed: int) -> str:
        items = [{"Title": f"T{self.calls}-{i}", "Description": f"Story {self.calls}-{i}.",
                  "Class_Label": PROMPT_LABEL[LABELS[i % 4]]}
                 for i in range(requested_count(prompt, 0))]
        if self.calls == 0:
            del items[3]["Description"]
        self.calls += 1
        return json.dumps(items)


class TestRunGeneration:
    def test_mock_backend_fills_quota_exactly(self):
        original = mock_original_corpus(3, seed=2)
        config = GenerationConfig(total_records=24, batch_size=8)
        corpus = run_generation(original, MockClient(), config, 5)
        assert len(corpus.records) == 24
        assert Counter(r.label for r in corpus) == {label: 6 for label in LABELS}
        # no duplicates by content
        assert len({(r.title, r.description) for r in corpus.records}) == 24

    def test_determinism(self):
        original = mock_original_corpus(3, seed=2)
        config = GenerationConfig(total_records=16, batch_size=8)
        a = run_generation(original, MockClient(), config, 5)
        b = run_generation(original, MockClient(), config, 5)
        assert a.records == b.records
        c = run_generation(original, MockClient(), config, 6)
        assert c.records != a.records

    def test_duplicate_records_are_dropped(self):
        rows = [(f"T{i}", f"Story {i}.", label.value) for i, label in enumerate(LABELS)]
        config = GenerationConfig(total_records=8, batch_size=8, num_shots=0)
        # the automatic cap: 8 + 6 * ceil(8 / 8) calls, the last wave of
        # three cut to the two calls left under it
        for workers in (1, 3):
            client = ScriptedClient([synth_json(rows)])  # same four records every call
            with pytest.raises(RuntimeError, match="^after 14 calls still missing "):
                run_generation(mock_original_corpus(1, 0), client, config, 1, workers=workers)
            assert len(client.calls) == 14

    def test_demo_records_are_excluded(self):
        original = mock_original_corpus(1, seed=4)  # pools of one record per class
        demos = select_demos(original, 4, seed=9)
        demo_rows = [(d.title, d.description, PROMPT_LABEL[d.label]) for d in demos]
        fresh_rows = [(f"New {i}", f"Fresh body {i}.", LABELS[i % 4].value) for i in range(8)]
        client = ScriptedClient([synth_json(demo_rows), synth_json(fresh_rows)])
        config = GenerationConfig(total_records=8, batch_size=8, num_shots=4)
        corpus = run_generation(original, client, config, 9)
        demo_keys = {(d.title, d.description) for d in demos}
        assert all((r.title, r.description) not in demo_keys for r in corpus.records)
        assert len(client.calls) == 2

    def test_malformed_batches_are_tolerated(self):
        rows = [(f"T{i}", f"Story {i}.", LABELS[i % 4].value) for i in range(8)]
        client = ScriptedClient(["no json at all", synth_json(rows)])
        config = GenerationConfig(total_records=8, batch_size=8, num_shots=0)
        corpus = run_generation(mock_original_corpus(1, 0), client, config, 1)
        assert len(corpus.records) == 8
        assert len(client.calls) == 2

    def test_surplus_class_records_are_discarded(self):
        # all-World batches can only ever fill one bucket
        rows = [(f"W{i}", f"World story {i}.", "World") for i in range(8)]
        client = ScriptedClient([synth_json(rows)])
        config = GenerationConfig(total_records=8, batch_size=8, num_shots=0)
        with pytest.raises(RuntimeError, match="^after 14 calls still missing ") as err:
            run_generation(mock_original_corpus(1, 0), client, config, 1)
        msg = str(err.value)
        assert "Sports" in msg and "World" not in msg.split("missing")[1].split(":")[0]

    def test_every_call_asks_for_a_full_batch_with_one_prompt(self):
        # 12 records in batches of 8: the second call is not cut to the 4
        # still missing; the quota check drops its surplus.
        client = RecordingMock()
        config = GenerationConfig(total_records=12, batch_size=8)
        run = run_generation(mock_original_corpus(2, seed=0), client, config, 3)
        assert len(run.records) == 12
        assert len(client.calls) == 2
        assert len({prompt for prompt, _ in client.calls}) == 1
        assert requested_count(client.calls[0][0], 0) == 8
        assert all(kw["max_tokens"] == 8 * TOKENS_PER_RECORD for _, kw in client.calls)
        assert len({kw["seed"] for _, kw in client.calls}) == 2

    def test_an_endpoint_that_honours_the_token_cap(self):
        # The cap covers a whole batch, so cutting each answer to its first
        # max_tokens words leaves every record whole.
        config = GenerationConfig(total_records=64, batch_size=16)
        run = run_generation(mock_original_corpus(4, seed=0), TruncatingMock(), config, 3)
        assert Counter(r.label for r in run) == {label: 16 for label in LABELS}

    def test_a_class_order_backend_fills_the_last_class(self):
        # World-first answers to a short tail request would never hold the
        # Sci/Tech record the first answer lost; a full batch does.
        client = ClassOrderClient()
        config = GenerationConfig(total_records=16, batch_size=16, num_shots=0)
        run = run_generation(mock_original_corpus(1, seed=0), client, config, 3)
        assert Counter(r.label for r in run) == {label: 4 for label in LABELS}
        assert client.calls == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(total_records=10)  # not a multiple of 4
        with pytest.raises(ValueError):
            GenerationConfig(total_records=0)
        with pytest.raises(ValueError):
            GenerationConfig(batch_size=0)
        with pytest.raises(ValueError):
            GenerationConfig(num_shots=-1)


# ---------------------------------------------------------------- reconciliation


def one_class_target(per_class_world: dict, vocab_limit: int) -> TokenHistogram:
    per_class = {label: {} for label in LABELS}
    per_class[ClassLabel.WORLD] = per_class_world
    return TokenHistogram(per_class=per_class, vocab_limit=vocab_limit)


def world_record(title: str, desc: str) -> NewsRecord:
    return NewsRecord(title, desc, ClassLabel.WORLD)


class DrawLog(np.random.Generator):
    """``make_rng(seed)`` that also lists the arguments of each draw made on it."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def choice(self, a, size=None, replace=True, **kwargs):
        self.calls.append(("choice", int(a), int(size), replace))
        return super().choice(a, size=size, replace=replace, **kwargs)

    def integers(self, low, high=None, size=None, **kwargs):
        self.calls.append(("integers", int(low), int(high), int(size)))
        return super().integers(low, high, size=size, **kwargs)


class TestReconcile:
    def test_matching_target_is_a_no_op(self):
        corpus = mock_original_corpus(4, seed=8)
        hist = build_histogram(corpus, vocab_limit=10)
        out = reconcile_corpus(corpus, hist, make_rng(0))
        assert out.records == corpus.records

    def test_untouched_records_keep_their_bytes(self):
        keep = world_record("alpha beta", "gamma delta")
        edit = world_record("zeta! zeta?", "zeta epsi")
        corpus = Corpus((keep, edit))
        target = one_class_target({"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "zeta": 1, "epsi": 1}, 6)
        out = reconcile_corpus(corpus, target, make_rng(1))
        assert out.records[0] is keep
        # the edited record was re-rendered from tokens, punctuation dropped
        assert "!" not in out.records[1].title

    def test_deletions_hit_the_exact_count(self):
        corpus = Corpus((world_record("alpha beta", "alpha gamma alpha"),))
        target = one_class_target({"alpha": 1, "beta": 1, "gamma": 1}, 3)
        out = reconcile_corpus(corpus, target, make_rng(2))
        tokens = tokenize(out.records[0].title) + tokenize(out.records[0].description)
        assert tokens.count("alpha") == 1
        assert tokens.count("beta") == 1 and tokens.count("gamma") == 1

    def test_insertions_hit_the_exact_count(self):
        corpus = Corpus((world_record("alpha zz", "alpha story"),))
        target = one_class_target({"alpha": 5}, 1)
        out = reconcile_corpus(corpus, target, make_rng(3))
        tokens = tokenize(out.records[0].title) + tokenize(out.records[0].description)
        assert tokens.count("alpha") == 5
        # tokens outside the target vocabulary are preserved
        assert tokens.count("zz") == 1 and tokens.count("story") == 1

    def test_empty_title_promotes_a_description_token(self):
        corpus = Corpus((world_record("alpha", "beta gamma"),))
        target = one_class_target({"alpha": 0, "beta": 1, "gamma": 1}, 3)
        out = reconcile_corpus(corpus, target, make_rng(4))
        assert out.records[0].title == "beta"
        assert out.records[0].description == "gamma"

    def test_fully_emptied_record_gets_placeholder_fields(self):
        corpus = Corpus((world_record("alpha", "alpha alpha"),))
        target = one_class_target({"alpha": 0}, 1)
        out = reconcile_corpus(corpus, target, make_rng(5))
        assert out.records[0].title == "."
        assert out.records[0].description == "."
        assert tokenize(out.records[0].title) == []

    def test_copies_into_an_emptied_description_land_in_the_title(self):
        # Deletions take every description token, so the cut is the last
        # entry of the record's list and no copy can land after it.
        corpus = Corpus((world_record("aa bb", "zz zz"),))
        target = one_class_target({"zz": 0, "xx": 3}, 2)
        for seed in range(50):
            out = reconcile_corpus(corpus, target, make_rng(seed))
            title = out.records[0].title.split()
            assert sorted(title) == ["aa", "bb", "xx", "xx", "xx"]
            assert [w for w in title if w != "xx"] == ["aa", "bb"]
            assert out.records[0].description == "."
            assert class_counts_restricted(out, target.per_class) == {
                label: dict(target.per_class.get(label, {})) for label in LABELS
            }

    def test_insertions_need_records_in_class(self):
        corpus = Corpus((world_record("alpha", "beta"),))
        per_class = {label: {} for label in LABELS}
        per_class[ClassLabel.SPORTS] = {"match": 2}
        target = TokenHistogram(per_class=per_class, vocab_limit=1)
        with pytest.raises(ValueError, match="^class Sports has no records to absorb insertions$"):
            reconcile_corpus(corpus, target, make_rng(0))

    def test_determinism(self):
        corpus = mock_original_corpus(6, seed=1)
        hist = build_histogram(corpus, vocab_limit=8)
        noisy = perturb_histogram(
            hist, PrivacyParams(epsilon=1.0), SensitivityBound(l1=10.0, l2=5.0), make_rng(7)
        )
        a = reconcile_corpus(corpus, noisy, make_rng(42))
        b = reconcile_corpus(corpus, noisy, make_rng(42))
        assert a.records == b.records
        c = reconcile_corpus(corpus, noisy, make_rng(43))
        assert c.records != b.records

    @pytest.mark.parametrize("case", range(25))
    def test_reconciled_counts_match_noisy_target_exactly(self, case):
        rng = make_rng(subseed(1000, "recon-case", case))
        corpus = mock_original_corpus(int(rng.integers(3, 9)), seed=case)
        vocab_limit = int(rng.integers(3, 12))
        hist = build_histogram(corpus, vocab_limit=vocab_limit)
        epsilon = float(rng.choice([0.4, 1.0, 3.0]))
        mechanism = Mechanism.LAPLACE if case % 2 == 0 else Mechanism.GAUSSIAN
        params = (
            PrivacyParams(epsilon=epsilon)
            if mechanism is Mechanism.LAPLACE
            else PrivacyParams(epsilon=min(epsilon, 1.0), delta=1e-5, mechanism=mechanism)
        )
        noisy = perturb_histogram(hist, params, SensitivityBound(l1=8.0, l2=4.0), rng)
        out = reconcile_corpus(corpus, noisy, make_rng(subseed(2000, "recon-rng", case)))
        # independent recount, plain Counter arithmetic
        assert class_counts_restricted(out, noisy.per_class) == {
            label: dict(noisy.per_class.get(label, {})) for label in LABELS
        }
        assert len(out.records) == len(corpus.records)
        assert [r.label for r in out.records] == [r.label for r in corpus.records]

    def test_draws_follow_the_documented_order(self):
        # Sports' one record receives 1200 copies; World has deletions, an
        # emptied title and copies of two tokens; Business has no cells;
        # Sci/Tech has deletions only, in two cells.
        world = [world_record("Alpha", "beta gamma"),                # [| beta gamma]
                 world_record("alpha beta", "gamma alpha delta"),    # [beta | gamma delta]
                 world_record("beta delta", "gamma")]                # [beta delta | gamma]
        sports = NewsRecord("match report", "final score", ClassLabel.SPORTS)
        business = NewsRecord("market stocks", "trade deal", ClassLabel.BUSINESS)
        scitech = NewsRecord("chip chip", "chip chip code code code", ClassLabel.SCITECH)
        corpus = Corpus((world[0], sports, world[1], business, world[2], scitech))
        target = TokenHistogram(per_class={
            ClassLabel.WORLD: {"alpha": 0, "beta": 3, "delta": 2, "gamma": 8, "omega": 4},
            ClassLabel.SPORTS: {"match": 1201, "score": 0},
            ClassLabel.BUSINESS: {},
            ClassLabel.SCITECH: {"chip": 2, "code": 1},
        }, vocab_limit=5)
        rng, mirror = DrawLog(77), DrawLog(77)
        out = reconcile_corpus(corpus, target, rng)

        # World: delete all 3 alphas; 5 gammas and 4 omegas go to 3 records,
        # each then draws slots of its list (cut included) plus its copies.
        mirror.choice(3, 3, replace=False)
        received = np.bincount(mirror.integers(0, 3, 9), minlength=3)
        for length, k in zip([3, 4, 4], received.tolist()):
            if k:
                mirror.choice(length + k - 1, k, replace=False)
        # Sports: "match" takes copies, so only "score", later in token order,
        # draws a deletion; then its one record takes all 1200 copies.
        mirror.choice(1, 1, replace=False)
        mirror.integers(0, 1, 1200)
        mirror.choice(4 + 1200 - 1, 1200, replace=False)
        # Business draws nothing; Sci/Tech deletes 2 of its 4 chips, then 2
        # of its 3 codes.
        mirror.choice(4, 2, replace=False)
        mirror.choice(3, 2, replace=False)

        assert rng.calls == mirror.calls
        assert rng.bit_generator.state == mirror.bit_generator.state
        assert out.records[3] is business
        assert tokenize(f"{out.records[1].title} {out.records[1].description}").count("match") == 1201

    def test_count_vocab_tokens_helper_agrees_with_oracle(self):
        corpus = mock_original_corpus(4, seed=3)
        hist = build_histogram(corpus, vocab_limit=6)
        ours = count_vocab_tokens(corpus, hist)
        theirs = class_counts_restricted(corpus, hist.per_class)
        assert {k: dict(v) for k, v in ours.items()} == theirs


class TestReconcileDistribution:
    """Edits are uniform: the record that absorbs an insertion, the boundary
    it lands on, and the occurrences a deletion removes. Each test reconciles
    a tiny one-class corpus under a few thousand fixed seeds and compares the
    outcome frequencies with the uniform law by a chi-square test."""

    SEEDS = range(3000)

    @staticmethod
    def assert_uniform(outcomes, support):
        from collections import Counter

        from scipy.stats import chisquare

        counts = Counter(outcomes)
        assert set(counts) == set(support), sorted(set(counts) ^ set(support))
        observed = [counts[s] for s in support]
        assert chisquare(observed).pvalue > 1e-3, dict(zip(support, observed))

    def test_inserted_copy_lands_in_a_uniform_record(self):
        corpus = Corpus(tuple(world_record("aa bb", "cc dd") for _ in range(3)))
        target = one_class_target({"zz": 1}, 1)
        chosen = []
        for seed in self.SEEDS:
            out = reconcile_corpus(corpus, target, make_rng(seed))
            edited = [i for i, (a, b) in enumerate(zip(corpus.records, out.records)) if a is not b]
            assert len(edited) == 1
            chosen.append(edited[0])
        self.assert_uniform(chosen, [0, 1, 2])

    def test_inserted_copy_lands_on_a_uniform_boundary(self):
        # Title "aa bb" has three boundaries; description "cc dd ee" has four,
        # but nothing is ever inserted after its last token.
        corpus = Corpus((world_record("aa bb", "cc dd ee"),))
        target = one_class_target({"zz": 1}, 1)
        landed = []
        for seed in self.SEEDS:
            rec = reconcile_corpus(corpus, target, make_rng(seed)).records[0]
            title, desc = rec.title.split(), rec.description.split()
            landed.append(("title", title.index("zz")) if "zz" in title else ("desc", desc.index("zz")))
        self.assert_uniform(landed, [(f, p) for f in ("title", "desc") for p in range(3)])

    def test_copies_of_two_tokens_in_one_record_are_uniformly_arranged(self):
        # Two single-token insertions into the same record must look like two
        # sequential uniform-boundary inserts: 3 * 4 equally likely layouts.
        corpus = Corpus((world_record("aa", "bb"),))
        target = one_class_target({"xx": 1, "yy": 1}, 2)
        layouts = []
        for seed in self.SEEDS:
            rec = reconcile_corpus(corpus, target, make_rng(seed)).records[0]
            layouts.append((rec.title, rec.description))
        # "|" stands for the title/description boundary; nothing follows "bb".
        support = set()
        for b1 in range(3):
            for b2 in range(4):
                seq = ["aa", "|", "bb"]
                seq.insert(b1, "xx")
                seq.insert(b2, "yy")
                cut = seq.index("|")
                support.add((" ".join(seq[:cut]), " ".join(seq[cut + 1:])))
        assert len(support) == 12
        self.assert_uniform(layouts, sorted(support))

    def test_deleted_occurrences_are_uniform(self):
        # Four occurrences of zz, two of them must go: six surviving pairs.
        corpus = Corpus((world_record("zz aa zz", "zz bb zz"),))
        target = one_class_target({"zz": 2}, 1)
        kept = []
        for seed in self.SEEDS:
            rec = reconcile_corpus(corpus, target, make_rng(seed)).records[0]
            kept.append((rec.title, rec.description))
        support = set()
        for drop in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            seq = ["zz", "aa", "zz", "|", "zz", "bb", "zz"]
            zz = [i for i, w in enumerate(seq) if w == "zz"]
            survivors = [w for i, w in enumerate(seq) if i not in {zz[d] for d in drop}]
            cut = survivors.index("|")
            support.add((" ".join(survivors[:cut]), " ".join(survivors[cut + 1:])))
        assert len(support) == 6
        self.assert_uniform(kept, sorted(support))
