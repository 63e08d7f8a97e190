"""Text-generation backends: a deterministic mock and a chat-completions HTTP client.

Both expose ``complete(prompt, *, temperature, top_p, max_tokens, seed)``.
The mock answers offline, as a function of the prompt and the seed. The
HTTP client sends every argument, the seed included, as an OpenAI-style
chat completion request, retries transient failures with exponential
backoff, and caches each response on disk under the hash of the request
body as sent. So a rerun against a warm cache makes zero HTTP calls and
reproduces the run byte for byte, in whatever order it asks. It posts with
the standard library's ``urllib.request``, imported on the first request.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .mock import mock_classification_response, mock_generation_response, requested_count
from .prompts import CLASSIFICATION_HEAD

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_BACKOFF_BASE_SECONDS = 0.5


@dataclass(frozen=True)
class BackendSpec:
    """Which backend to use and how to reach it."""

    kind: str = "mock"  # "mock" | "http"
    endpoint_url: str = ""
    model_name: str = ""
    auth_env_var: str = ""
    max_concurrent: int = 1
    retry_limit: int = 3

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ValueError(f"backend kind must be 'mock' or 'http', got {self.kind!r}")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.kind == "http" and (not self.endpoint_url or not self.model_name):
            raise ValueError("http backend requires endpoint_url and model_name")


class ResponseCache:
    """Content-addressed response store: one file per request, one response each.

    ``<key>.json`` holds ``{"request": ..., "response": ...}``, where the key
    is ``key_for(request)``. A put writes a temp file of its own and renames
    it over the key's file, so a reader sees a whole entry or none, and of
    two writers of one key the last rename wins. ``get`` reads the file on
    every call; a file that is not a whole entry is a miss, and the next put
    replaces it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_for(request_body: dict) -> str:
        """sha256 of the request body's canonical JSON."""
        canon = json.dumps(request_body, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The stored response for this key, or None."""
        try:
            return json.loads(self._path(key).read_bytes())["response"]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, request_body: dict, response_text: str) -> None:
        tmp = self.directory / f"{key}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"request": request_body, "response": response_text}, fh,
                          ensure_ascii=False)
            os.replace(tmp, self._path(key))
        finally:
            tmp.unlink(missing_ok=True)


class _Counted:
    """Call counters in ``stats``; the ICL and generation thread pools bump them
    concurrently."""

    def __init__(self):
        self.stats = {"mock_calls": 0, "http_requests": 0, "cache_hits": 0}
        self._stats_lock = threading.Lock()

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1


class MockClient(_Counted):
    """Offline backend; see dpsynth.synth.mock for the content model."""

    def complete(self, prompt: str, *, temperature: float, top_p: float,
                 max_tokens: int, seed: int) -> str:
        self._count("mock_calls")
        if prompt.startswith(CLASSIFICATION_HEAD):
            return mock_classification_response(prompt)
        prompt_hash = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        return mock_generation_response(prompt_hash, seed, requested_count(prompt, fallback=8))


@functools.cache
def _https_opener():
    """One opener for every HTTPS request, sharing one TLS context: building
    a context loads the CA bundle, which costs tens of milliseconds of CPU."""
    import ssl
    from urllib.request import HTTPSHandler, build_opener

    return build_opener(HTTPSHandler(context=ssl.create_default_context()))


def _default_transport(url: str, headers: dict, body: dict) -> tuple[int, str]:
    # only the HTTP backend's first request pays for these imports
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    request = Request(url, data=json.dumps(body).encode("utf-8"), headers=headers)
    open_url = _https_opener().open if request.type == "https" else urlopen
    try:
        try:
            with open_url(request, timeout=120) as resp:
                return resp.status, resp.read().decode("utf-8", "replace")
        except HTTPError as exc:  # a non-2xx status; the caller decides whether to retry
            with exc:
                return exc.code, exc.read().decode("utf-8", "replace")
    except HTTPException as exc:  # a malformed or cut-off response is not an OSError
        raise ConnectionError(f"bad response: {exc!r}") from exc


class HttpClient(_Counted):
    """Chat-completions client with retries, backoff, and a disk cache.

    ``transport`` and ``sleep`` are injectable for tests; the default
    transport posts with ``urllib.request`` and returns ``(status, body)``
    for every HTTP status, raising ``OSError`` only when no response
    arrives whole. A 2xx body must carry the completion text at
    choices[0].message.content.
    """

    def __init__(self, spec: BackendSpec, cache: ResponseCache | None = None,
                 transport=None, sleep=time.sleep):
        super().__init__()
        self.spec = spec
        self.cache = cache
        self.transport = transport or _default_transport
        self.sleep = sleep

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.spec.auth_env_var:
            token = os.environ.get(self.spec.auth_env_var)
            if not token:
                raise RuntimeError(
                    f"environment variable {self.spec.auth_env_var} is not set"
                )
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, prompt: str, *, temperature: float, top_p: float,
                 max_tokens: int, seed: int) -> str:
        body = {
            "model": self.spec.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "top_p": top_p,
            "max_tokens": max_tokens,
            "seed": seed % 2**31,  # subseeds are 64-bit; request parsers take int32
        }
        key = ResponseCache.key_for(body)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self._count("cache_hits")
                return hit

        headers = self._headers()
        attempts = self.spec.retry_limit + 1
        last_reason = "no attempts made"
        for attempt in range(attempts):
            if attempt:
                self.sleep(_BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
            try:
                status, text = self.transport(self.spec.endpoint_url, headers, body)
                self._count("http_requests")
            except OSError as exc:  # URLError and socket timeouts are OSErrors
                last_reason = f"transport error: {exc}"
                continue
            if status in _RETRYABLE_STATUS:
                last_reason = f"status {status}"
                continue
            if not (200 <= status < 300):
                raise RuntimeError(f"backend returned status {status}")
            content = self._extract_content(text)
            if self.cache is not None:
                self.cache.put(key, body, content)
            return content
        raise RuntimeError(
            f"backend unavailable after {attempts} attempts ({last_reason})"
        )

    @staticmethod
    def _extract_content(text: str) -> str:
        try:
            obj = json.loads(text)
            content = obj["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError):
            raise RuntimeError("malformed completion response body") from None
        if not isinstance(content, str):
            raise RuntimeError("completion content is not a string")
        return content


def make_backend(spec: BackendSpec, *, cache_dir: str | Path = ".dpsynth-cache",
                 cache_enabled: bool = True, transport=None, sleep=time.sleep):
    """Construct the client for a BackendSpec."""
    if spec.kind == "mock":
        return MockClient()
    cache = ResponseCache(cache_dir) if cache_enabled else None
    return HttpClient(spec, cache=cache, transport=transport, sleep=sleep)
