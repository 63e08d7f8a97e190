"""A fake chat-completions endpoint on loopback, owned by the benchmark.

Generation requests get a fenced JSON array of records drawn from the
workload's ClassModel. The content depends only on the workload seed and the
index of the generation request since the last ``reset()``: all generation
requests of a run carry the same body, so the index is what tells them apart.
Classification requests are answered from the true label of the queried
record; a fixed share, chosen by a hash of the seed and the prompt, is
answered wrongly or unparseably, so ICL accuracy is neither 0 nor 1 and
stays the same under any request order.

``max_tokens`` is ignored: dpsynth sends gen.max_tokens = 200 as the cap of a
whole 16-record batch (about 370 words), so an endpoint that honoured it
would truncate every batch and the run would end in QuotaUnreachable.
"""
from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from inputs import CLASSES, PROMPT_LABELS, ClassModel, rng_for

CLASSIFICATION_HEAD = "You are a helpful assistant."
_QUERY_RE = re.compile(r"for the follwoing news:\nTitle: (.*)\nDescription: (.*)\Z", re.DOTALL)
_COUNT_RE = re.compile(r"Now generate (\d+) different")

# Tuning choices (see README.md): ICL accuracies stay strictly between 0 and
# 1, and some generated records are dropped by dpsynth's parser.
UNPARSEABLE_SHARE = 0.12
WRONG_SHARE = 0.18
MALFORMED_SHARE = 0.03
UNPARSEABLE_ANSWER = "I am not able to tell which class this news belongs to."


def icl_answer(seed: int, prompt: str, true_class: str | None) -> str | None:
    """The class the endpoint names for a classification prompt, or None
    when it answers unparseably on purpose (or cannot find the query)."""
    if true_class is None:
        return None
    h = hashlib.sha256(f"{seed}:{prompt}".encode("utf-8")).digest()
    u = int.from_bytes(h[:8], "big") / 2.0 ** 64
    if u < UNPARSEABLE_SHARE:
        return None
    k = CLASSES.index(true_class)
    if u < UNPARSEABLE_SHARE + WRONG_SHARE:
        k = (k + 1 + int(u * 1e6) % 3) % len(CLASSES)
    return CLASSES[k]


class FakeEndpoint:
    """Serves POST requests on 127.0.0.1 from a thread of this process."""

    def __init__(self, model: ClassModel, seed: int, latency_s: float,
                 queries: dict[tuple[str, str], str]):
        self.model = model
        self.seed = seed
        self.latency_s = latency_s
        self.queries = queries
        self._lock = threading.Lock()
        self.reset()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                content = endpoint.answer(body["messages"][0]["content"])
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": content}}]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def reset(self) -> None:
        """Start a new command: zero the counters, the log and the index."""
        with self._lock:
            self.requests = 0
            self.wait_s = 0.0
            self.in_flight = 0
            self.max_in_flight = 0
            self.generation_index = 0
            # (demo block, query key, true class, class answered or None)
            self.icl_log: list[tuple[str, tuple[str, str], str | None, str | None]] = []

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()

    def answer(self, prompt: str) -> str:
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            index = self.generation_index
            if not prompt.startswith(CLASSIFICATION_HEAD):
                self.generation_index += 1
        waited = 0.0
        try:
            t0 = time.perf_counter()
            time.sleep(self.latency_s)
            waited = time.perf_counter() - t0
            if prompt.startswith(CLASSIFICATION_HEAD):
                text = self._classify(prompt)
            else:
                text = self._generate(prompt, index)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.wait_s += waited
        return text

    def _classify(self, prompt: str) -> str:
        m = _QUERY_RE.search(prompt)
        key = (m.group(1), m.group(2)) if m else ("", "")
        true_class = self.queries.get(key)
        given = icl_answer(self.seed, prompt, true_class)
        with self._lock:
            self.icl_log.append((prompt.split("Now predict only")[0], key, true_class, given))
        if given is None:
            return UNPARSEABLE_ANSWER
        return f'Class Label: "{PROMPT_LABELS[CLASSES.index(given)]}"'

    def _generate(self, prompt: str, index: int) -> str:
        m = _COUNT_RE.search(prompt)
        n = int(m.group(1)) if m else 8
        rng = rng_for(self.seed, "endpoint-batch", index)
        # Rotate the class order per request, so that short tail requests
        # (one or two missing records) still reach every class.
        labels = (np.arange(n) + index) % len(CLASSES)
        malformed = rng.random(n) < MALFORMED_SHARE
        items = []
        for (title, desc), k, bad in zip(self.model.records(rng, labels), labels, malformed):
            item = {"Title": title, "Description": desc, "Class_Label": PROMPT_LABELS[k]}
            if bad:
                del item["Description"]
            items.append(item)
        return "```json\n" + json.dumps(items, indent=1) + "\n```"
