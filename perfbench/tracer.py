"""Run one dpsynth command in-process with every layer traced from outside.

Usage: python3 perfbench/tracer.py OUT.json <dpsynth arguments...>

The tracer replaces ``dpsynth.cli.stage`` and each layer's public functions
at the names their callers look up (mostly ``dpsynth.cli``'s own imports),
then calls ``dpsynth.cli.main(argv)``. Each wrapper records a span (name,
start, end, parent) in memory; counts are computed from the wrapped calls'
arguments and results, outside the spans. Both are written to OUT.json when
the command ends. Nothing a wrapper does changes what the command computes.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

from checks import tokenize


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        with self._lock:
            stack = self._stacks.setdefault(threading.get_ident(), [])
            # A worker thread's first span hangs under the main thread's open span.
            outer = stack or self._stacks.get(self._main) or [None]
            self.spans.append([name, time.perf_counter(), None, outer[-1]])
            stack.append(len(self.spans) - 1)
            return len(self.spans) - 1

    def close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][2] = end
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, owner, attr: str, span: str | None, after=None, before=None):
        """Replace owner.attr by a wrapper that opens ``span`` around the call
        (no span when None), then calls after(args, kwargs, result, state),
        where state is what before(args, kwargs) returned."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = tracer.open(span) if span else None
            try:
                result = original(*args, **kwargs)
            except Exception:
                if after:
                    after(args, kwargs, None, state)
                raise
            finally:
                if index is not None:
                    tracer.close(index)
            if after:
                after(args, kwargs, result, state)
            return result

        setattr(owner, attr, wrapper)


def install(tr: Tracer) -> None:
    import dpsynth.audit as audit
    import dpsynth.cli as cli
    import dpsynth.dp as dp
    import dpsynth.evaluation.mnb as mnb
    import dpsynth.evaluation.report as report
    import dpsynth.evaluation.svm as svm
    import dpsynth.synth.backends as backends
    import dpsynth.synth.generate as generate
    import dpsynth.synth.reconcile as reconcile
    from dpsynth.corpus import LABELS

    original_stage = cli.stage

    @contextmanager
    def stage(name):
        index = tr.open(f"cli.stage.{name}")
        try:
            with original_stage(name):
                yield
        finally:
            tr.close(index)

    cli.stage = stage

    # corpus
    def loaded(args, kwargs, result, state):
        if result is not None:
            tr.count("corpus.records_loaded", len(result.records))

    def histogram_built(args, kwargs, result, state):
        if result is not None:
            tr.count("corpus.histogram_cells", sum(len(c) for c in result.per_class.values()))

    tr.wrap(cli, "load_agnews", "corpus.load", loaded)
    tr.wrap(cli, "mock_original_corpus", "corpus.load", loaded)
    tr.wrap(cli, "sample_split", "corpus.split")
    tr.wrap(cli, "build_histogram", "corpus.histogram", histogram_built)
    tr.wrap(cli, "save_jsonl", "corpus.save_jsonl")

    # dp: the per-cell draws are captured so clamping can be counted exactly.
    draws: list[float] = []

    def keep_draw(args, kwargs, result, state):
        if result is not None:
            draws.append(float(result))

    tr.wrap(dp, "sample_laplace", None, keep_draw)
    tr.wrap(dp, "sample_gaussian", None, keep_draw)

    def perturbed(args, kwargs, result, state):
        if result is None:
            return
        hist = args[0]
        cells = [hist.per_class.get(label, {}) for label in LABELS]
        flat = [cell[t] for cell in cells for t in sorted(cell)]
        clamped = sum(1 for c, d in zip(flat, draws) if round(c + d) < 0)
        tr.count("dp.cells_clamped", clamped)
        tr.count("dp.mass_added", sum(result.total(label) for label in LABELS) - sum(flat))
        draws.clear()

    tr.wrap(cli, "perturb_histogram", "dp.perturb", perturbed, lambda a, k: draws.clear())

    # synth.generate
    def batch_done(args, kwargs, result, state):
        tr.count("synth.generate.calls")
        if result is not None:
            tr.count("synth.generate.records_parsed", len(result.records))

    def generated(args, kwargs, result, state):
        if result is not None:
            tr.count("synth.generate.records_kept", len(result.records))

    tr.wrap(generate, "generate_batch", None, batch_done)
    tr.wrap(cli, "run_generation", "synth.generate.run", generated)

    # synth.backends
    tr.wrap(backends.MockClient, "complete", "synth.backends.complete")
    tr.wrap(backends.HttpClient, "complete", "synth.backends.complete")
    tr.wrap(backends, "_default_transport", None,
            lambda a, k, r, s: tr.count("synth.backends.http_requests"))

    def key_file_size(args, kwargs):
        cache, key = args[0], args[1]
        try:
            size = os.path.getsize(cache._path(key))
        except OSError:
            size = 0
        tr.count("synth.backends.cache_bytes_read", size)

    def got(args, kwargs, result, state):
        if result is not None:
            tr.count("synth.backends.cache_hits")

    tr.wrap(backends.ResponseCache, "get", "synth.backends.cache_get", got, key_file_size)
    tr.wrap(backends.ResponseCache, "put", "synth.backends.cache_put", None, key_file_size)

    # synth.reconcile: edits are recounted with the benchmark's tokenizer.
    def reconciled(args, kwargs, result, state):
        if result is None:
            return
        synthetic, target = args[0], args[1]
        for label in LABELS:
            cells = target.per_class.get(label, {})
            have = Counter(tok for rec in synthetic.records if rec.label is label
                           for tok in tokenize(rec.title) + tokenize(rec.description)
                           if tok in cells)
            for tok, goal in cells.items():
                diff = goal - have[tok]
                tr.count("synth.reconcile.insertions" if diff > 0
                         else "synth.reconcile.deletions", abs(diff))
        touched = sum(1 for a, b in zip(synthetic.records, result.records)
                      if (a.title, a.description) != (b.title, b.description))
        tr.count("synth.reconcile.records_touched", touched)

    tr.wrap(cli, "reconcile_corpus", "synth.reconcile.run", reconciled)
    tr.wrap(reconcile, "count_vocab_tokens", "synth.reconcile.recount")

    # evaluation.features
    def fitted(args, kwargs, result, state):
        if result is not None:
            tr.maximum("evaluation.features.n_features", result.n_features)

    tr.wrap(cli, "fit_tfidf", "evaluation.features.fit", fitted)
    tr.wrap(report, "transform", "evaluation.features.transform",
            lambda a, k, r, s: tr.count("evaluation.features.transform_calls"))
    for module in (mnb, svm, audit):
        tr.wrap(module, "transform_corpus", "evaluation.features.transform")

    # evaluation models, reports, ICL, audit
    tr.wrap(cli, "train_mnb", "evaluation.mnb.train")
    tr.wrap(cli, "train_svm", "evaluation.svm.train")
    tr.wrap(cli, "evaluate", "evaluation.report.evaluate",
            lambda a, k, r, s: tr.count("evaluation.report.predictions", len(a[1].records)))
    tr.wrap(cli, "icl_evaluate", "evaluation.icl.evaluate",
            lambda a, k, r, s: r is not None and tr.count("evaluation.icl.queries", r.n_test))
    tr.wrap(cli, "collect_confidences", "audit.collect")
    tr.wrap(cli, "threshold_attack", "audit.attack")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import dpsynth.cli

    try:
        return dpsynth.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts),
                       "maxima": tracer.maxima}, fh)


if __name__ == "__main__":
    sys.exit(main())
