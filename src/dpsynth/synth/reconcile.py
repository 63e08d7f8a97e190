"""Corpus reconciliation: edit records until protected token counts match a target.

After a histogram release is noised, the corpus itself must agree with the
released counts, otherwise the text would leak the true statistics. For every
(class, token) cell in the target vocabulary the corpus is edited at token
granularity: surplus occurrences are deleted uniformly at random, missing
occurrences are inserted as copies at uniformly random token boundaries of
uniformly chosen records. Tokens outside the target vocabulary are never
touched.

Each class is edited from an index built in one pass over its tokens. All of
a class's deletions come first; then every missing copy gets its record, and
each receiving record takes all of its copies in one merge. The merge has the
law of that many sequential inserts at uniform boundaries, where a boundary is
any place in the title or description except after the last description
token.

Edited records are re-rendered as space-joined token sequences; tokenize()
is idempotent on exactly that form, which is what makes the recount land on
the target. Untouched records keep their original text byte for byte.

The generator is consumed single-threaded in a fixed order. Classes go in
enum order. Within a class: one draw of the occurrences to delete per
over-full cell, tokens lexicographically; one draw of the target records of
all the class's missing copies (copies listed by token, lexicographically);
then one draw of slots per receiving record, in record order. A seeded
generator therefore reproduces the edit sequence exactly.
"""
from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..corpus import LABELS, Corpus, NewsRecord, tokenize
from ..dp import TokenHistogram

# A field whose tokens were all deleted is rendered as ".": non-empty text
# that tokenizes to nothing, so record invariants hold and counts do not move.
_EMPTY_FIELD = "."
# Marks the title/description cut while a record is merged; never a token.
_CUT = ""


def reconcile_corpus(
    synthetic: Corpus,
    target: TokenHistogram,
    rng: np.random.Generator,
) -> Corpus:
    """Return a copy of ``synthetic`` whose counts match ``target`` exactly.

    Postcondition, verified by an independent recount before returning: for
    every class and every token in the target vocabulary, the exact
    occurrence count in the result equals the target count.
    """
    # Working token state; records are re-rendered only if edited.
    titles = [tokenize(r.title) for r in synthetic.records]
    descs = [tokenize(r.description) for r in synthetic.records]
    dirty = [False] * len(synthetic.records)

    for k, label in enumerate(LABELS):
        cells = target.per_class.get(label, {})
        idx = np.flatnonzero(synthetic.label_ids == k).tolist()
        occurrences: dict = {token: [] for token in cells}
        for i in idx:
            for where, seq in ((0, titles[i]), (1, descs[i])):
                for pos, word in enumerate(seq):
                    hits = occurrences.get(word)
                    if hits is not None:
                        hits.append((i, where, pos))

        doomed: dict = {}
        copies = []
        for token in sorted(cells):
            hits = occurrences[token]
            surplus = len(hits) - int(cells[token])
            if surplus > 0:
                for j in rng.choice(len(hits), size=surplus, replace=False).tolist():
                    i, where, pos = hits[j]
                    doomed.setdefault((i, where), set()).add(pos)
            elif surplus < 0:
                copies.extend([token] * -surplus)
        for (i, where), positions in doomed.items():
            seqs = titles if where == 0 else descs
            seqs[i] = [word for pos, word in enumerate(seqs[i]) if pos not in positions]
            dirty[i] = True

        if not copies:
            continue
        if not idx:
            raise ValueError(
                f"class {label.display} has no records to absorb insertions"
            )
        received: dict = {}
        for token, r in zip(copies, rng.integers(0, len(idx), size=len(copies)).tolist()):
            received.setdefault(idx[r], []).append(token)
        for i in sorted(received):
            titles[i], descs[i] = _merge(titles[i], descs[i], received[i], rng)
            dirty[i] = True

    records = []
    for i, rec in enumerate(synthetic.records):
        if not dirty[i]:
            records.append(rec)
            continue
        title_tokens, desc_tokens = titles[i], descs[i]
        if not title_tokens and desc_tokens:
            # Keep the title non-empty by promoting a description token;
            # pooled per-record counts are unchanged.
            title_tokens = [desc_tokens[0]]
            desc_tokens = desc_tokens[1:]
        records.append(
            NewsRecord(
                title=" ".join(title_tokens) or _EMPTY_FIELD,
                description=" ".join(desc_tokens) or _EMPTY_FIELD,
                label=rec.label,
            )
        )
    result = Corpus(tuple(records))
    del titles, descs  # freed before the recount, which tokenizes the result afresh
    _verify_counts(result, target)
    return result


def _merge(title: list, desc: list, new: list, rng: np.random.Generator):
    """Insert the ``new`` tokens into one record in a single pass.

    Same law as len(new) sequential inserts, each at a uniform boundary
    before a title token, the title/description cut or a description token:
    the copies take a uniform set of slots of the merged sequence, in
    uniform order, and the last slot keeps what was last before the merge,
    so nothing lands after the last description token.
    """
    seq = title + [_CUT] + desc
    merged = [None] * (len(seq) + len(new))
    # An ordered sample of distinct slots is a uniform slot set and a
    # uniform order of the copies in one draw.
    slots = rng.choice(len(merged) - 1, size=len(new), replace=False)
    for slot, token in zip(slots.tolist(), new):
        merged[slot] = token
    rest = iter(seq)
    merged = [word if word is not None else next(rest) for word in merged]
    cut = merged.index(_CUT)
    return merged[:cut], merged[cut + 1:]


def count_vocab_tokens(corpus: Corpus, target: TokenHistogram) -> dict:
    """Exact per-class counts of the target-vocabulary tokens in ``corpus``.

    Read from the corpus's count matrix, built from the rendered records and
    never from reconciliation's working state (later models reuse it)."""
    tokens = corpus.token_counts.tokens
    out = {}
    for label, totals in zip(LABELS, corpus.token_counts.class_totals(corpus.label_ids)):
        out[label] = {}
        for t in target.per_class.get(label, {}):
            j = bisect_left(tokens, t)  # the columns are sorted
            out[label][t] = int(totals[j]) if tokens[j:j + 1] == (t,) else 0
    return out


def _verify_counts(corpus: Corpus, target) -> None:
    actual = count_vocab_tokens(corpus, target)
    for label in LABELS:
        expected = target.per_class.get(label, {})
        if actual[label] != {t: int(c) for t, c in expected.items()}:
            diff = {
                t: (actual[label].get(t), expected[t])
                for t in expected
                if actual[label].get(t) != expected[t]
            }
            raise AssertionError(f"reconciliation failed for {label.display}: {diff}")
