"""Corpus reconciliation: edit records until protected token counts match a target.

After a histogram release is noised, the corpus itself must agree with the
released counts, otherwise the text would leak the true statistics. For every
(class, token) cell in the target vocabulary the corpus is edited at token
granularity: surplus occurrences are deleted uniformly at random, missing
occurrences are inserted as copies at uniformly random token boundaries of
uniformly chosen records. Tokens outside the target vocabulary are never
touched.

Each record is one token list: its title, a cut, then its description. Each
class is edited from an index of (record, position) occurrences built in one
pass over its lists. All of a class's deletions come first; then every
missing copy gets its record, one count over (record, token) groups the
copies by record, and one pass over an object array merges every receiving
record's copies into its list. A record's copies take an ordered sample of
distinct slots of its merged list, all but the last, and its old entries fill
the rest in order: the law of that many sequential inserts at uniform
boundaries, before any token or the cut, never after the list's last entry.
The render splits the list at the cut, moved past the first token when the
title is empty and a token is left.

Edited records are re-rendered as space-joined token sequences; tokenize()
is idempotent on exactly that form, which is what makes the recount land on
the target. Untouched records keep their original text byte for byte.

The generator is consumed single-threaded in a fixed order. Classes go in
enum order. Within a class: one draw of the occurrences to delete per
over-full cell, tokens lexicographically; one draw of the target records of
all the class's missing copies (copies listed by token, lexicographically);
then one draw of slots per receiving record, in record order. The grouping
and the merge draw nothing. A seeded generator therefore reproduces the edit
sequence exactly.
"""
from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..corpus import LABELS, Corpus, NewsRecord, tokenize
from ..dp import TokenHistogram

# A field whose tokens were all deleted is rendered as ".": non-empty text
# that tokenizes to nothing, so record invariants hold and counts do not move.
_EMPTY_FIELD = "."
# Marks the title/description cut in a record's token list; equal to no token.
_CUT = object()


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
    seqs = [tokenize(r.title) + [_CUT] + tokenize(r.description) for r in synthetic.records]
    edited = set()

    for k, label in enumerate(LABELS):
        cells = target.per_class.get(label, {})
        idx = np.flatnonzero(synthetic.label_ids == k).tolist()
        occurrences: dict = {token: [] for token in cells}
        for i in idx:
            for pos, word in enumerate(seqs[i]):
                hits = occurrences.get(word)
                if hits is not None:
                    hits.append((i, pos))

        doomed: dict = {}
        needed = {}
        for token in sorted(cells):
            hits = occurrences[token]
            surplus = len(hits) - cells[token]
            if surplus > 0:
                for j in rng.choice(len(hits), size=surplus, replace=False).tolist():
                    i, pos = hits[j]
                    doomed.setdefault(i, set()).add(pos)
            elif surplus < 0:
                needed[token] = -surplus
        for i, positions in doomed.items():
            seqs[i] = [word for pos, word in enumerate(seqs[i]) if pos not in positions]
            edited.add(i)

        if not needed:
            continue
        if not idx:
            raise ValueError(
                f"class {label.value} has no records to absorb insertions"
            )
        # Copy c is token tok[c] (copies listed by token) and goes to record
        # idx[r[c]]; counting (record, token) cells lists each record's copies
        # in that order.
        n_tokens = len(needed)
        tok = np.repeat(np.arange(n_tokens), list(needed.values()))
        r = rng.integers(0, len(idx), size=len(tok))
        counts = np.bincount(r * n_tokens + tok, minlength=len(idx) * n_tokens)
        cell = np.repeat(np.arange(counts.size), counts)
        per_record = counts.reshape(len(idx), n_tokens).sum(axis=1).tolist()
        takers = [i for i, n in zip(idx, per_record) if n]
        n_copies = [n for n in per_record if n]
        # Record i's merged list is merged[start:start + size]: its copies take
        # an ordered sample of distinct slots, all but the last, and its old
        # entries fill the rest in order.
        sizes = [len(seqs[i]) + n for i, n in zip(takers, n_copies)]
        starts = np.cumsum([0] + sizes).tolist()
        slots = np.concatenate([start + rng.choice(size - 1, size=n, replace=False)
                                for n, start, size in zip(n_copies, starts, sizes)])
        merged = np.empty(starts[-1], dtype=object)
        merged[slots] = np.array(list(needed), dtype=object)[cell % n_tokens]
        old = np.ones(len(merged), dtype=bool)
        old[slots] = False
        merged[old] = [word for i in takers for word in seqs[i]]
        merged = merged.tolist()
        for i, start, size in zip(takers, starts, sizes):
            seqs[i] = merged[start:start + size]
        edited.update(takers)

    records = list(synthetic.records)
    for i in edited:
        words = seqs[i]
        cut = words.index(_CUT)
        del words[cut]
        # An emptied title takes the first description token, if any is left.
        cut = max(cut, min(1, len(words)))
        records[i] = NewsRecord(
            title=" ".join(words[:cut]) or _EMPTY_FIELD,
            description=" ".join(words[cut:]) or _EMPTY_FIELD,
            label=records[i].label,
        )
    result = Corpus(tuple(records))
    del seqs  # freed before the recount, which tokenizes the result afresh
    _verify_counts(result, target)
    return result


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


def _verify_counts(corpus: Corpus, target: TokenHistogram) -> None:
    actual = count_vocab_tokens(corpus, target)
    for label in LABELS:
        cells = target.per_class.get(label, {})
        diff = {t: (actual[label][t], c) for t, c in cells.items() if actual[label][t] != c}
        if diff:
            raise AssertionError(f"reconciliation failed for {label.value}: {diff}")
