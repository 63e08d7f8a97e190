"""Exact accuracy accounting on label-id arrays, and JSON/markdown report rendering."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import LABELS, ClassLabel, Corpus
# Not called here: perfbench/tracer.py counts single-record featurizations
# through this name, and a run that makes none reads 0.
from .features import transform  # noqa: F401


@dataclass(frozen=True)
class EvalReport:
    model_tag: str
    train_source: str                      # "Original" | "Synthetic"
    accuracy: float
    per_class_accuracy: dict[ClassLabel, float]
    n_test: int
    config_fingerprint: str = ""
    n_unparseable: int = 0                 # ICL only: responses with no readable label

    def to_json_dict(self) -> dict:
        return {
            "model_tag": self.model_tag,
            "train_source": self.train_source,
            "accuracy": self.accuracy,
            "per_class_accuracy": {
                label.value: acc for label, acc in self.per_class_accuracy.items()
            },
            "n_test": self.n_test,
            "config_fingerprint": self.config_fingerprint,
            "n_unparseable": self.n_unparseable,
        }


def evaluate(
    predictions: np.ndarray,
    test: Corpus,
    *,
    model_tag: str = "model",
    train_source: str = "Original",
    config_fingerprint: str = "",
    n_unparseable: int = 0,
) -> EvalReport:
    """Score one predicted label id per test record, in record order.

    Ids are positions in LABELS, as ``Corpus.label_ids`` gives them; -1 (an
    answer with no readable label) counts as wrong. Accuracy is the exact
    ratio correct / n.
    """
    if not test.records:
        raise ValueError("cannot evaluate on an empty corpus")
    predictions = np.asarray(predictions)
    if len(predictions) != len(test.records):
        raise ValueError(
            f"{len(predictions)} predictions for {len(test.records)} test records"
        )
    truth = test.label_ids
    hits = predictions == truth
    class_total = np.bincount(truth, minlength=len(LABELS)).tolist()
    class_correct = np.bincount(truth[hits], minlength=len(LABELS)).tolist()
    return EvalReport(
        model_tag=model_tag,
        train_source=train_source,
        accuracy=int(hits.sum()) / len(test.records),
        per_class_accuracy={
            label: class_correct[k] / class_total[k]
            for k, label in enumerate(LABELS) if class_total[k]
        },
        n_test=len(test.records),
        config_fingerprint=config_fingerprint,
        n_unparseable=n_unparseable,
    )


# ---------------------------------------------------------------- markdown

def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def render_accuracy_table(rows: dict[str, tuple[EvalReport, EvalReport]], key: str,
                          sources: str) -> str:
    """Accuracy on original vs synthetic data, one line per row in insertion
    order. A row is keyed by its model name (``key="Method"``,
    ``sources="Data"``) or by its ICL shot count, as in ``"4-shot"``
    (``key="Shots"``, ``sources="Demos"``), and holds the Original and the
    Synthetic report, in that order."""
    lines = [
        f"| {key} | Accuracy (Original {sources}) | Accuracy (Synthetic {sources}) |",
        "| --- | --- | --- |",
    ]
    for name, (original, synthetic) in rows.items():
        lines.append(f"| {name} | {_pct(original.accuracy)} | {_pct(synthetic.accuracy)} |")
    return "\n".join(lines)


def render_sweep_table(rows: list[dict]) -> str:
    """Accuracy by privacy level; one row per (model, epsilon).

    Each row dict needs: model, epsilon_requested, epsilon_used, floored,
    accuracy_mean, accuracy_sd, n_seeds.
    """
    lines = [
        "| Method | epsilon | Accuracy |",
        "| --- | --- | --- |",
    ]
    for row in rows:
        eps = row["epsilon_requested"]
        note = f" (ran at {row['epsilon_used']})" if row.get("floored") else ""
        acc = _pct(row["accuracy_mean"])
        if row.get("n_seeds", 1) > 1:
            acc += f" +/- {_pct(row['accuracy_sd'])}"
        lines.append(f"| {row['model']} | {eps}{note} | {acc} |")
    return "\n".join(lines)
