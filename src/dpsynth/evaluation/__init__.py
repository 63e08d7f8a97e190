from .features import TfIdfModel, fit_tfidf, transform, transform_corpus
from .icl import (
    IclConfig,
    icl_evaluate,
    parse_label_response,
    select_icl_demos,
)
from .linear import LinearModel, predict, probabilities, scores
from .mnb import train_mnb
from .report import (
    EvalReport,
    evaluate,
    render_icl_table,
    render_model_table,
    render_sweep_table,
    rep_shots,
)
from .svm import DEFAULT_C_GRID, train_svm

__all__ = [
    "DEFAULT_C_GRID",
    "EvalReport",
    "IclConfig",
    "LinearModel",
    "TfIdfModel",
    "evaluate",
    "fit_tfidf",
    "icl_evaluate",
    "parse_label_response",
    "predict",
    "probabilities",
    "render_icl_table",
    "render_model_table",
    "render_sweep_table",
    "rep_shots",
    "scores",
    "select_icl_demos",
    "train_mnb",
    "train_svm",
    "transform",
    "transform_corpus",
]
