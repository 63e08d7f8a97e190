from .features import TfIdfModel, fit_tfidf, transform, transform_corpus
from .icl import (
    IclConfig,
    build_icl_prompt,
    icl_evaluate,
    parse_label_response,
    select_icl_demos,
)
from .mnb import MnbModel, mnb_posterior, mnb_predict, mnb_scores, train_mnb
from .report import (
    EvalReport,
    evaluate,
    predict,
    render_icl_table,
    render_model_table,
    render_sweep_table,
    rep_shots,
)
from .svm import (
    DEFAULT_C_GRID,
    SvmModel,
    svm_margins,
    svm_predict,
    train_svm,
)

__all__ = [
    "DEFAULT_C_GRID",
    "EvalReport",
    "IclConfig",
    "MnbModel",
    "SvmModel",
    "TfIdfModel",
    "build_icl_prompt",
    "evaluate",
    "fit_tfidf",
    "icl_evaluate",
    "mnb_posterior",
    "mnb_predict",
    "mnb_scores",
    "parse_label_response",
    "predict",
    "render_icl_table",
    "render_model_table",
    "render_sweep_table",
    "rep_shots",
    "select_icl_demos",
    "svm_margins",
    "svm_predict",
    "train_mnb",
    "train_svm",
    "transform",
    "transform_corpus",
]
