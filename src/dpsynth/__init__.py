"""Privacy-preserving synthetic news text.

Generate labeled synthetic records through a prompted backend, release
per-class token histograms under calibrated Laplace or Gaussian noise,
reconcile the corpus to the noised release, then measure what the privacy
cost does to downstream classifiers and how much membership leakage it
removes.
"""

__version__ = "0.1.0"

from .audit import (
    LeakageReport,
    MiaResult,
    collect_confidences,
    compare_leakage,
    threshold_attack,
)
from .corpus import (
    LABELS,
    TOKENIZER_ID,
    ClassLabel,
    Corpus,
    CorpusFormat,
    NewsRecord,
    load_agnews,
    normalize_label,
    sample_split,
    save_jsonl,
    tokenize,
)
from .dp import (
    DEFAULT_SENSITIVITY,
    BudgetLedger,
    Mechanism,
    PrivacyParams,
    SensitivityBound,
    TokenHistogram,
    build_histogram,
    charge,
    noise_scale,
    perturb_histogram,
    sample_gaussian,
    sample_laplace,
)
from .errors import DpSynthError
from .rngutil import make_rng, sub_rng, subseed
from .synth import (
    BackendSpec,
    GenerationConfig,
    make_backend,
    mock_original_corpus,
    reconcile_corpus,
    run_generation,
)

__all__ = [
    "BackendSpec",
    "BudgetLedger",
    "ClassLabel",
    "Corpus",
    "CorpusFormat",
    "DEFAULT_SENSITIVITY",
    "DpSynthError",
    "GenerationConfig",
    "LABELS",
    "LeakageReport",
    "Mechanism",
    "MiaResult",
    "NewsRecord",
    "PrivacyParams",
    "SensitivityBound",
    "TOKENIZER_ID",
    "TokenHistogram",
    "__version__",
    "build_histogram",
    "charge",
    "collect_confidences",
    "compare_leakage",
    "load_agnews",
    "make_backend",
    "make_rng",
    "mock_original_corpus",
    "noise_scale",
    "normalize_label",
    "perturb_histogram",
    "reconcile_corpus",
    "run_generation",
    "sample_gaussian",
    "sample_laplace",
    "sample_split",
    "save_jsonl",
    "sub_rng",
    "subseed",
    "threshold_attack",
    "tokenize",
]
