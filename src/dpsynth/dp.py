"""Token histograms and their differentially private release.

Calibration follows the standard mechanisms: Laplace noise with scale
b = l1_sensitivity / epsilon gives pure epsilon-DP, and Gaussian noise with
sigma = l2_sensitivity * sqrt(2 * ln(1.25 / delta)) / epsilon gives
(epsilon, delta)-DP for epsilon in (0, 1]. Samplers are explicit transforms
of PCG64 uniforms so draws are bit-stable across platforms for a fixed seed.
Rounding and clamping the noised counts is post-processing and does not
weaken the guarantee.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .corpus import LABELS, TOKENIZER_ID, ClassLabel, Corpus, count_tokens


class Mechanism(Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PrivacyParams:
    """A privacy target. epsilon must be > 0; Gaussian additionally needs delta > 0."""

    epsilon: float
    delta: float = 0.0
    mechanism: Mechanism = Mechanism.LAPLACE

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0 <= self.delta < 1):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.mechanism is Mechanism.GAUSSIAN and self.delta == 0:
            raise ValueError("the Gaussian mechanism requires delta > 0")

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "mechanism": self.mechanism.value,
        }


@dataclass(frozen=True)
class SensitivityBound:
    """L1/L2 sensitivity of the released statistic to one record."""

    l1: float
    l2: float

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0):
            raise ValueError("sensitivities must be positive")
        if self.l2 > self.l1:
            raise ValueError("l2 sensitivity cannot exceed l1 sensitivity")

    def to_json_dict(self) -> dict:
        return asdict(self)


# Assumed, not enforced: nothing clips a document's contribution, and
# swapping one n-token document can move the histogram by up to 2n in L1.
DEFAULT_SENSITIVITY = SensitivityBound(l1=200.0, l2=math.sqrt(200.0))


# ---------------------------------------------------------------- calibration

def noise_scale(params: PrivacyParams, sensitivity: SensitivityBound) -> float:
    """Laplace scale b = l1 / epsilon, or Gaussian sigma =
    l2 * sqrt(2 ln(1.25/delta)) / epsilon.

    The Gaussian calibration is valid only for epsilon in (0, 1]; a larger
    epsilon raises ValueError rather than silently extrapolating the
    bound. So does any epsilon whose scale is not positive and finite.
    """
    if params.mechanism is Mechanism.LAPLACE:
        scale = sensitivity.l1 / params.epsilon
    elif params.epsilon > 1:
        raise ValueError(
            f"analytic Gaussian calibration is valid for epsilon <= 1, got {params.epsilon}"
        )
    else:
        scale = sensitivity.l2 * math.sqrt(2.0 * math.log(1.25 / params.delta)) / params.epsilon
    if not (0 < scale < math.inf):
        raise ValueError(
            f"epsilon {params.epsilon} gives noise scale {scale}, not positive and finite"
        )
    return scale


# ---------------------------------------------------------------- samplers

def sample_laplace(rng: np.random.Generator, b: float, size: int | None = None):
    """Laplace(0, b) draws by the inverse CDF, one PCG64 uniform each, so a
    draw of ``size`` values consumes the stream exactly as ``size`` scalar
    calls do. A uniform of 0 (probability 2^-53) puts 0 in the log; it is
    clamped to the smallest positive float so the output stays finite.
    """
    if not (b > 0):
        raise ValueError("scale b must be positive")
    u = rng.random(size) - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
    return -b * np.sign(u) * np.log(mag)


def sample_gaussian(rng: np.random.Generator, sigma: float, size: int | None = None):
    """N(0, sigma^2) draws by the Box-Muller cosine branch, one pair of PCG64
    uniforms (u1, u2) each, so a draw of ``size`` values consumes the stream
    exactly as ``size`` scalar calls do. The sine branch is discarded, and
    1 - u1 is in (0, 1], which keeps the log finite.
    """
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    u1, u2 = rng.random(2 if size is None else (size, 2)).T
    return sigma * np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


# ---------------------------------------------------------------- histograms

@dataclass(frozen=True)
class TokenHistogram:
    """Per-class counts of the top-K tokens (ties broken lexicographically).

    Counts are nonnegative ints. A released histogram also carries the
    privacy parameters and sensitivity bound its noise was calibrated to;
    a true one leaves both None.
    """

    per_class: dict[ClassLabel, dict[str, int]]
    vocab_limit: int
    params: PrivacyParams | None = None
    sensitivity: SensitivityBound | None = None

    def __post_init__(self):
        for label, cells in self.per_class.items():
            for token, count in cells.items():
                if not isinstance(count, int) or count < 0:
                    raise ValueError(
                        f"count for ({label.value}, {token!r}) must be a nonnegative int"
                    )

    @property
    def fingerprint(self) -> str:
        """The tokenizer and vocab_limit the counts were taken under."""
        return f"{TOKENIZER_ID}:k{self.vocab_limit}"

    def total(self, label: ClassLabel) -> int:
        return sum(self.per_class.get(label, {}).values())

    def to_json_dict(self) -> dict:
        out = {
            "fingerprint": self.fingerprint,
            "vocab_limit": self.vocab_limit,
            "per_class": {
                label.value: dict(sorted(self.per_class.get(label, {}).items()))
                for label in LABELS
            },
        }
        if self.params is not None:
            out["params"] = self.params.to_json_dict()
            out["sensitivity"] = self.sensitivity.to_json_dict()
        return out


def build_histogram(corpus: Corpus, vocab_limit: int = 500) -> TokenHistogram:
    """Top-``vocab_limit`` token counts per class.

    Ranking is by count descending, then token ascending, so the retained
    vocabulary is deterministic. Counts are exact occurrence counts; no
    clipping happens here. Raises ValueError when there are no records.
    """
    if not corpus.records:
        raise ValueError("cannot build a histogram from an empty corpus")
    if vocab_limit < 1:
        raise ValueError("vocab_limit must be >= 1")
    # Counted like ``token_counts`` but not kept: nothing else reads a raw
    # corpus's counts, and the raw corpus stays alive through every release.
    counts = count_tokens(corpus.records)
    tokens = counts.tokens
    per_class: dict[ClassLabel, dict[str, int]] = {}
    for label, totals in zip(LABELS, counts.class_totals(corpus.label_ids)):
        seen = np.flatnonzero(totals)
        # Columns are lexicographic, so ties on count go to the smaller column.
        ranked = sorted(zip((-totals[seen]).tolist(), seen.tolist()))[:vocab_limit]
        per_class[label] = {tokens[j]: -negative for negative, j in ranked}
    return TokenHistogram(per_class=per_class, vocab_limit=vocab_limit)


# ---------------------------------------------------------------- histogram release

def perturb_histogram(
    histogram: TokenHistogram,
    params: PrivacyParams,
    sensitivity: SensitivityBound,
    rng: np.random.Generator,
) -> TokenHistogram:
    """Noise every histogram cell and round-clamp to nonnegative integers.

    Cells are visited in a fixed order (classes in enum order, tokens
    lexicographically) with one fresh scalar draw each, so a seeded generator
    reproduces the release exactly. Rounding is round-half-to-even.
    """
    scale = noise_scale(params, sensitivity)
    draw = sample_laplace if params.mechanism is Mechanism.LAPLACE else sample_gaussian

    noisy: dict[ClassLabel, dict[str, int]] = {}
    for label in LABELS:
        cells = histogram.per_class.get(label, {})
        out: dict[str, int] = {}
        for token in sorted(cells):
            out[token] = max(0, int(round(cells[token] + draw(rng, scale))))
        noisy[label] = out
    return TokenHistogram(
        per_class=noisy,
        vocab_limit=histogram.vocab_limit,
        params=params,
        sensitivity=sensitivity,
    )


# ---------------------------------------------------------------- budget ledger

@dataclass(frozen=True)
class BudgetLedger:
    """Append-only record of privacy charges under sequential composition."""

    entries: tuple[tuple[str, PrivacyParams], ...] = ()

    @property
    def spent_epsilon(self) -> float:
        return sum(p.epsilon for _, p in self.entries)

    @property
    def spent_delta(self) -> float:
        return sum(p.delta for _, p in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "spent_epsilon": self.spent_epsilon,
            "spent_delta": self.spent_delta,
            "entries": [
                {"label": label, **params.to_json_dict()} for label, params in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> BudgetLedger:
        """The ledger ``to_json_dict`` wrote; the spent totals are recomputed."""
        return cls(entries=tuple((str(e["label"]), PrivacyParams(
            float(e["epsilon"]), float(e["delta"]), Mechanism(e["mechanism"])))
            for e in data["entries"]))


def charge(ledger: BudgetLedger, label: str, params: PrivacyParams) -> BudgetLedger:
    """Return a new ledger with one more charge appended."""
    return BudgetLedger(entries=ledger.entries + ((label, params),))
