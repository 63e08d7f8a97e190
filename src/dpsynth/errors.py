"""Exception types raised across the package.

Everything inherits from DpSynthError so callers (and the CLI) can catch one
base class and still branch on precise conditions.
"""
from __future__ import annotations


class DpSynthError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- corpus

class MalformedRow(DpSynthError):
    """A data file row that cannot be parsed into a record."""

    def __init__(self, row_index: int, reason: str):
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


class UnknownLabel(DpSynthError):
    """A class label string (or index) outside the recognized set."""

    def __init__(self, raw: str):
        super().__init__(f"unknown class label: {raw!r}")
        self.raw = raw


class EmptyFile(DpSynthError):
    """Input file contains no records."""


class EmptyCorpus(DpSynthError):
    """An operation that needs records received none."""


class InsufficientRecords(DpSynthError):
    """Not enough records to satisfy a sampling or editing request."""


class NonDivisibleSize(DpSynthError):
    """A stratified size that is not a multiple of the class count."""


# ---------------------------------------------------------------- dp

class NonPositiveEpsilon(DpSynthError):
    """epsilon must be strictly positive."""


class InvalidDelta(DpSynthError):
    """delta outside the valid range for the mechanism."""


class EpsilonOutOfRange(DpSynthError):
    """epsilon with no valid noise calibration: outside (0, 1] for the
    Gaussian mechanism, or giving a scale that is not positive and finite."""


# ---------------------------------------------------------------- synth

class MissingClassDemo(DpSynthError):
    """Demonstration set lacks an exemplar for a required class."""


class BackendUnavailable(DpSynthError):
    """Text backend failed after exhausting retries."""


class AllRecordsMalformed(DpSynthError):
    """A backend response yielded zero parseable records."""


class AuthMissing(DpSynthError):
    """Configured auth environment variable is not set."""


class QuotaUnreachable(DpSynthError):
    """Generation loop hit its call cap before filling per-class quotas."""


# ---------------------------------------------------------------- eval

class SingleClassCorpus(DpSynthError):
    """Training corpus contains fewer than two classes."""


class SolverDidNotConverge(DpSynthError):
    """An SVM solve reached its step cap before its optimality certificate."""


# ---------------------------------------------------------------- audit

class OverlapDetected(DpSynthError):
    """Member and non-member sets share a record."""


class SingleClassInput(DpSynthError):
    """Attack input contains only members or only non-members."""


# ---------------------------------------------------------------- cli

class NoModelsRequested(DpSynthError):
    """Evaluation requested with an empty model set."""


class StageError(DpSynthError):
    """Wraps any failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
