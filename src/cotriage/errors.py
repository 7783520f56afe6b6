"""Exception types shared across the package.

Every error raised on a contract violation derives from CotriageError so
callers (and the CLI) can map failures to exit codes without matching on
message strings.
"""

from __future__ import annotations


class CotriageError(Exception):
    """Base class for all package-specific errors."""


class EmptyTrajectory(CotriageError):
    """Raised when reasoning text contains no sentences."""


class InvalidAnswerTokens(CotriageError):
    """Raised when an answer span has no scoreable tokens."""


class NonFiniteScore(CotriageError):
    """Raised when a log-score vector contains NaN or infinity."""


class EmptyMask(CotriageError):
    """Raised when a validity mask has no valid positions."""


class ConfigMismatch(CotriageError):
    """Raised when tensors, features, or checkpoints disagree with a config."""


class EmptyDataset(CotriageError):
    """Raised when a training or evaluation set has no items."""


class AlignmentError(CotriageError):
    """Raised when paired records disagree: outcome question ids, or features and trajectory."""


class ParseError(CotriageError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateId(CotriageError):
    """Raised when a dataset or outcome vector repeats a question id."""


class HarvestError(CotriageError):
    """Raised when an endpoint request fails after all retries."""


class CapabilityError(CotriageError):
    """Raised when the scoring endpoint does not return log-probabilities."""
