"""Exception types shared across the package: one class per exit code.

Every error raised on a contract violation is a CotriageError, so the CLI
maps failures to exit codes by class alone: HarvestError is an endpoint
error (exit 3), any other CotriageError a data error (exit 2). The message
says what broke.
"""

from __future__ import annotations


class CotriageError(Exception):
    """A data error: inputs that are empty, disagree with each other or with a config."""


class ParseError(CotriageError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class HarvestError(CotriageError):
    """Raised when an endpoint request fails after all retries or cannot score tokens."""
