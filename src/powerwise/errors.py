"""Shared exception and warning types."""

from __future__ import annotations


class PowerwiseError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PowerwiseError):
    """A game or alias file could not be parsed.

    Carries the 1-based line number of the offending row and, when known,
    the field that failed validation.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
            if field is not None:
                prefix = f"line {line}, field {field!r}: "
        super().__init__(prefix + message)


class ValidationError(PowerwiseError):
    """Inputs are structurally valid but violate a contract."""


class ComputationError(PowerwiseError):
    """A computation could not complete (e.g. a rating solve residual above tolerance in strict mode)."""


class DataWarning(UserWarning):
    """Data-quality flag that does not abort processing (ties, duplicates, ...)."""
