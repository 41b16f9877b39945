"""Exception hierarchy for ledger ingestion and analytics."""

from __future__ import annotations


class FillflowError(Exception):
    """Base class for all package errors."""


class ParseError(FillflowError):
    """A record line could not be parsed in the declared format."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SchemaError(FillflowError):
    """A record parsed but violates a structural invariant."""


class DuplicateEventError(FillflowError):
    """Two fills share the same (block, txIndex, logIndex) coordinates."""


class ConfigError(FillflowError):
    """Market or scenario configuration is invalid."""


class DecompositionAnomalyError(FillflowError):
    """Transaction shape falls outside the trade taxonomy.

    Carries the transaction coordinates so anomalous transactions can be
    quarantined without aborting a batch run.
    """

    def __init__(self, message: str, block: int, tx_index: int):
        super().__init__(f"tx ({block}, {tx_index}): {message}")
        self.block = block
        self.tx_index = tx_index


class DataError(FillflowError):
    """Input data is inconsistent (bad timestamps, empty series, ...)."""


class InsufficientBalanceError(FillflowError):
    """A portfolio operation needs more cash or shares than held."""


class FetchError(FillflowError):
    """Event-log fetch failed after retries.

    ``last_block`` is the end of the last fully ingested page (None when no
    page completed), matching the on-disk checkpoint.
    """

    def __init__(self, message: str, last_block: int | None = None):
        super().__init__(message)
        self.last_block = last_block


class DecodeError(FetchError):
    """Endpoint returned a response that does not match the wire format."""
