"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, LLMTransportError -> 3.
"""

from __future__ import annotations


class MinerlinkError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MinerlinkError):
    """Invalid configuration or command usage."""


class DataError(MinerlinkError):
    """Invalid or inconsistent data (duplicate uris, key mismatches, ...)."""


class SchemaError(DataError):
    """A declared schema column is missing from the ingested file."""


class LLMTransportError(MinerlinkError):
    """The labeling endpoint could not be reached after retries."""
