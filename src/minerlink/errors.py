"""Exception hierarchy shared across the toolkit.

Each class carries the exit code the CLI returns for it (``exit_code``):
usage or configuration errors 1, data errors 2, LLM transport failures 3.
"""

from __future__ import annotations


class MinerlinkError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(MinerlinkError):
    """Invalid configuration or command usage."""

    exit_code = 1


class DataError(MinerlinkError):
    """Invalid or inconsistent data (duplicate uris, key mismatches, ...).

    ``lineno`` is the line of the file the error names, when it names one.
    """

    lineno: int | None = None


class SchemaError(DataError):
    """A declared schema column is missing from the ingested file."""


class LLMTransportError(MinerlinkError):
    """The labeling endpoint could not be reached after retries."""

    exit_code = 3
