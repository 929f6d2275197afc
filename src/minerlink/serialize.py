"""Text serializations of records for language-model consumption.

Two formats, both deterministic over the record's attribute order:

* prompt format, ``attr:val`` pairs separated by single spaces, embedded in
  a fixed four-line Yes/No labeling template;
* classifier format, ``[COL]attr [VAL]val`` segments joined into a
  ``[CLS] ... [SEP] ... [SEP]`` pair string.

Values are embedded unescaped: these strings feed language models and are
never parsed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DataError
from .records import Record


class SerializationFormat(Enum):
    PROMPT = "prompt"
    DITTO = "ditto"


PROMPT_QUESTION_LINE = (
    "Do the two mine descriptions refer to the same real-world mine. "
    "Answer with 'Yes' if they do and 'No' if they do not."
)
PROMPT_CONSTRAINT_LINE = "Answer only in Yes or No."


@dataclass(frozen=True, slots=True)
class SerializedEntity:
    text: str
    format: SerializationFormat


def _require_attributes(record: Record) -> None:
    if not record.attributes:
        raise DataError(f"record {record.uri!r} has no attributes to serialize")


def serialize_prompt_entity(record: Record) -> SerializedEntity:
    """``attr1:val1 attr2:val2 ...`` in record attribute order."""
    _require_attributes(record)
    text = " ".join(f"{name}:{value}" for name, value in record.attributes)
    return SerializedEntity(text, SerializationFormat.PROMPT)


def build_pair_prompt(a: Record, b: Record) -> str:
    """The four-line Yes/No labeling prompt for one record pair."""
    return "\n".join(
        [
            f"Entity A is {serialize_prompt_entity(a).text}.",
            f"Entity B is {serialize_prompt_entity(b).text}.",
            PROMPT_QUESTION_LINE,
            PROMPT_CONSTRAINT_LINE,
        ]
    )


def serialize_ditto_entity(record: Record) -> SerializedEntity:
    """``[COL]attr [VAL]val`` segments, one per attribute, space-joined."""
    _require_attributes(record)
    text = " ".join(f"[COL]{name} [VAL]{value}" for name, value in record.attributes)
    return SerializedEntity(text, SerializationFormat.DITTO)


def serialize_ditto_pair(a: Record, b: Record) -> str:
    """``[CLS] <a> [SEP] <b> [SEP]`` over the classifier-format entities."""
    return f"[CLS] {serialize_ditto_entity(a).text} [SEP] {serialize_ditto_entity(b).text} [SEP]"
