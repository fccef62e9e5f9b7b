"""Shared by every input reader: the source normaliser, the ingest report
and the schema error."""

from __future__ import annotations

import io
from dataclasses import dataclass, field


class SchemaError(ValueError):
    """Input file is missing required columns."""


@dataclass
class IngestReport:
    """Row-level outcomes of one ingestion pass."""

    rejects: list[tuple[int, str]] = field(default_factory=list)  # (row_number, reason)
    out_of_window: int = 0
    filtered_language: int = 0
    accepted: int = 0


def text_stream(source) -> io.StringIO:
    """Text of UTF-8 bytes, a str, or a binary or text file, as a stream."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, str):
        return io.StringIO(source)
    raise TypeError(f"unsupported source type {type(source)!r}")
