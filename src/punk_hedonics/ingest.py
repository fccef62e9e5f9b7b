"""Shared by every input reader: the source normaliser, the numbered line
and CSV record readers, the ingest report and the schema error."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
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


def text_stream(source) -> Iterator[str]:
    """The lines of UTF-8 bytes, a str, or a binary or text file, split
    after each ``"\\n"`` as ``io.StringIO`` splits them.

    Bytes, a binary file's included, are decoded one line at a time, so
    the whole text is never held decoded; a line that is not valid UTF-8
    raises UnicodeDecodeError when it is reached.  In UTF-8 the byte 0x0A
    only ever encodes ``"\\n"``, so the lines and the failures are those
    of decoding the whole text.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        return (line.decode("utf-8") for line in io.BytesIO(source))
    if isinstance(source, str):
        return io.StringIO(source)
    raise TypeError(f"unsupported source type {type(source)!r}")


def utf8_error(exc: UnicodeDecodeError) -> str:
    """The text of a UTF-8 decoding failure, without its position in a line."""
    return f"not valid UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"


def numbered_lines(source, bad_line) -> Iterator[tuple[int, str]]:
    """``text_stream``'s lines, numbered from 1.  A line that is not valid
    UTF-8 raises ``bad_line(number, reason)`` when it is reached."""
    lines, lineno = text_stream(source), 0
    try:
        for lineno, line in enumerate(lines, start=1):
            yield lineno, line
    except UnicodeDecodeError as exc:       # raised reading the line after lineno
        raise bad_line(lineno + 1, utf8_error(exc)) from None


def csv_records(source, required: tuple[str, ...], what: str,
                ) -> tuple[dict[str, int], Iterator[tuple[int, list]]]:
    """The header and the records of a CSV, read as ``csv.DictReader`` reads them.

    Returns the column of each header name (a repeated name keeps its last
    column) and an iterator of ``(row_number, row)``.  ``row_number``
    counts CSV records with the header as 1; blank lines are skipped and
    not counted.  A row shorter than the header is padded with None;
    fields past the header are never looked up.  A header without every
    name in ``required`` is a SchemaError naming the ``what`` CSV.  A record
    ``csv`` cannot read (a field over its size limit) is a ValueError naming
    the ``what`` CSV and the record's row number, and so is a record that
    is not valid UTF-8.
    """
    reader = csv.reader(text_stream(source))
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ValueError(f"{what} CSV row 1: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} CSV row 1: {utf8_error(exc)}") from None
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in required if c not in index]
    if missing:
        raise SchemaError(f"{what} CSV missing columns: {', '.join(missing)}")
    return index, _numbered(reader, len(header), what)


def _numbered(reader, width: int, what: str) -> Iterator[tuple[int, list]]:
    row_number = 1
    try:
        for row in reader:
            if not row:
                continue
            row_number += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            yield row_number, row
    except csv.Error as exc:                # the reader failed on the record after row_number
        raise ValueError(f"{what} CSV row {row_number + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} CSV row {row_number + 1}: {utf8_error(exc)}") from None
