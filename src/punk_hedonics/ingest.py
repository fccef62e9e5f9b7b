"""Every text format is read here: the source normaliser, the numbered
line, CSV record and CSV column readers, the date and timestamp parsers,
the ingest report and the schema error."""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

# Lines (records, after its switch) per chunk of csv_columns.  1,024 sales
# lines decode to about 0.5 MB of small field strings, inside one 1 MiB
# pymalloc arena.  4,096 lines ran no faster, and the few objects that
# outlive a chunk kept arenas of its freed fields resident: the peak RSS of
# ``all`` on the benchmark's ``market`` inputs rose by ~2.4 MB.
CHUNK_LINES = 1024
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], * any one
# character: the timestamps Python 3.10 documents for fromisoformat, which
# every later Python reads the same way.
_ISO_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?", re.DOTALL)


class SchemaError(ValueError):
    """Input file is missing required columns."""


@dataclass
class IngestReport:
    """Row-level outcomes of one ingestion pass."""

    rejects: list[tuple[int, str]] = field(default_factory=list)  # (row_number, reason)
    out_of_window: int = 0
    filtered_language: int = 0
    accepted: int = 0


def iso_date(text: str) -> dt.date:
    """The date of ``YYYY-MM-DD`` text, and nothing else: Python 3.11's
    ``date.fromisoformat`` also reads ``20210501`` and ``2021-W17-6``,
    which 3.10's rejects.  Anything else is a ValueError."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def utc_day(text: str) -> dt.date:
    """The UTC day of a timestamp in ``_ISO_TIMESTAMP``'s grammar, as
    ``fromisoformat`` reads it, surrounding whitespace stripped and each
    ``Z`` read as ``+00:00``; a naive time is its own day.  Any other text
    is a ValueError on every Python, such as ``2021-05-01T1200``, which
    3.11's ``fromisoformat`` reads, or ``2021-05-01T12:00x+01:00``, which
    3.10's does; a UTC day past ``date``'s range is an OverflowError."""
    text = text.strip().replace("Z", "+00:00")
    # The common shapes pass on their separators; fromisoformat checks the digits.
    if not ((len(text) == 19 or len(text) == 25 and text[19] in "+-" and text[22] == ":")
            and text[4] == text[7] == "-" and text[13] == text[16] == ":"
            or _ISO_TIMESTAMP.fullmatch(text)):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    ts = dt.datetime.fromisoformat(text)
    return (ts if ts.tzinfo is None else ts.astimezone(dt.timezone.utc)).date()


def text_stream(source) -> Iterator[str]:
    """The lines of UTF-8 bytes, a str, or a binary or text file, split
    after each ``"\\n"`` as ``io.StringIO`` splits them.

    Bytes, a binary file's included, are decoded one line at a time, so
    the whole text is never held decoded (a reader may hold a chunk of
    lines); a line that is not valid UTF-8 raises UnicodeDecodeError when
    it is reached.  In UTF-8 the byte 0x0A only ever encodes ``"\\n"``, so
    the lines and the failures are those of decoding the whole text.
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


def _record_error(what: str, row_number: int, exc: Exception) -> ValueError:
    """The ValueError for a record that ``csv`` or UTF-8 cannot read."""
    reason = utf8_error(exc) if isinstance(exc, UnicodeDecodeError) else exc
    return ValueError(f"{what} CSV row {row_number}: {reason}")


def _header(lines, required: tuple[str, ...], what: str) -> tuple[dict[str, int], int]:
    """The column of each name in the header record read from ``lines``,
    and the header's width."""
    try:
        header = next(csv.reader(lines), [])
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _record_error(what, 1, exc) from None
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in required if c not in index]
    if missing:
        raise SchemaError(f"{what} CSV missing columns: {', '.join(missing)}")
    return index, len(header)


def csv_records(source, required: tuple[str, ...], what: str,
                ) -> tuple[dict[str, int], Iterator[tuple[int, list]]]:
    """The header and the records of a CSV, read as ``csv.DictReader`` reads them.

    Returns the column of each header name (a repeated name keeps its last
    column) and an iterator of ``(row_number, row)``, reading one line of
    ``text_stream`` at a time.  ``row_number`` counts CSV records with the
    header as 1; blank lines are skipped and not counted.  A row shorter
    than the header is padded with None; fields past the header are never
    looked up.  A header without every name in ``required`` is a
    SchemaError naming the ``what`` CSV.  A record ``csv`` cannot read (a
    field over its size limit) is a ValueError naming the ``what`` CSV and
    the record's row number, and so is a record that is not valid UTF-8.
    """
    lines = text_stream(source)
    index, width = _header(lines, required, what)
    return index, _numbered(csv.reader(lines), width, what, 1)


def _numbered(reader, width: int, what: str, row_number: int) -> Iterator[tuple[int, list]]:
    """``reader``'s records after row ``row_number``, as ``csv_records`` gives them."""
    try:
        for row in reader:
            if not row:
                continue
            row_number += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            yield row_number, row
    except (csv.Error, UnicodeDecodeError) as exc:  # failed on the record after row_number
        raise _record_error(what, row_number + 1, exc) from None


def csv_columns(source, required: tuple[str, ...], what: str,
                ) -> tuple[dict[str, int], Iterator[tuple[Sequence[int], list[list]]]]:
    """The header and the records of a CSV as ``csv_records`` reads them,
    a chunk of columns at a time.

    Returns the column of each header name and an iterator of
    ``(row_numbers, columns)``, one per chunk: the row number of each record
    and one list of fields per header column, None where a row is short.
    Chunks of ``CHUNK_LINES`` plain lines (no ``"``, NUL, blank line or lone
    ``\\r``, none longer than ``csv.field_size_limit()``, and as many fields
    as the header on each) are split on commas.  From the first chunk that
    is not plain or not UTF-8 on, ``csv_records``' reader reads the rest,
    ``CHUNK_LINES`` records a chunk.  Row numbers, header checks and errors
    are those of ``csv_records``; a failing chunk's records are not returned.
    """
    lines = text_stream(source)
    index, width = _header(lines, required, what)
    return index, _chunks(lines, width, what)


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator that raises ``exc`` when it is first advanced."""
    raise exc
    yield


def _chunks(lines, width: int, what: str) -> Iterator[tuple[Sequence[int], list[list]]]:
    limit, row_number = csv.field_size_limit(), 1
    while True:
        chunk, rest = [], lines
        try:
            chunk.extend(islice(lines, CHUNK_LINES))    # keeps the lines before a failure
        except UnicodeDecodeError as exc:
            rest = _raising(exc)                        # fails where the next line would be
        if not chunk and rest is lines:
            return
        columns = _plain_columns(chunk, width, limit) if rest is lines else None
        if columns is None:
            break
        yield range(row_number + 1, row_number + 1 + len(chunk)), columns
        row_number += len(chunk)
    records = _numbered(csv.reader(chain(chunk, rest)), width, what, row_number)
    while batch := list(islice(records, CHUNK_LINES)):
        numbers, rows = zip(*batch)
        yield numbers, [list(column) for column in islice(zip(*rows), width)]


def _plain_columns(chunk: list[str], width: int, limit: int) -> list[list[str]] | None:
    """The columns of a chunk of lines split on commas, where that reads
    them as ``csv.reader`` does: no ``"``, NUL, blank line or ``\\r`` but
    in a ``\\r\\n`` line end, no line longer than ``limit``, and
    ``width - 1`` commas on every line.  Otherwise None."""
    text = ",".join(chunk)
    if ('"' in text or "\x00" in text or "\n" in chunk or "\r\n" in chunk
            or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or max(map(len, chunk)) > limit
            or set(map(str.count, chunk, repeat(","))) != {width - 1}):
        return None
    fields = text.split(",")
    columns = [fields[i::width] for i in range(width)]
    columns[-1] = list(map(str.rstrip, columns[-1], repeat("\r\n")))     # drop the line ends
    return columns
