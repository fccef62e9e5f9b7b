import collections
import csv
import datetime as dt
import io
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from punk_hedonics import ingest, market, tweets
from punk_hedonics.ingest import csv_columns, csv_records, iso_date, text_stream, utc_day
from punk_hedonics.sentiment import load_lexicon

LONG = "x" * 140_000            # over csv's default field size limit of 131,072

# Pieces of a byte text: line ends UTF-8 and StringIO could split on, NUL,
# 2-, 3- and 4-byte characters, a line longer than an 8 KB read, a lone
# surrogate's encoding, and stray bytes 0x80-0xFF, which start or continue
# no valid character where they land.
PIECES = st.sampled_from([b"a", b",", b"\n", b"\r", b"\r\n", "\x85".encode(),
                          " ".encode(), b"\x00", "é".encode(), "€".encode(),
                          "😀".encode(), b"y" * 9_000, b"\xed\xa0\x80"])
STRAY = st.integers(0x80, 0xFF).map(lambda byte: bytes([byte]))
byte_texts = st.lists(PIECES | STRAY, max_size=30).map(b"".join)


class TestTextStream:
    @settings(max_examples=500, deadline=None)
    @given(byte_texts)
    @example(b"ok\xc3\nok")
    @example(b"a\rb\r\nc\n" + "\x85 ".encode() + b"\n")
    def test_lines_are_those_of_decoding_the_whole_text(self, data):
        try:
            want = list(io.StringIO(data.decode("utf-8")))
        except ValueError:
            for source in (data, io.BytesIO(data)):
                with pytest.raises(ValueError):
                    list(text_stream(source))
            return
        assert list(text_stream(data)) == list(text_stream(io.BytesIO(data))) == want

    def test_str_and_text_file_sources(self):
        assert list(text_stream("a\r\nb")) == list(text_stream(io.StringIO("a\r\nb"))) == [
            "a\r\n", "b"]

    def test_other_sources_are_a_type_error(self):
        with pytest.raises(TypeError):
            text_stream(3)


class TestCsvRecords:
    def test_over_long_header_field_is_a_value_error_naming_row_1(self):
        with pytest.raises(ValueError) as info:
            csv_records(f"a,{LONG}\n1,2\n", ("a",), "sales")
        assert str(info.value) == "sales CSV row 1: field larger than field limit (131072)"

    def test_over_long_field_is_a_value_error_naming_its_row(self):
        _, records = csv_records(f"a,b\n1,2\n\n3,{LONG}\n4,5\n", ("a",), "tweet")
        assert next(records) == (2, ["1", "2"])
        with pytest.raises(ValueError) as info:
            next(records)
        assert str(info.value) == "tweet CSV row 3: field larger than field limit (131072)"

    def test_invalid_utf8_header_is_a_value_error_naming_row_1(self):
        with pytest.raises(ValueError) as info:
            csv_records(b"a,b\xff\n1,2\n", ("a",), "sales")
        assert str(info.value) == (
            "sales CSV row 1: not valid UTF-8 (byte 0xff: invalid start byte)")

    def test_invalid_utf8_record_is_a_value_error_naming_its_row(self):
        # The bad byte is on the second line of a quoted field of row 3.
        _, records = csv_records(b'a,b\n1,2\n\n3,"x\nx\xc3"\n4,5\n', ("a",), "tweet")
        assert next(records) == (2, ["1", "2"])
        with pytest.raises(ValueError) as info:
            next(records)
        assert str(info.value) == (
            "tweet CSV row 3: not valid UTF-8 (byte 0xc3: invalid continuation byte)")


FIELD_LIMIT = 24                # the oracle's csv.field_size_limit
PLAIN = st.sampled_from(["", "a", "b b", "é", "1", "22"])
# Other fields: quoted ones (some running on past the line, or never
# closed), NUL (which csv rejects on Python 3.10), a lone "\r", and a field
# over FIELD_LIMIT.
ODD = st.sampled_from(['"q"', '"q,\n"', '"q\r\n\n', 'e"', "\x00", "\r", "x" * (FIELD_LIMIT + 1)])
ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", ""])


@st.composite
def csv_texts(draw):
    """A header of 1-3 names, then lines that mostly hold as many plain
    fields, and otherwise 0-4 fields, some odd; or no header at all."""
    header = draw(st.sampled_from(["a\n", "a,b\n", "a,b,c\n", "a,a,b\r\n", ""]))
    width = header.count(",") + 1
    lines = [header]
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.integers(0, 2)):
            fields = draw(st.lists(PLAIN, min_size=width, max_size=width))
        else:
            fields = draw(st.lists(PLAIN | ODD, max_size=4))
        lines.append(",".join(fields) + draw(ENDS))
    return "".join(lines)


BAD_BYTE_AT = st.none() | st.none() | st.none() | st.integers(0, 10_000)


def outcome(read, source):
    """The records ``read`` gives as ``(row_number, row)``, or its error text."""
    try:
        return list(read(source))
    except ValueError as exc:
        return str(exc)


def record_rows(source):
    _, records = csv_records(source, (), "t")
    return records


def column_rows(source):
    """csv_columns' chunks, transposed back into numbered rows."""
    _, chunks = csv_columns(source, (), "t")
    for numbers, columns in chunks:
        assert all(len(column) == len(numbers) for column in columns)
        yield from ((number, [column[i] for column in columns])
                    for i, number in enumerate(numbers))


class TestCsvColumns:
    @pytest.mark.parametrize("chunk_lines", [1, 2, 3])
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), bad_byte=BAD_BYTE_AT)
    def test_records_are_those_of_csv_records(self, chunk_lines, text, bad_byte):
        """Over quotes, line ends, NUL, blank lines, short and long rows, an
        over-long field and a byte that is not UTF-8, the rows and the
        errors are those of csv_records, at every chunk boundary."""
        source = text.encode("utf-8")
        if bad_byte is not None:
            at = bad_byte % (len(source) + 1)
            source = source[:at] + b"\xff" + source[at:]
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
                want, got = outcome(record_rows, source), outcome(column_rows, source)
        finally:
            csv.field_size_limit(limit)
        if isinstance(want, list):
            width = len(next(csv.reader(io.StringIO(text)), []))
            want = [(number, row[:width]) for number, row in want]
        assert got == want

    def test_plain_and_quoted_chunks(self, monkeypatch):
        """Plain chunks are split on commas.  From the first chunk that is
        not plain on, the rest of the file is csv_records' records, in
        batches of CHUNK_LINES records, the plain lines after it included."""
        monkeypatch.setattr(ingest, "CHUNK_LINES", 2)
        text = 'a,b,c\n1,2,3\r\n4,5,6\n7,8\n"9\n10",11,12\n\n13,14,15\n16,17,18\n19,20,21'
        index, chunks = csv_columns(text, ("c",), "t")
        assert index == {"a": 0, "b": 1, "c": 2}
        assert [(list(numbers), columns) for numbers, columns in chunks] == [
            ([2, 3], [["1", "4"], ["2", "5"], ["3", "6"]]),
            ([4, 5], [["7", "9\n10"], ["8", "11"], [None, "12"]]),  # a short row, then a
            ([6, 7], [["13", "16"], ["14", "17"], ["15", "18"]]),   # field that runs on a line
            ([8], [["19"], ["20"], ["21"]])]

    @pytest.mark.parametrize("skin", ["Dark", '"Dark"'], ids=["plain", "quoted"])
    def test_a_yielded_chunk_is_not_held_while_the_next_is_read(self, skin):
        """Draining eight chunks of sales lines, each dropped as it comes,
        peaks in tracemalloc within 1.2x of draining one (about 1.0x here),
        on plain chunks and on csv_records' batches alike.  Holding the
        last chunk while the next was read and split peaked at about 1.55x."""
        row = "{},2021-05-01,{}.25," + skin + ",Male,0x{:040x},0x{:040x}\n"
        peaks = []
        for lines in (ingest.CHUNK_LINES, 8 * ingest.CHUNK_LINES):
            data = ("punk_id,date,price_eth,skin_tone,gender,buyer,seller\n" + "".join(
                row.format(i, i, i % 500, i % 700) for i in range(lines))).encode()
            tracemalloc.start()
            try:
                collections.deque(csv_columns(data, (), "t")[1], maxlen=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]

    def test_errors_name_their_row(self, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_LINES", 2)
        for source, message in [
                (f"a,b\n1,2\n\n3,{LONG}\n4,5\n",
                 "t CSV row 3: field larger than field limit (131072)"),
                (b'a,b\n1,2\n\n3,"x\nx\xc3"\n4,5\n',
                 "t CSV row 3: not valid UTF-8 (byte 0xc3: invalid continuation byte)"),
                (b"a,b\n1,2\n3,4\n\xff\n", "t CSV row 4: not valid UTF-8 (byte 0xff: "
                                            "invalid start byte)"),
                (b'a,b\n1,2\n3,4\n"5\n6",7\n8,9\n\xff\n',     # in the 2nd batch after the switch
                 "t CSV row 6: not valid UTF-8 (byte 0xff: invalid start byte)")]:
            with pytest.raises(ValueError) as info:
                list(csv_columns(source, (), "t")[1])
            assert str(info.value) == message


STREAM_READERS = {"text_stream": text_stream, "csv_records": record_rows,
                  "csv_columns": column_rows,
                  "load_lexicon": lambda source: load_lexicon(source).entries.items()}


@pytest.mark.parametrize("reader", STREAM_READERS)
@pytest.mark.parametrize("data", [
    b"a,b\n1,2\n\n3,4\r\n5\n",
    b'a,b\n1,"x\ny"\n5,6\n7,8',
    b"a,b\n1,2\n3,\xc3\n5,6\n",                                   # bad byte on line 3
    b"a,b\n1,2\n3," + LONG.encode() + b"\n5,6\n",                # over-long field on line 3
    b"good\t1.9\n# c\n\nbad\t-2.5\nok\t1.0\xc3\n",                 # bad byte on line 5
    b"good\t1.9\n" + LONG.encode() + b"\t1.0\n\xff\n",
], ids=["plain", "quoted", "utf8-3", "long-3", "lexicon-utf8-5", "lexicon-long"])
def test_an_open_binary_file_reads_as_its_bytes(tmp_path, monkeypatch, reader, data):
    """The same lines, rows, row numbers and errors from an open binary
    file, streamed, as from its bytes; csv_columns in chunks of 2 lines."""
    monkeypatch.setattr(ingest, "CHUNK_LINES", 2)
    path = tmp_path / "input"
    path.write_bytes(data)
    read = STREAM_READERS[reader]
    with open(path, "rb") as fh:
        got = outcome(read, fh)
    assert got == outcome(read, data)


class TestIsoDate:
    def test_reads_yyyy_mm_dd(self):
        assert iso_date("2021-05-01").isoformat() == "2021-05-01"

    @pytest.mark.parametrize("text", ["20210501", "2021-W17-6", "2021-05-01 ", "2021-5-1",
                                      "", "２０２１-05-01"])
    def test_any_other_text_is_a_value_error(self, text):
        with pytest.raises(ValueError) as info:
            iso_date(text)
        assert str(info.value) == f"Invalid isoformat string: {text!r}"

    def test_a_day_the_month_lacks_is_a_value_error(self):
        with pytest.raises(ValueError):
            iso_date("2021-02-30")


# The shapes of fromisoformat's documented Python 3.10 grammar after the
# date and its one-character separator, each digit written as 9 and each
# offset sign as +: YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]].
GRAMMAR_TIMES = {time + offset
                 for time in ("99", "99:99", "99:99:99", "99:99:99.999", "99:99:99.999999")
                 for offset in ("", "+99:99", "+99:99:99", "+99:99:99.999999")}


def day_310(text):
    """The UTC day of a timestamp in the grammar Python 3.10 documents for
    ``datetime.fromisoformat``, as ``fromisoformat`` reads it; any other
    text is a ValueError."""
    text = text.strip().replace("Z", "+00:00")
    shape = "".join("9" if c in "0123456789" else c for c in text)
    if not (shape[:10] == "9999-99-99"
            and (len(text) == 10 or shape[11:].replace("-", "+") in GRAMMAR_TIMES)):
        raise ValueError(text)
    ts = dt.datetime.fromisoformat(text)
    return (ts if ts.tzinfo is None else ts.astimezone(dt.timezone.utc)).date()


def day_or_error(read, text):
    try:
        return read(text)
    except (ValueError, OverflowError) as exc:
        return type(exc)


# Timestamps, most in the benchmark's common shapes, some not, some that only
# Python 3.11's fromisoformat reads and some that only 3.10's parser reads;
# the test below edits them.
STAMPS = ["2021-05-01T12:34:56", "2021-05-01 12:34:56+05:30", "2021-05-01T12:34:56-04:00",
          "2021-05-01T12:34:56Z", "2021-05-01", "2021-05-01T12:34",
          "2021-05-01T12:34:56.123456+00:00", "0001-01-01T00:30:00+01:00",
          "9999-12-31T23:59:59-01:00", "20210501T123456", "2021-W17-6T12:00:00",
          "2021-05-01T12:00:00+0530", "2021-05-01T12:00:00.1", "2021-05-01T1200",
          "2021-05-01T12:00:00,123", "2021-05-01T12:00:00+00", "2021-05-01T12:30:00:123",
          "2021-05-01T23:30x-01:00", "2021-05-01T12:30.123"]
STAMP_CHARS = st.sampled_from("0123456789") | st.sampled_from(list("WTZ:.,+- \x00é١😀"))


class TestUtcDay:
    @pytest.mark.parametrize("text, day", [
        ("2021-05-01T23:30:00-02:00", "2021-05-02"), (" 2021-05-01T10:00:00Z ", "2021-05-01"),
        ("2021-05-01 01:00:00+05:00", "2021-04-30"), ("2021-05-01", "2021-05-01"),
        ("2021-05-01T12", "2021-05-01"), ("2021-05-01é12:30", "2021-05-01"),
        ("2021-05-01T23:59:59.123-01:00", "2021-05-02"),
        ("2021-05-01T23:00:00.123456-02:00:00.123456", "2021-05-02")])
    def test_reads_what_python_3_10_reads(self, text, day):
        assert utc_day(text).isoformat() == day

    @pytest.mark.parametrize("text", [            # Python 3.11 reads the first three
        "2021-05-01T12:00:00,123", "2021-05-01T12:00:00+00", "2021-05-01T12:00:00.123456789",
        "2021-05-01T12:", "2021-05-01T١٢:00:00", "not-a-time", "",
        # Python 3.10's parser reads these: a fraction after ":" or after
        # minutes, one more character before an offset, and a NUL at the end
        "2021-05-01T12:30:00:123", "2021-05-01é12:30.123", "2021-05-01T23:30x-01:00",
        "2021-05-01T12:00:00 +00:00", "2021-05-01T12\x00"])
    def test_anything_else_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            utc_day(text)

    def test_a_utc_day_past_the_calendar_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            utc_day("9999-12-31T23:00:00-05:00")

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(STAMPS), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2),
                                                       STAMP_CHARS), max_size=3))
    def test_is_day_310_over_edited_timestamps(self, text, edits):
        """utc_day reads what fromisoformat's documented 3.10 grammar
        allows, on every Python, its quick path for the common shapes
        included, and rejects the rest."""
        chars = list(text)
        for at, how, char in edits:
            at %= len(chars) + 1
            if how == 0 or at == len(chars):
                chars.insert(at, char)
            elif how == 1:
                chars[at] = char
            else:
                del chars[at]
        text = "".join(chars)
        assert day_or_error(utc_day, text) == day_or_error(day_310, text)


def test_sales_ingest_holds_one_chunk_not_the_file():
    """Sales are read ``ingest.CHUNK_LINES`` (1,024) lines at a time, and
    each chunk's wallets are interned before the next is read: ingesting a
    ~2.9 MB file of 24,000 lines peaks below 2x the file in tracemalloc,
    about 0.9x here (1.7x with 4,096-line chunks), the chunk being checked
    and the accepted rows' columns.  Keeping every accepted address until
    the file ended peaked at about 2.6x, and decoding and splitting the
    whole file at once at about 8x."""
    row = "{},2021-05-{:02d},{}.25,Dark,Male,0x{:040x},0x{:040x}\n"
    data = ("punk_id,date,price_eth,skin_tone,gender,buyer,seller\n"
            + "".join(row.format(i % 10_000, 1 + i % 28, i, i % 500, i % 700)
                      for i in range(24_000))).encode("utf-8")
    assert len(data) > 2_500_000 and 24_000 > 5 * ingest.CHUNK_LINES
    tracemalloc.start()
    try:
        sales, report = market.ingest_sales(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sales) == report.accepted == 24_000
    assert peak < 2 * len(data)


def test_tweet_ingest_never_holds_the_decoded_text():
    """A tweet CSV is decoded a line at a time: filtering every row of a
    ~2 MB file allocates far less than the file, where decoding it whole
    held the text plus StringIO's 4-byte-per-character copy, ~5x the file."""
    row = "{},2021-05-01T12:00:00+00:00,\"the ape looks good, très bien\",fr\n"
    data = ("id,timestamp,text,lang\n"
            + "".join(row.format(i) for i in range(40_000))).encode("utf-8")
    assert len(data) > 2_000_000
    tracemalloc.start()
    try:
        corpus, report = tweets.ingest_tweets(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corpus) == 0 and report.filtered_language == 40_000
    assert peak < len(data) / 4


def test_tweet_corpus_keeps_two_columns_not_a_pair_per_tweet():
    """An accepted tweet keeps its text and 16 B more: its day number and
    its text's reference, one slot of each Tweets column.  Traced after
    ingesting 20,000 tweets, the memory kept beyond the texts is 16.06 B a
    tweet here; a (date, text) tuple per tweet kept 96 B."""
    n = 20_000
    row = "{},2021-05-{:02d}T12:00:00+00:00,tweet {} looks good,en\n"
    data = ("id,timestamp,text,lang\n"
            + "".join(row.format(i, 1 + i % 28, i) for i in range(n))).encode("utf-8")
    tracemalloc.start()
    try:
        corpus, report = tweets.ingest_tweets(data)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    texts = corpus["text"].tolist()
    assert report.accepted == len(set(texts)) == n
    assert kept - sum(map(sys.getsizeof, texts)) < 17 * n
