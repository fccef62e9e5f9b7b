import io
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from punk_hedonics import tweets
from punk_hedonics.ingest import csv_records, text_stream

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
    assert corpus == [] and report.filtered_language == 40_000
    assert peak < len(data) / 4
