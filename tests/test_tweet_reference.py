"""The tweet path against the DictReader/Tweet/per-keyword-regex reference
in tweet_reference.

Generated tweet CSVs cover what ``csv.DictReader`` did that the record
reader must keep (shuffled and repeated header names, blank lines, short
and long rows, quoted commas and newlines), every reject reason, the
language filter with spaces around the code, and ids that come back: a
duplicate, and an out-of-window id that reappears inside the window.
Each CSV is read as a str or as its UTF-8 bytes, which the reference
decodes whole.
Generated keyword texts put keywords next to ``_``, digits and
punctuation, ``a`` beside ``aa``, and case-insensitive look-alikes
(``ſ`` for ``s``, ``ı`` for ``i``, the Kelvin sign for ``k``).
"""

import csv
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import tweet_reference as ref
from conftest import make_lexicon
from punk_hedonics import tweets
from punk_hedonics.tweets import TWEET_COLUMNS, KeywordFilter

TIMESTAMPS = [
    "2021-05-01T10:00:00Z", "2021-05-01T23:30:00-02:00", "2021-05-02T01:00:00+05:00",
    "2021-05-01 11:00:00", "2021-05-01", " 2021-05-01T10:00:00+00:00 ",
    "2017-06-23T02:00:00+05:00", "2017-06-23T00:00:00", "2022-10-31T23:30:00-01:00",
    "2022-10-31T23:59:59Z", "2016-01-01T00:00:00Z", "2023-01-01T00:00:00",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00",  # out of range in UTC
    "not-a-time", "", "2021-13-01T00:00:00", "2021-05-01T10:00:00ZZ",
]
FIELDS = {
    "id": st.sampled_from(["1", "2", "3", " 2 ", "", "  ", "t9"]),
    "timestamp": st.sampled_from(TIMESTAMPS),
    "text": st.text(alphabet="ab ,\"\n!", max_size=6),
    "lang": st.sampled_from(["en", " en ", "en ", "es", "", "EN"]),
}
EXTRA = st.text(alphabet="x,\" \n", max_size=3)

# Keyword texts: tokens and separators, joined with nothing between them.
KEYWORDS = ["a", "aa", "s", "ſ", "k", "i", "ı", "ape", "male", "female", "a1", "x_y", "é"]
TOKENS = KEYWORDS + ["A", "AA", "S", "K", "K", "I", "İ", "Ape", "MALE", "fe", "1", "_",
                     " ", "  ", ",", "!", "-", "'", "\n", "good", "bad"]
LEXICON = make_lexicon({"good": 1.9, "bad": -2.5, "a": 0.7, "ape": -1.1, "male": 0.3})


@st.composite
def tweet_csvs(draw):
    """A tweet CSV: shuffled header, perhaps a missing, an extra or a
    repeated column name, and rows that may be blank, short or long."""
    header = draw(st.permutations(TWEET_COLUMNS))
    if draw(st.integers(0, 19)) == 0:
        header.pop()                                        # a missing column
    header += draw(st.lists(st.just("note"), max_size=1))
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(header)))       # this last column is read
    lines = [header]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append([])                                # a blank line
            continue
        row = [draw(FIELDS.get(name, EXTRA)) for name in header]
        cut = draw(st.integers(0, 19))
        if cut < 3:
            row = row[:len(row) - 1 - cut]                 # a short row
        elif cut == 19:
            row += ["spare"]                                # a field past the header
        lines.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(lines)
    return buffer.getvalue()


texts = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
keyword_lists = st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=5, unique=True)


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def as_pairs(reference_corpus):
    return [(t.timestamp.date(), t.text) for t in reference_corpus]


class TestMatchesTweetReference:
    @settings(max_examples=300, deadline=None)
    @given(tweet_csvs(), st.sampled_from(["en", "es"]), st.booleans())
    def test_ingest(self, text, language, as_bytes):
        source = text.encode("utf-8") if as_bytes else text
        got = outcome(tweets.ingest_tweets, source, language)
        want = outcome(ref.ingest_tweets, source, language)
        if isinstance(want[0], str):
            assert got == want                      # both raised the same error
            return
        assert got == (as_pairs(want[0]), want[1])

    @settings(max_examples=300, deadline=None)
    @given(keyword_lists, st.lists(texts, max_size=8))
    def test_keyword_frequency_and_sentiment(self, keywords, corpus_texts):
        clashes = [(kw, other) for kw in keywords for other in keywords
                   if kw != other and re.fullmatch(kw, other, re.IGNORECASE)]
        if clashes:
            assert outcome(KeywordFilter, tuple(keywords))[0] == "ValueError"
            return
        kw_filter = KeywordFilter(tuple(keywords))
        corpus = [(None, text) for text in corpus_texts]
        reference_corpus = [ref.Tweet(id=str(i), timestamp=None, text=text, language="en")
                            for i, text in enumerate(corpus_texts)]
        assert (tweets.keyword_frequency(corpus, kw_filter)
                == ref.keyword_frequency(reference_corpus, kw_filter))
        assert (tweets.keyword_sentiment(corpus, kw_filter, LEXICON)
                == ref.keyword_sentiment(reference_corpus, kw_filter, LEXICON))

    def test_generated_csvs_reach_every_outcome(self):
        seen = set()

        @settings(max_examples=150, deadline=None, database=None)
        @given(tweet_csvs())
        def collect(text):
            result = outcome(tweets.ingest_tweets, text)
            if isinstance(result[0], str):
                seen.add(result[0])
                return
            corpus, report = result
            seen.update(reason for _, reason in report.rejects)
            seen.update(name for name in ("out_of_window", "filtered_language")
                        if getattr(report, name))
            seen.update(["accepted"] if corpus else [])
        collect()
        assert seen == {"unparseable timestamp", "empty id", "duplicate id", "out_of_window",
                        "filtered_language", "accepted", "SchemaError"}

    def test_out_of_window_id_is_not_seen(self):
        text = ("id,timestamp,text,lang\n"
                "7,2016-01-01T00:00:00Z,early,en\n"
                "7,2021-05-01T00:00:00Z,later,en\n"
                "7,2021-05-02T00:00:00Z,again,en\n")
        corpus, report = tweets.ingest_tweets(text)
        want_corpus, want_report = ref.ingest_tweets(text)
        assert corpus == as_pairs(want_corpus) and report == want_report
        assert [t for _, t in corpus] == ["later"] and report.rejects == [(4, "duplicate id")]

    def test_look_alikes_count_for_their_keyword(self):
        kw_filter = KeywordFilter(("s", "k", "i"))
        corpus = [(None, "ſ S s_ K K 1k ı İ I")]
        reference_corpus = [ref.Tweet("1", None, text, "en") for _, text in corpus]
        assert (tweets.keyword_frequency(corpus, kw_filter)
                == ref.keyword_frequency(reference_corpus, kw_filter)
                == {"s": 2, "k": 2, "i": 3})
