"""Tweet corpus ingestion, keyword screening, and daily sentiment series."""

from __future__ import annotations

import datetime as dt
import re
from array import array
from itertools import permutations

import numpy as np

from .ingest import IngestReport, csv_records, utc_day
from .sentiment import SentimentLexicon, compound_only
from .series import EPOCH_ORDINAL, DailySeries, Table, daily_means

STUDY_WINDOW_START = dt.date(2017, 6, 23)
STUDY_WINDOW_END = dt.date(2022, 10, 31)

TWEET_COLUMNS = ("id", "timestamp", "text", "lang")

# Gender and skin tone terms screened for in the keyword corpus.
DEFAULT_KEYWORDS = ("female", "male", "dark", "light", "medium",
                    "albino", "alien", "ape", "zombie")

# U+0345, the one character outside \w that re.IGNORECASE matches to a
# \w character (the Greek iotas), over all of Unicode.
_NON_WORD_CASES = "\u0345"


class Tweets(Table):
    """Accepted tweets in file order, one row each: ``day`` (datetime64[D]),
    the tweet's UTC day, and ``text`` (object), its text."""

    DTYPES = {"day": "datetime64[D]", "text": object}


class KeywordFilter:
    """Whole-word, case-insensitive screen: ``pattern`` has group i + 1 for
    ``keywords[i]``, and each of its matches is a whole word that exactly one
    keyword matches, as with one ``\\bkeyword\\b`` per keyword, because each
    keyword is one lowercase ``\\w+`` word that matches no character outside
    ``\\w`` and no other keyword; any other list is a ValueError.

    ``pattern`` opens with a lookahead on the keywords' first characters,
    ``(?=[adflmz])`` for the defaults, so a start position where no keyword
    can begin fails on one class test instead of on every alternative.  It
    changes no match: under ``re.IGNORECASE`` a one-character class matches
    exactly the characters its literal matches, so every position at which
    a keyword matches passes the lookahead."""

    def __init__(self, keywords: tuple[str, ...]):
        if not keywords or len(set(keywords)) != len(keywords):
            raise ValueError("keyword list must be non-empty, without duplicates")
        for kw in keywords:
            if (kw != kw.lower() or not re.fullmatch(r"\w+", kw)
                    or re.search(f"[{kw}]", _NON_WORD_CASES, re.IGNORECASE)):
                raise ValueError(f"keyword {kw!r} must be one lowercase word that "
                                 "matches only word characters")
        for kw, other in permutations(keywords, 2):
            if re.fullmatch(kw, other, re.IGNORECASE):
                raise ValueError(f"keyword {kw!r} also matches keyword {other!r}")
        self.keywords = tuple(keywords)
        first = "".join(sorted({kw[0] for kw in keywords}))
        self.pattern = re.compile(
            f"(?=[{first}])" + r"\b(?:" + "|".join(f"({kw})" for kw in keywords) + r")\b",
            re.IGNORECASE)


def ingest_tweets(source, language_filter: str = "en",
                  window_start: dt.date = STUDY_WINDOW_START,
                  window_end: dt.date = STUDY_WINDOW_END,
                  ) -> tuple[Tweets, IngestReport]:
    """Read the tweet CSV (``id,timestamp,text,lang``) into Tweets.

    Rows failing the language filter are silently counted; rows outside
    the study window are dropped with a counted warning; rows with an
    unparseable timestamp, an empty id or a duplicate id, checked in that
    order, go to the rejects report and ingestion continues.  An id is
    seen once its row is accepted.  Each accepted row adds a day number
    and a reference to its text, and nothing else outlives the row.
    """
    index, records = csv_records(source, TWEET_COLUMNS, "tweet")
    i_id, i_timestamp, i_text, i_lang = (index[c] for c in TWEET_COLUMNS)
    report = IngestReport()
    rejects = report.rejects
    days, texts = array("q"), []            # days since 1970-01-01, texts
    seen_ids: set[str] = set()
    for row_number, row in records:
        if (row[i_lang] or "").strip() != language_filter:
            report.filtered_language += 1
            continue
        try:
            day = utc_day(row[i_timestamp] or "")
        except (ValueError, OverflowError):      # OverflowError: UTC day past date's range
            rejects.append((row_number, "unparseable timestamp"))
            continue
        tweet_id = (row[i_id] or "").strip()
        if not tweet_id:
            rejects.append((row_number, "empty id"))
            continue
        if tweet_id in seen_ids:
            rejects.append((row_number, "duplicate id"))
            continue
        if not window_start <= day <= window_end:
            report.out_of_window += 1
            continue
        seen_ids.add(tweet_id)
        days.append(day.toordinal() - EPOCH_ORDINAL)
        texts.append(row[i_text] or "")
    report.accepted = len(texts)
    return Tweets({"day": np.array(days).view("datetime64[D]"), "text": texts}), report


def _compounds(lexicon: SentimentLexicon, texts: list[str]) -> list[float]:
    """The compound score of each text in ``texts``, in order; each distinct
    text is scored once."""
    scores = dict.fromkeys(texts)
    for text in scores:
        scores[text] = compound_only(lexicon, text)
    return [scores[text] for text in texts]


def daily_mean_sentiment(tweets: Tweets, lexicon: SentimentLexicon) -> DailySeries:
    """Arithmetic mean compound score per UTC day; empty days absent.

    Each distinct text is scored once per corpus; a repeat adds that same
    score to its day, and each day's sum runs over its scores in file order
    (``series.daily_means``).
    """
    compounds = _compounds(lexicon, tweets["text"].tolist())
    days, day_index = np.unique(tweets["day"], return_inverse=True)
    return DailySeries(days, daily_means(day_index, compounds))


def keyword_frequency(tweets: Tweets, kw_filter: KeywordFilter
                      ) -> tuple[dict[str, int], list[tuple[str, set[str]]]]:
    """The corpus's one keyword scan: whole-word hit counts per keyword, every
    hit counting, and each tweet with a hit, in file order, as (text, keywords)."""
    counts = dict.fromkeys(kw_filter.keywords, 0)
    hits = []
    for text in tweets["text"].tolist():
        found = [kw_filter.keywords[m.lastindex - 1] for m in kw_filter.pattern.finditer(text)]
        if found:
            for kw in found:
                counts[kw] += 1
            hits.append((text, set(found)))
    return counts, hits


def keyword_sentiment(hits: list[tuple[str, set[str]]], kw_filter: KeywordFilter,
                      lexicon: SentimentLexicon) -> dict[str, float | None]:
    """Mean compound over the hits of ``keyword_frequency`` holding each keyword.

    A keyword matched by no tweet maps to None, never to 0: a zero would
    read as "neutral" where there is no data at all.  Each distinct text
    with a hit is scored once per corpus; a repeat adds that same score to
    each of its keywords, so every sum keeps the corpus order.
    """
    sums = dict.fromkeys(kw_filter.keywords, 0.0)
    counts = dict.fromkeys(kw_filter.keywords, 0)
    for (_, found), compound in zip(hits, _compounds(lexicon, [text for text, _ in hits])):
        for kw in found:
            sums[kw] += compound
            counts[kw] += 1
    return {kw: sums[kw] / counts[kw] if counts[kw] else None for kw in kw_filter.keywords}
