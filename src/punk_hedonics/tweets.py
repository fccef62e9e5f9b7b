"""Tweet corpus ingestion, keyword screening, and daily sentiment series."""

from __future__ import annotations

import datetime as dt
import re
from collections import defaultdict
from itertools import permutations

from .ingest import IngestReport, csv_records, utc_day
from .sentiment import SentimentLexicon, compound_only
from .series import EPOCH_ORDINAL, DailySeries

STUDY_WINDOW_START = dt.date(2017, 6, 23)
STUDY_WINDOW_END = dt.date(2022, 10, 31)

TWEET_COLUMNS = ("id", "timestamp", "text", "lang")

# Gender and skin tone terms screened for in the keyword corpus.
DEFAULT_KEYWORDS = ("female", "male", "dark", "light", "medium",
                    "albino", "alien", "ape", "zombie")

# U+0345, the one character outside \w that re.IGNORECASE matches to a
# \w character (the Greek iotas), over all of Unicode.
_NON_WORD_CASES = "\u0345"


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
                  ) -> tuple[list[tuple[dt.date, str]], IngestReport]:
    """Read the tweet CSV (``id,timestamp,text,lang``) as (UTC day, text) pairs.

    Rows failing the language filter are silently counted; rows outside
    the study window are dropped with a counted warning; rows with an
    unparseable timestamp, an empty id or a duplicate id, checked in that
    order, go to the rejects report and ingestion continues.  An id is
    seen once its row is accepted.
    """
    index, records = csv_records(source, TWEET_COLUMNS, "tweet")
    i_id, i_timestamp, i_text, i_lang = (index[c] for c in TWEET_COLUMNS)
    report = IngestReport()
    rejects = report.rejects
    corpus: list[tuple[dt.date, str]] = []
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
        corpus.append((day, row[i_text] or ""))
    report.accepted = len(corpus)
    return corpus, report


def daily_mean_sentiment(corpus: list[tuple[dt.date, str]],
                         lexicon: SentimentLexicon) -> DailySeries:
    """Arithmetic mean compound score per UTC day; empty days absent.

    Each distinct text is scored once per corpus; a repeat adds that same
    score to its day, so every day's sum keeps the corpus order.
    """
    scores: dict[str, float] = {}
    by_day: dict[dt.date, list[float]] = defaultdict(list)
    for day, text in corpus:
        compound = scores.get(text)
        if compound is None:
            compound = scores[text] = compound_only(lexicon, text)
        by_day[day].append(compound)
    return DailySeries([day.toordinal() - EPOCH_ORDINAL for day in by_day],
                       [sum(v) / len(v) for v in by_day.values()])


def keyword_frequency(corpus: list[tuple[dt.date, str]],
                      kw_filter: KeywordFilter) -> dict[str, int]:
    """Whole-word occurrence counts per keyword; multiple hits per tweet all count."""
    counts = [0] * (len(kw_filter.keywords) + 1)       # by group; group 0 unused
    for _, text in corpus:
        for match in kw_filter.pattern.finditer(text):
            counts[match.lastindex] += 1
    return dict(zip(kw_filter.keywords, counts[1:]))


def keyword_sentiment(corpus: list[tuple[dt.date, str]], kw_filter: KeywordFilter,
                      lexicon: SentimentLexicon) -> dict[str, float | None]:
    """Mean compound over tweets containing each keyword.

    A keyword matched by no tweet maps to None, never to 0: a zero would
    read as "neutral" where there is no data at all.  Each distinct text
    with a hit is scored once per corpus; a repeat adds that same score to
    each of its keywords, so every sum keeps the corpus order.
    """
    scores: dict[str, float] = {}
    sums = [0.0] * (len(kw_filter.keywords) + 1)       # by group; group 0 unused
    hits = [0] * (len(kw_filter.keywords) + 1)
    for _, text in corpus:
        groups = {match.lastindex for match in kw_filter.pattern.finditer(text)}
        if groups:
            compound = scores.get(text)
            if compound is None:
                compound = scores[text] = compound_only(lexicon, text)
            for group in groups:
                sums[group] += compound
                hits[group] += 1
    return {kw: (sums[g] / hits[g] if hits[g] else None)
            for g, kw in enumerate(kw_filter.keywords, start=1)}
