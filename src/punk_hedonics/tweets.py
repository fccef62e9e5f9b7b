"""Tweet corpus ingestion, keyword screening, and daily sentiment series."""

from __future__ import annotations

import csv
import datetime as dt
import re
from collections import defaultdict
from dataclasses import dataclass

from .ingest import IngestReport, SchemaError, text_stream
from .sentiment import SentimentLexicon, compound_only
from .series import DailySeries

STUDY_WINDOW_START = dt.date(2017, 6, 23)
STUDY_WINDOW_END = dt.date(2022, 10, 31)

TWEET_COLUMNS = ("id", "timestamp", "text", "lang")

# Gender and skin tone terms screened for in the keyword corpus.
DEFAULT_KEYWORDS = ("female", "male", "dark", "light", "medium",
                    "albino", "alien", "ape", "zombie")


@dataclass(frozen=True)
class Tweet:
    id: str
    timestamp: dt.datetime          # always UTC
    text: str
    language: str


@dataclass(frozen=True)
class KeywordFilter:
    """Whole-word, case-insensitive keyword screen."""

    keywords: tuple[str, ...]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("keyword list must be non-empty")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("duplicate keywords")
        for kw in self.keywords:
            if not kw or kw != kw.lower():
                raise ValueError(f"keyword {kw!r} must be lowercase and non-empty")


def _keyword_pattern(keyword: str) -> re.Pattern:
    return re.compile(r"\b" + re.escape(keyword) + r"\b", re.IGNORECASE)


def _parse_timestamp(raw: str) -> dt.datetime:
    ts = dt.datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        return ts.replace(tzinfo=dt.timezone.utc)
    return ts.astimezone(dt.timezone.utc)


def ingest_tweets(source, language_filter: str = "en",
                  window_start: dt.date = STUDY_WINDOW_START,
                  window_end: dt.date = STUDY_WINDOW_END,
                  ) -> tuple[list[Tweet], IngestReport]:
    """Read the tweet CSV (``id,timestamp,text,lang``).

    Rows failing the language filter are silently counted; rows outside
    the study window are dropped with a counted warning; rows with an
    unparseable timestamp or duplicate id go to the rejects report and
    ingestion continues.
    """
    reader = csv.DictReader(text_stream(source))
    header = reader.fieldnames or []
    missing = [c for c in TWEET_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"tweet CSV missing columns: {', '.join(missing)}")

    report = IngestReport()
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    for row_number, row in enumerate(reader, start=2):  # 1 is the header
        if (row["lang"] or "").strip() != language_filter:
            report.filtered_language += 1
            continue
        try:
            ts = _parse_timestamp(row["timestamp"] or "")
        except ValueError:
            report.rejects.append((row_number, "unparseable timestamp"))
            continue
        tweet_id = (row["id"] or "").strip()
        if not tweet_id:
            report.rejects.append((row_number, "empty id"))
            continue
        if tweet_id in seen_ids:
            report.rejects.append((row_number, "duplicate id"))
            continue
        if not window_start <= ts.date() <= window_end:
            report.out_of_window += 1
            continue
        seen_ids.add(tweet_id)
        tweets.append(Tweet(id=tweet_id, timestamp=ts,
                            text=row["text"] or "", language=language_filter))
    report.accepted = len(tweets)
    return tweets, report


def daily_mean_sentiment(corpus: list[Tweet], lexicon: SentimentLexicon) -> DailySeries:
    """Arithmetic mean compound score per UTC day; empty days absent."""
    by_day: dict[dt.date, list[float]] = defaultdict(list)
    for tweet in corpus:
        by_day[tweet.timestamp.date()].append(compound_only(lexicon, tweet.text))
    return DailySeries({d: sum(v) / len(v) for d, v in by_day.items()})


def keyword_frequency(corpus: list[Tweet], kw_filter: KeywordFilter) -> dict[str, int]:
    """Whole-word occurrence counts per keyword; multiple hits per tweet all count."""
    patterns = {kw: _keyword_pattern(kw) for kw in kw_filter.keywords}
    counts = {kw: 0 for kw in kw_filter.keywords}
    for tweet in corpus:
        for kw, pat in patterns.items():
            counts[kw] += len(pat.findall(tweet.text))
    return counts


def keyword_sentiment(corpus: list[Tweet], kw_filter: KeywordFilter,
                      lexicon: SentimentLexicon) -> dict[str, float | None]:
    """Mean compound over tweets containing each keyword.

    A keyword matched by no tweet maps to None, never to 0: a zero would
    read as "neutral" where there is no data at all.
    """
    patterns = {kw: _keyword_pattern(kw) for kw in kw_filter.keywords}
    sums = {kw: 0.0 for kw in kw_filter.keywords}
    hits = {kw: 0 for kw in kw_filter.keywords}
    for tweet in corpus:
        compound = None
        for kw, pat in patterns.items():
            if pat.search(tweet.text):
                if compound is None:
                    compound = compound_only(lexicon, tweet.text)
                sums[kw] += compound
                hits[kw] += 1
    return {kw: (sums[kw] / hits[kw] if hits[kw] else None)
            for kw in kw_filter.keywords}
