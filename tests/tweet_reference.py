"""The tweet path as it was before tweets became a (day, text) row table.

Kept verbatim as the reference that ``tweets.ingest_tweets``,
``keyword_frequency``, ``keyword_sentiment`` and ``daily_mean_sentiment``
must match: a ``csv.DictReader`` loop with its own header check, a frozen
Tweet per accepted row, one regex per keyword, each run over every tweet,
and one scorer call per tweet, a repeated text's included.
``daily_mean_sentiment`` returns its ``{day: mean}`` in day order, where
that path wrapped the same dict in its dict-backed series.
``keyword_hits``, each tweet with a hit and the keywords it holds, is
built from the same per-keyword regexes, as the oracle of the hits that
``keyword_frequency`` returns beside its counts.
One rule was added to both paths since: a timestamp whose UTC day leaves
``date``'s range (an OverflowError) is an unparseable timestamp.  It
decodes bytes whole into an ``io.StringIO``, as ``ingest.text_stream``
did before it decoded a line at a time.  And each day's scores are
totalled by a running sum in file order, not by builtin ``sum``, which
Python 3.12 compensates.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from collections import defaultdict
from dataclasses import dataclass

from punk_hedonics.ingest import IngestReport, SchemaError
from punk_hedonics.sentiment import SentimentLexicon, compound_only
from punk_hedonics.tweets import (STUDY_WINDOW_END, STUDY_WINDOW_START, TWEET_COLUMNS,
                                  KeywordFilter)


@dataclass(frozen=True)
class Tweet:
    id: str
    timestamp: dt.datetime          # always UTC
    text: str
    language: str


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
    reader = csv.DictReader(io.StringIO(
        source.decode("utf-8") if isinstance(source, bytes) else source))
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
        except (ValueError, OverflowError):
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


def keyword_frequency(corpus: list[Tweet], kw_filter: KeywordFilter) -> dict[str, int]:
    """Whole-word occurrence counts per keyword; multiple hits per tweet all count."""
    patterns = {kw: _keyword_pattern(kw) for kw in kw_filter.keywords}
    counts = {kw: 0 for kw in kw_filter.keywords}
    for tweet in corpus:
        for kw, pat in patterns.items():
            counts[kw] += len(pat.findall(tweet.text))
    return counts


def keyword_hits(corpus: list[Tweet], kw_filter: KeywordFilter) -> list[tuple[str, set[str]]]:
    """Each tweet with a keyword hit, in corpus order: its text and the set
    of keywords whose regex finds it."""
    patterns = {kw: _keyword_pattern(kw) for kw in kw_filter.keywords}
    found = [(tweet.text, {kw for kw, pat in patterns.items() if pat.search(tweet.text)})
             for tweet in corpus]
    return [(text, keywords) for text, keywords in found if keywords]


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


def daily_mean_sentiment(corpus: list[Tweet], lexicon: SentimentLexicon) -> dict[dt.date, float]:
    """Arithmetic mean compound score per UTC day, in day order; empty days absent."""
    by_day: dict[dt.date, list[float]] = defaultdict(list)
    for tweet in corpus:
        by_day[tweet.timestamp.date()].append(compound_only(lexicon, tweet.text))
    means = {}
    for day, scores in sorted(by_day.items()):
        total = 0.0
        for score in scores:
            total += score
        means[day] = total / len(scores)
    return means
