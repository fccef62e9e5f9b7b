import datetime as dt
from collections import defaultdict

import pytest

from conftest import make_lexicon
from punk_hedonics.sentiment import compound_only
from punk_hedonics.tweets import (KeywordFilter, SchemaError, Tweet,
                                  daily_mean_sentiment, ingest_tweets,
                                  keyword_frequency, keyword_sentiment)

HEADER = "id,timestamp,text,lang"


def tweet(i, day, text, hour=12):
    return Tweet(id=str(i),
                 timestamp=dt.datetime(day.year, day.month, day.day, hour,
                                       tzinfo=dt.timezone.utc),
                 text=text, language="en")


class TestIngest:
    def test_pass_through(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01T10:00:00+00:00,hello,en",
                              "2,2021-05-01T11:00:00+00:00,world,en",
                              "3,2021-05-02T09:00:00+00:00,again,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 3
        assert report.accepted == 3
        assert report.rejects == []

    def test_language_filter(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01T10:00:00+00:00,hola,es",
                              "2,2021-05-01T11:00:00+00:00,world,en",
                              "3,2021-05-02T09:00:00+00:00,again,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 2
        assert report.filtered_language == 1

    def test_out_of_window_counted(self):
        csv_text = "\n".join([HEADER,
                              "1,2016-01-01T10:00:00+00:00,too early,en",
                              "2,2021-05-01T11:00:00+00:00,ok,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 1
        assert report.out_of_window == 1

    def test_bad_timestamp_rejected_row_level(self):
        csv_text = "\n".join([HEADER,
                              "1,not-a-time,x,en",
                              "2,2021-05-01T11:00:00+00:00,ok,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 1
        assert report.rejects == [(2, "unparseable timestamp")]

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="lang"):
            ingest_tweets("id,timestamp,text\n1,2021-05-01T00:00:00,x\n")

    def test_duplicate_id_rejected(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01T10:00:00+00:00,a,en",
                              "1,2021-05-01T11:00:00+00:00,b,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 1
        assert report.rejects == [(3, "duplicate id")]

    def test_timestamps_normalized_to_utc(self):
        csv_text = HEADER + "\n1,2021-05-01T01:00:00+05:00,x,en\n"
        corpus, _ = ingest_tweets(csv_text)
        assert corpus[0].timestamp == dt.datetime(2021, 4, 30, 20,
                                                  tzinfo=dt.timezone.utc)

    def test_z_suffix_and_naive_accepted(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01T10:00:00Z,a,en",
                              "2,2021-05-01 11:00:00,b,en"]) + "\n"
        corpus, report = ingest_tweets(csv_text)
        assert len(corpus) == 2 and not report.rejects


class TestDailyMeanSentiment:
    def test_symmetric_mean_is_zero(self):
        lex = make_lexicon({"up": 2.0, "down": -2.0})
        day = dt.date(2021, 5, 1)
        series = daily_mean_sentiment([tweet(1, day, "up"), tweet(2, day, "down")], lex)
        assert series[day] == pytest.approx(0.0, abs=1e-12)

    def test_single_tweet_identity(self, lexicon):
        day = dt.date(2021, 5, 1)
        c = compound_only(lexicon, "good")
        assert daily_mean_sentiment([tweet(1, day, "good")], lexicon)[day] == c

    def test_matches_group_by_oracle(self, lexicon):
        days = [dt.date(2021, 5, d) for d in (1, 2, 5)]
        texts = ["good", "bad day", "so great", "terrible!", "plain",
                 "love it", "hate it", "nice punk", "ugly floor", "good good"]
        corpus = [tweet(i, days[i % 3], texts[i]) for i in range(10)]
        # Independent oracle: explicit group-by then mean.
        groups = defaultdict(list)
        for t in corpus:
            groups[t.timestamp.date()].append(compound_only(lexicon, t.text))
        series = daily_mean_sentiment(corpus, lexicon)
        assert series.dates == sorted(groups)
        for day, values in groups.items():
            assert series[day] == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_values_in_range(self, lexicon):
        day = dt.date(2021, 5, 1)
        corpus = [tweet(i, day, "great great great!!!") for i in range(3)]
        assert all(-1.0 <= v <= 1.0 for v in daily_mean_sentiment(corpus, lexicon).values)


class TestKeywordFilter:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KeywordFilter(())

    def test_rejects_uppercase_and_duplicates(self):
        with pytest.raises(ValueError):
            KeywordFilter(("Male",))
        with pytest.raises(ValueError):
            KeywordFilter(("male", "male"))


class TestKeywordFrequency:
    def test_case_insensitive_whole_word(self):
        day = dt.date(2021, 5, 1)
        corpus = [tweet(1, day, "male punk"), tweet(2, day, "Male!")]
        assert keyword_frequency(corpus, KeywordFilter(("male",)))["male"] == 2

    def test_female_does_not_contain_male(self):
        corpus = [tweet(1, dt.date(2021, 5, 1), "female")]
        counts = keyword_frequency(corpus, KeywordFilter(("male", "female")))
        assert counts == {"male": 0, "female": 1}

    def test_multiple_hits_in_one_tweet(self):
        corpus = [tweet(1, dt.date(2021, 5, 1), "ape ape ape")]
        assert keyword_frequency(corpus, KeywordFilter(("ape",)))["ape"] == 3

    def test_additive_over_concatenation(self):
        day = dt.date(2021, 5, 1)
        a = [tweet(1, day, "alien ape"), tweet(2, day, "zombie")]
        b = [tweet(3, day, "ape zombie zombie")]
        kw = KeywordFilter(("alien", "ape", "zombie"))
        fa, fb, fab = (keyword_frequency(c, kw) for c in (a, b, a + b))
        assert all(fab[k] == fa[k] + fb[k] for k in kw.keywords)


class TestKeywordSentiment:
    def test_unmatched_keyword_is_absent_marker(self, lexicon):
        corpus = [tweet(1, dt.date(2021, 5, 1), "good day")]
        result = keyword_sentiment(corpus, KeywordFilter(("zombie",)), lexicon)
        assert result["zombie"] is None

    def test_single_match_identity(self, lexicon):
        corpus = [tweet(1, dt.date(2021, 5, 1), "the zombie looks good")]
        result = keyword_sentiment(corpus, KeywordFilter(("zombie",)), lexicon)
        assert result["zombie"] == compound_only(lexicon, corpus[0].text)

    def test_matches_filter_then_mean_oracle(self, lexicon):
        day = dt.date(2021, 5, 1)
        moods = ["good", "bad", "great", "ugly", "nice"]
        corpus = []
        for i in range(20):
            kw = "ape" if i % 2 else "zombie"
            extra = " both ape and zombie" if i % 5 == 0 else ""
            corpus.append(tweet(i, day, f"the {kw} is {moods[i % 5]}{extra}"))
        kw_filter = KeywordFilter(("ape", "zombie"))
        result = keyword_sentiment(corpus, kw_filter, lexicon)
        for kw in kw_filter.keywords:
            matched = [compound_only(lexicon, t.text) for t in corpus
                       if f" {kw} " in f" {t.text} "]
            assert result[kw] == pytest.approx(sum(matched) / len(matched), abs=1e-12)

    def test_sentiment_keywords_also_counted_by_frequency(self, lexicon):
        corpus = [tweet(1, dt.date(2021, 5, 1), "zombie hour"),
                  tweet(2, dt.date(2021, 5, 1), "nothing here")]
        kw = KeywordFilter(("zombie",))
        sentiments = keyword_sentiment(corpus, kw, lexicon)
        freq = keyword_frequency(corpus, kw)
        assert sentiments["zombie"] is not None
        assert freq["zombie"] >= 1
