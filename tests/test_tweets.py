import datetime as dt
import re
import sys
from collections import defaultdict

import pytest

from conftest import make_lexicon, mapping_of
from punk_hedonics import tweets
from punk_hedonics.ingest import SchemaError
from punk_hedonics.sentiment import compound_only
from punk_hedonics.tweets import (KeywordFilter, daily_mean_sentiment, ingest_tweets,
                                  keyword_frequency, keyword_sentiment)

HEADER = "id,timestamp,text,lang"


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

    @pytest.mark.parametrize("timestamp", [
        "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00",  # UTC day leaves the calendar
        # Python 3.11's fromisoformat reads these, 3.10's does not
        "20210501T120000+00:00", "2021-W17-6T12:00:00", "2021-05-01T12:00:00+0530",
        "2021-05-01T12:00:00.1", "2021-05-01T1200"])
    def test_unparseable_timestamp_rejected_on_every_python(self, timestamp):
        corpus, report = ingest_tweets(f"{HEADER}\n1,{timestamp},x,en\n")
        assert corpus == [] and report.rejects == [(2, "unparseable timestamp")]

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
        assert corpus == [(dt.date(2021, 4, 30), "x")]

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
        series = daily_mean_sentiment([(day, "up"), (day, "down")], lex)
        assert mapping_of(series) == {day: pytest.approx(0.0, abs=1e-12)}

    def test_single_tweet_identity(self, lexicon):
        day = dt.date(2021, 5, 1)
        c = compound_only(lexicon, "good")
        assert mapping_of(daily_mean_sentiment([(day, "good")], lexicon)) == {day: c}

    def test_matches_group_by_oracle(self, lexicon):
        days = [dt.date(2021, 5, d) for d in (1, 2, 5)]
        texts = ["good", "bad day", "so great", "terrible!", "plain",
                 "love it", "hate it", "nice punk", "ugly floor", "good good"]
        corpus = [(days[i % 3], texts[i]) for i in range(10)]
        # Independent oracle: explicit group-by then mean.
        groups = defaultdict(list)
        for day, text in corpus:
            groups[day].append(compound_only(lexicon, text))
        series = mapping_of(daily_mean_sentiment(corpus, lexicon))
        assert list(series) == sorted(groups)
        for day, values in groups.items():
            assert series[day] == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_each_distinct_text_scored_once(self, lexicon, monkeypatch):
        texts = []
        monkeypatch.setattr(tweets, "compound_only",
                            lambda lex, text: texts.append(text) or compound_only(lex, text))
        first, second = dt.date(2021, 5, 1), dt.date(2021, 5, 2)
        corpus = [(first, "good"), (second, "good"), (first, "bad day"), (first, "good"),
                  (second, "plain")]
        series = daily_mean_sentiment(corpus, lexicon)
        assert sorted(texts) == ["bad day", "good", "plain"]
        good, bad, plain = (compound_only(lexicon, t) for t in ("good", "bad day", "plain"))
        assert series.values.tolist() == [sum([good, bad, good]) / 3, sum([good, plain]) / 2]

    def test_values_in_range(self, lexicon):
        day = dt.date(2021, 5, 1)
        corpus = [(day, "great great great!!!")] * 3
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

    @pytest.mark.parametrize("keyword", ["dark-skinned", "punk looks", "", "a.b", "aι"])
    def test_rejects_what_is_not_one_word(self, keyword):
        with pytest.raises(ValueError, match="must be one lowercase word"):
            KeywordFilter(("male", keyword))

    @pytest.mark.parametrize("keywords", [("s", "ſ"), ("ı", "i"), ("kiss", "kiſs"), ("µ", "μ")])
    def test_rejects_a_keyword_another_one_matches(self, keywords):
        with pytest.raises(ValueError, match="also matches keyword"):
            KeywordFilter(keywords)

    def test_one_group_per_keyword_in_order(self):
        kw_filter = KeywordFilter(("a", "aa"))
        assert [m.lastindex for m in kw_filter.pattern.finditer("aa a_a A, AA")] == [2, 1, 2]

    def test_non_word_cases_cover_unicode(self):
        """_NON_WORD_CASES holds each character outside \\w that a lowercase
        \\w character matches under re.IGNORECASE; only cased characters can."""
        word = re.compile(r"\w")
        found = set()
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            if word.match(ch) or ch.lower() == ch == ch.upper():
                continue
            for c in {ch.lower(), ch.upper(), ch.upper().lower(), ch.casefold()}:
                if (len(c) == 1 and word.match(c) and c == c.lower()
                        and re.fullmatch(re.escape(c), ch, re.IGNORECASE)):
                    found.add(ch)
        assert found == set(tweets._NON_WORD_CASES)

    def test_first_letter_lookahead_skips_no_keyword_start(self):
        """Swept over every code point: under re.IGNORECASE the class of each
        default keyword's first letter, and the lookahead's class of all of
        them, match exactly the characters the letters match as literals, so
        the lookahead passes at every position where a keyword can begin."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))

        def matched(pattern):
            return [m.start() for m in re.finditer(pattern, every, re.IGNORECASE)]
        first = "".join(sorted({kw[0] for kw in tweets.DEFAULT_KEYWORDS}))
        pattern = KeywordFilter(tweets.DEFAULT_KEYWORDS).pattern.pattern
        assert first == "adflmz" and pattern.startswith(f"(?=[{first}])\\b(?:(female)|")
        literals = []
        for letter in first:
            literal = matched(letter)
            assert matched(f"[{letter}]") == literal
            literals += literal
        assert matched(f"[{first}]") == sorted(literals)


class TestKeywordFrequency:
    def test_case_insensitive_whole_word(self):
        day = dt.date(2021, 5, 1)
        corpus = [(day, "male punk"), (day, "Male!")]
        assert keyword_frequency(corpus, KeywordFilter(("male",)))["male"] == 2

    def test_female_does_not_contain_male(self):
        corpus = [(dt.date(2021, 5, 1), "female")]
        counts = keyword_frequency(corpus, KeywordFilter(("male", "female")))
        assert counts == {"male": 0, "female": 1}

    def test_multiple_hits_in_one_tweet(self):
        corpus = [(dt.date(2021, 5, 1), "ape ape ape")]
        assert keyword_frequency(corpus, KeywordFilter(("ape",)))["ape"] == 3

    def test_additive_over_concatenation(self):
        day = dt.date(2021, 5, 1)
        a = [(day, "alien ape"), (day, "zombie")]
        b = [(day, "ape zombie zombie")]
        kw = KeywordFilter(("alien", "ape", "zombie"))
        fa, fb, fab = (keyword_frequency(c, kw) for c in (a, b, a + b))
        assert all(fab[k] == fa[k] + fb[k] for k in kw.keywords)


class TestKeywordSentiment:
    def test_unmatched_keyword_is_absent_marker(self, lexicon):
        corpus = [(dt.date(2021, 5, 1), "good day")]
        result = keyword_sentiment(corpus, KeywordFilter(("zombie",)), lexicon)
        assert result["zombie"] is None

    def test_single_match_identity(self, lexicon):
        corpus = [(dt.date(2021, 5, 1), "the zombie looks good")]
        result = keyword_sentiment(corpus, KeywordFilter(("zombie",)), lexicon)
        assert result["zombie"] == compound_only(lexicon, corpus[0][1])

    def test_matches_filter_then_mean_oracle(self, lexicon):
        day = dt.date(2021, 5, 1)
        moods = ["good", "bad", "great", "ugly", "nice"]
        corpus = []
        for i in range(20):
            kw = "ape" if i % 2 else "zombie"
            extra = " both ape and zombie" if i % 5 == 0 else ""
            corpus.append((day, f"the {kw} is {moods[i % 5]}{extra}"))
        kw_filter = KeywordFilter(("ape", "zombie"))
        result = keyword_sentiment(corpus, kw_filter, lexicon)
        for kw in kw_filter.keywords:
            matched = [compound_only(lexicon, text) for _, text in corpus
                       if f" {kw} " in f" {text} "]
            assert result[kw] == pytest.approx(sum(matched) / len(matched), abs=1e-12)

    def test_each_distinct_text_with_a_hit_scored_once(self, lexicon, monkeypatch):
        texts = []
        monkeypatch.setattr(tweets, "compound_only",
                            lambda lex, text: texts.append(text) or compound_only(lex, text))
        day = dt.date(2021, 5, 1)
        corpus = [(day, t) for t in ["ape zombie good", "no hit", "ape zombie good",
                                     "bad zombie", "no hit", "bad zombie", "ape zombie good"]]
        result = keyword_sentiment(corpus, KeywordFilter(("ape", "zombie")), lexicon)
        assert sorted(texts) == ["ape zombie good", "bad zombie"]
        assert result["ape"] == compound_only(lexicon, "ape zombie good")

    def test_sentiment_keywords_also_counted_by_frequency(self, lexicon):
        corpus = [(dt.date(2021, 5, 1), "zombie hour"),
                  (dt.date(2021, 5, 1), "nothing here")]
        kw = KeywordFilter(("zombie",))
        sentiments = keyword_sentiment(corpus, kw, lexicon)
        freq = keyword_frequency(corpus, kw)
        assert sentiments["zombie"] is not None
        assert freq["zombie"] >= 1
