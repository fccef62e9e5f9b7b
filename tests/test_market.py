import datetime as dt
from collections import defaultdict

import numpy as np
import pytest

from punk_hedonics.market import (Gender, SaleRecord, SkinTone, UncoveredDatesError,
                                  attribute_distribution, daily_aggregates,
                                  ingest_fx, ingest_gas, ingest_sales, rarity_score)
from punk_hedonics.series import DailySeries, pct_change
from punk_hedonics.tweets import SchemaError

HEADER = "punk_id,date,price_eth,skin_tone,gender,buyer,seller"


def sale(punk_id, day, price=1.0, skin=SkinTone.DARK, gender=Gender.MALE,
         buyer="A", seller="B", rarity=None):
    return SaleRecord(punk_id=punk_id, date=day, price_eth=price, skin_tone=skin,
                      gender=gender, buyer_wallet=buyer, seller_wallet=seller,
                      rarity=rarity)


class TestIngestSales:
    def test_valid_rows(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01,2.5,Dark,Male,0xa,0xb",
                              "2,2021-05-02,0.8,Albino,Female,0xc,0xd"]) + "\n"
        sales, report = ingest_sales(csv_text)
        assert len(sales) == 2
        assert sales[0].skin_tone is SkinTone.DARK
        assert sales[1].gender is Gender.FEMALE
        assert report.rejects == []

    def test_unknown_skin_rejected(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01,2.5,purple,Male,0xa,0xb",
                              "2,2021-05-02,0.8,Albino,Female,0xc,0xd"]) + "\n"
        sales, report = ingest_sales(csv_text)
        assert len(sales) == 1
        assert report.rejects == [(2, "unknown skin_tone 'purple'")]

    def test_unknown_gender_and_negative_price_rejected(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01,2.5,Dark,Robot,0xa,0xb",
                              "2,2021-05-02,-1,Dark,Male,0xc,0xd"]) + "\n"
        sales, report = ingest_sales(csv_text)
        assert sales == []
        assert [r for _, r in report.rejects] == ["unknown gender 'Robot'",
                                                  "negative price_eth"]

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="seller"):
            ingest_sales("punk_id,date,price_eth,skin_tone,gender,buyer\n")

    def test_optional_rarity_column(self):
        csv_text = (HEADER + ",rarity\n"
                    "1,2021-05-01,2.5,Dark,Male,0xa,0xb,42.5\n"
                    "2,2021-05-02,0.8,Albino,Female,0xc,0xd,\n")
        sales, _ = ingest_sales(csv_text)
        assert sales[0].rarity == 42.5
        assert sales[1].rarity is None

    def test_extra_columns_ignored(self):
        csv_text = (HEADER + ",block,marketplace\n"
                    "1,2021-05-01,2.5,Dark,Male,0xa,0xb,123,os\n")
        sales, _ = ingest_sales(csv_text)
        assert len(sales) == 1


class TestSeriesIngest:
    def test_gas_and_fx(self):
        gas = ingest_gas("date,gwei_avg\n2021-05-01,55.2\n2021-05-02,48.0\n")
        fx = ingest_fx("date,eth_usd_close\n2021-05-01,3000\n")
        assert gas[dt.date(2021, 5, 1)] == 55.2
        assert fx[dt.date(2021, 5, 1)] == 3000.0

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            ingest_gas("date,gwei_avg\n2021-05-01,0\n")


class TestAttributeDistribution:
    def test_empty(self):
        dist = attribute_distribution([])
        assert dist.total == 0
        assert dist.gender_share(Gender.MALE) == 0.0

    def test_counts_and_shares(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, skin=SkinTone.DARK, gender=Gender.MALE),
                 sale(2, day, skin=SkinTone.DARK, gender=Gender.MALE),
                 sale(3, day, skin=SkinTone.ALBINO, gender=Gender.FEMALE),
                 sale(4, day, skin=SkinTone.APE, gender=Gender.MALE)]
        dist = attribute_distribution(sales)
        assert dist.total == len(sales)
        assert dist.count(Gender.MALE, SkinTone.DARK) == 2
        assert dist.share(Gender.FEMALE, SkinTone.ALBINO) == 0.25
        assert dist.gender_share(Gender.MALE) == 0.75
        assert dist.skin_share(SkinTone.APE) == 0.25

    def test_cells_sum_to_total(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=list(SkinTone)[i % 7],
                      gender=list(Gender)[i % 2]) for i in range(23)]
        dist = attribute_distribution(sales)
        assert sum(dist.counts.values()) == dist.total == 23


class TestDailyAggregates:
    def fx_for(self, dates, rate=100.0):
        return DailySeries({d: rate for d in dates})

    def test_one_sale_two_wallets(self):
        day = dt.date(2021, 5, 1)
        active, volume = daily_aggregates([sale(1, day, price=2.0)], self.fx_for([day]))
        assert active[day] == 2
        assert volume[day] == 200.0

    def test_shared_wallet_counted_once(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, buyer="A", seller="B"),
                 sale(2, day, buyer="A", seller="C")]
        active, _ = daily_aggregates(sales, self.fx_for([day]))
        assert active[day] == 3

    def test_uncovered_date_error(self):
        day = dt.date(2021, 5, 1)
        with pytest.raises(UncoveredDatesError, match="2021-05-01"):
            daily_aggregates([sale(1, day)], DailySeries({}))

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(7)
        days = [dt.date(2021, 5, 1) + dt.timedelta(days=int(i)) for i in range(10)]
        fx = DailySeries({d: float(rng.uniform(500, 4000)) for d in days})
        sales = [sale(i, days[int(rng.integers(0, 10))],
                      price=float(rng.uniform(0.1, 9.0)),
                      buyer=f"w{int(rng.integers(0, 8))}",
                      seller=f"w{int(rng.integers(0, 8))}") for i in range(30)]
        active, volume = daily_aggregates(sales, fx)
        wallets, usd = defaultdict(set), defaultdict(float)
        for s in sales:
            wallets[s.date] |= {s.buyer_wallet, s.seller_wallet}
            usd[s.date] += s.price_eth * fx[s.date]
        for day in wallets:
            assert active[day] == len(wallets[day])
            assert volume[day] == pytest.approx(usd[day], rel=1e-12)
        assert set(active.dates) <= {s.date for s in sales}


class TestPctChange:
    def d(self, i):
        return dt.date(2021, 5, 1) + dt.timedelta(days=i)

    def test_simple(self):
        series, gaps = pct_change(DailySeries({self.d(0): 100.0, self.d(1): 110.0}))
        assert series.values == pytest.approx([0.10])
        assert gaps == []

    def test_constant_series_all_zeros(self):
        series, _ = pct_change(DailySeries({self.d(i): 5.0 for i in range(4)}))
        assert series.values == [0.0, 0.0, 0.0]

    def test_zero_denominator_dropped_not_infinite(self):
        series, gaps = pct_change(DailySeries({self.d(0): 1.0, self.d(1): 0.0,
                                               self.d(2): 3.0}))
        assert gaps == [self.d(2)]
        assert series.dates == [self.d(1)]
        assert len(series) == 3 - 1 - len(gaps)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pct_change(DailySeries({self.d(0): 1.0}))

    def test_matches_shift_divide_oracle(self):
        rng = np.random.default_rng(11)
        values = np.abs(np.cumsum(rng.normal(0, 1, 50))) + 0.5
        series = DailySeries({self.d(i): float(v) for i, v in enumerate(values)})
        result, gaps = pct_change(series)
        oracle = values[1:] / values[:-1] - 1.0
        assert gaps == []
        assert result.values == pytest.approx(list(oracle), abs=1e-12)


class TestRarity:
    def test_uniform_population(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=SkinTone.DARK, gender=Gender.MALE) for i in range(5)]
        assert rarity_score(sales) == {i: 1.0 for i in range(5)}

    def test_inverse_frequency(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=SkinTone.DARK, gender=Gender.MALE)
                 for i in range(99)]
        sales.append(sale(99, day, skin=SkinTone.ALIEN, gender=Gender.FEMALE))
        scores = rarity_score(sales)
        assert scores[99] == pytest.approx(100.0)
        assert scores[0] == pytest.approx(100.0 / 99.0)

    def test_invariant_under_population_duplication(self):
        day = dt.date(2021, 5, 1)
        base = [sale(i, day, skin=list(SkinTone)[i % 3],
                     gender=list(Gender)[i % 2]) for i in range(12)]
        clones = [sale(s.punk_id + 100, s.date, s.price_eth, s.skin_tone,
                       s.gender, s.buyer_wallet, s.seller_wallet)
                  for s in base]
        original = rarity_score(base)
        doubled = rarity_score(base + clones)
        for punk_id, score in original.items():
            assert doubled[punk_id] == pytest.approx(score)
            assert doubled[punk_id + 100] == pytest.approx(score)

    def test_all_scores_positive(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=list(SkinTone)[i % 7],
                      gender=list(Gender)[i % 2]) for i in range(40)]
        assert all(v > 0 for v in rarity_score(sales).values())

    def test_precomputed_rarity_overrides(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, rarity=7.5), sale(2, day)]
        scores = rarity_score(sales)
        assert scores[1] == 7.5
        assert scores[2] == 1.0
