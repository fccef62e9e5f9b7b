import datetime as dt
import math
from collections import defaultdict

import numpy as np
import pytest

from conftest import Sale, make_sales, mapping_of, series_of
from punk_hedonics.ingest import SchemaError
from punk_hedonics.market import (GENDERS, SKIN_TONES, Gender, Sales, SkinTone,
                                  attribute_distribution, daily_aggregates, ingest_fx,
                                  ingest_gas, ingest_sales, rarity_score)
from punk_hedonics.series import pct_change

HEADER = "punk_id,date,price_eth,skin_tone,gender,buyer,seller"


def sale(punk_id, day, price=1.0, skin=SkinTone.DARK, gender=Gender.MALE,
         buyer="A", seller="B", rarity=None):
    return Sale(punk_id, day, price, skin, gender, buyer, seller, rarity)


class TestIngestSales:
    def test_valid_rows(self):
        csv_text = "\n".join([HEADER,
                              "1,2021-05-01,2.5,Dark,Male,0xa,0xb",
                              "2,2021-05-02,0.8,Albino,Female,0xc,0xd"]) + "\n"
        sales, report = ingest_sales(csv_text)
        assert len(sales) == 2
        assert sales["punk_id"].tolist() == [1, 2]
        assert sales["day"].tolist() == [dt.date(2021, 5, 1), dt.date(2021, 5, 2)]
        assert sales["price_eth"].tolist() == [2.5, 0.8]
        assert [SKIN_TONES[c] for c in sales["skin"]] == [SkinTone.DARK, SkinTone.ALBINO]
        assert [GENDERS[c] for c in sales["gender"]] == [Gender.MALE, Gender.FEMALE]
        assert sales["skin"].dtype == sales["gender"].dtype == np.int8
        assert np.isnan(sales["rarity"]).tolist() == [True, True]
        assert report.rejects == [] and report.accepted == 2

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
        assert len(sales) == 0
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
        assert np.isnan(sales["rarity"]).tolist() == [False, True]
        assert sales["rarity"][0] == 42.5 and math.isnan(sales["rarity"][1])

    def test_extra_columns_ignored(self):
        csv_text = (HEADER + ",block,marketplace\n"
                    "1,2021-05-01,2.5,Dark,Male,0xa,0xb,123,os\n")
        sales, _ = ingest_sales(csv_text)
        assert len(sales) == 1


    @pytest.mark.parametrize("price, reason", [("nan", "non-finite price_eth"),
                                               ("inf", "non-finite price_eth"),
                                               ("-inf", "non-finite price_eth"),
                                               ("1e999", "non-finite price_eth"),
                                               ("-0.5", "negative price_eth")])
    def test_price_rejects(self, price, reason):
        sales, report = ingest_sales(f"{HEADER}\n1,2021-05-01,{price},Dark,Male,a,b\n")
        assert len(sales) == 0
        assert report.rejects == [(2, reason)]

    @pytest.mark.parametrize("rarity", ["nan", "inf", "-Infinity"])
    def test_non_finite_rarity_rejected(self, rarity):
        csv_text = (HEADER + ",rarity\n"
                    f"1,2021-05-01,2.5,Dark,Male,0xa,0xb,{rarity}\n"
                    "2,2021-05-01,2.5,Dark,Male,0xa,0xb,3.5\n")
        sales, report = ingest_sales(csv_text)
        assert report.rejects == [(2, "non-finite rarity")]
        assert sales["rarity"].tolist() == [3.5]

    @pytest.mark.parametrize("date", ["20210501", "2021-W17-6", "2021-5-1", "2021-05-01T00"])
    def test_date_not_yyyy_mm_dd_rejected(self, date):
        # Python 3.11's date.fromisoformat reads the first two; 3.10's does not.
        sales, report = ingest_sales(f"{HEADER}\n1,{date},1,Dark,Male,a,b\n"
                                     "2, 2021-05-01 ,1,Dark,Male,a,b\n")
        assert report.rejects == [(2, "bad date")]
        assert sales["day"].tolist() == [dt.date(2021, 5, 1)]

    def test_punk_id_beyond_64_bits_rejected(self):
        csv_text = (f"{HEADER}\n{2 ** 63},2021-05-01,1,Dark,Male,a,b\n"
                    f"{-2 ** 63},2021-05-01,1,Dark,Male,a,b\n")
        sales, report = ingest_sales(csv_text)
        assert report.rejects == [(2, "bad punk_id")]
        assert sales["punk_id"].tolist() == [-2 ** 63]

    def test_row_numbers_count_records_not_blank_lines(self):
        csv_text = "\n".join([HEADER, "1,2021-05-01,1,Dark,Male,a,b", "",
                              "2,2021-05-01,1,Dark,Male,a,b", "x,2021-05-01,1,Dark,Male,a,b",
                              "3,2021-05-01,1,Dark", "4,2021-05-01,1,Dark,Male,\"a\nb\",c",
                              "y,2021-05-01,1,Dark,Male,a,b"]) + "\n"
        sales, report = ingest_sales(csv_text)
        # The bad row on line 5 is record 4; the short row reads gender as None.
        assert report.rejects == [(4, "bad punk_id"), (5, "unknown gender None"),
                                  (7, "bad punk_id")]
        assert sales["punk_id"].tolist() == [1, 2, 4]

    def test_repeated_header_name_reads_its_last_column(self):
        csv_text = (HEADER + ",price_eth\n"
                    "1,2021-05-01,oops,Dark,Male,a,b,2.5\n"
                    "2,2021-05-01,1.5,Dark,Male,a,b\n")
        sales, report = ingest_sales(csv_text)
        assert sales["price_eth"].tolist() == [2.5]
        assert report.rejects == [(3, "bad price_eth")]

    def test_wallets_interned_after_stripping(self):
        csv_text = (f"{HEADER}\n1,2021-05-01,1,Dark,Male,0xa, 0xb\n"
                    "2,2021-05-01,1,Dark,Male,0xb ,0xa\n")
        sales, _ = ingest_sales(csv_text)
        assert sales["buyer"].tolist() == sales["seller"].tolist()[::-1]
        assert sales["buyer"][0] != sales["buyer"][1]

    def test_select_keeps_order(self):
        sales = make_sales([sale(i, dt.date(2021, 5, 1 + i)) for i in range(4)])
        picked = sales.select(np.array([True, False, True, True]))
        assert picked["punk_id"].tolist() == [0, 2, 3]
        assert all(picked[name].dtype == sales[name].dtype for name in sales.columns)

    def test_columns_of_unequal_length_are_an_error(self):
        sales = make_sales([sale(1, dt.date(2021, 5, 1))])
        with pytest.raises(ValueError, match="^sales columns differ in length$"):
            Sales({**sales.columns, "seller": []})


class TestSeriesIngest:
    def test_gas_and_fx(self):
        gas = ingest_gas("date,gwei_avg\n2021-05-01,55.2\n2021-05-02,48.0\n")
        fx = ingest_fx("date,eth_usd_close\n2021-05-01,3000\n")
        assert mapping_of(gas) == {dt.date(2021, 5, 1): 55.2, dt.date(2021, 5, 2): 48.0}
        assert mapping_of(fx) == {dt.date(2021, 5, 1): 3000.0}

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            ingest_gas("date,gwei_avg\n2021-05-01,0\n")

    @pytest.mark.parametrize("body, message", [
        ("2021-05-01\n", "row 2: bad gwei_avg None"),
        ("2021-05-01,\n", "row 2: bad gwei_avg ''"),
        ("2021-05-01,fast\n", "row 2: bad gwei_avg 'fast'"),
        ("2021-05-01,nan\n", "row 2: gwei_avg must be finite, got nan"),
        ("2021-05-01,1\n\n2021-05-02,inf\n", "row 3: gwei_avg must be finite, got inf"),
        ("2021-05-01,1\n2021-13-01,1\n", "row 3: bad date '2021-13-01'"),
        ("2021-05-01,1\n20210502,1\n", "row 3: bad date '20210502'"),
        ("2021-W17-6,1\n", "row 2: bad date '2021-W17-6'"),
        (",1\n", "row 2: bad date ''"),
        ("2021-05-01,1\nx,1\ny,2\n", "row 3: bad date 'x'"),
        ("2021-05-01,1\n2021-05-01,2\n", "row 3: duplicate date 2021-05-01"),
        # the first bad row wins, with its first rule
        ("2021-05-01,1\n2021-05-02,x\n2021-05-01,2\n,3\n", "row 3: bad gwei_avg 'x'"),
        ("2021-05-01,1\n2021-05-02,2\n\n2021-05-01,5\n2021-05-03,x\n",
         "row 4: duplicate date 2021-05-01"),
        ("2021-05-01,1\n2021-05-02,2\n2021-05-03,3\n2021-02-30,0\n",
         "row 5: bad date '2021-02-30'"),
    ])
    def test_bad_row_is_a_value_error_naming_it(self, body, message):
        with pytest.raises(ValueError) as info:
            ingest_gas("date,gwei_avg\n" + body)
        assert str(info.value) == f"gas CSV {message}"

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="eth_usd_close"):
            ingest_fx("date,close\n2021-05-01,1\n")


class TestAttributeDistribution:
    def test_empty(self):
        dist = attribute_distribution(make_sales([]))
        assert dist.total == 0
        assert dist.share(Gender.MALE, SkinTone.DARK) == 0.0

    def test_counts_and_shares(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, skin=SkinTone.DARK, gender=Gender.MALE),
                 sale(2, day, skin=SkinTone.DARK, gender=Gender.MALE),
                 sale(3, day, skin=SkinTone.ALBINO, gender=Gender.FEMALE),
                 sale(4, day, skin=SkinTone.APE, gender=Gender.MALE)]
        dist = attribute_distribution(make_sales(sales))
        assert dist.total == len(sales)
        assert dist.count(Gender.MALE, SkinTone.DARK) == 2
        assert dist.share(Gender.FEMALE, SkinTone.ALBINO) == 0.25

    def test_cells_sum_to_total(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=list(SkinTone)[i % 7],
                      gender=list(Gender)[i % 2]) for i in range(23)]
        dist = attribute_distribution(make_sales(sales))
        assert sum(dist.counts.values()) == dist.total == 23


class TestDailyAggregates:
    def fx_for(self, dates, rate=100.0):
        return series_of({d: rate for d in dates})

    def test_one_sale_two_wallets(self):
        day = dt.date(2021, 5, 1)
        active, volume = daily_aggregates(make_sales([sale(1, day, price=2.0)]),
                                         self.fx_for([day]))
        assert mapping_of(active) == {day: 2}
        assert mapping_of(volume) == {day: 200.0}

    def test_shared_wallet_counted_once(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, buyer="A", seller="B"),
                 sale(2, day, buyer="A", seller="C")]
        active, _ = daily_aggregates(make_sales(sales), self.fx_for([day]))
        assert mapping_of(active) == {day: 3}

    def test_sale_day_without_fx_has_wallets_but_no_volume(self):
        day, next_day = dt.date(2021, 5, 1), dt.date(2021, 5, 2)
        sales = [sale(1, day, price=2.0), sale(2, next_day, price=3.0, buyer="C")]
        active, volume = daily_aggregates(make_sales(sales), self.fx_for([next_day]))
        assert mapping_of(active) == {day: 2, next_day: 2}
        assert mapping_of(volume) == {next_day: 300.0}

    def test_sale_whose_usd_value_overflows_adds_no_volume(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(1, day, price=2.0), sale(2, day, price=1e307, buyer="C")]
        active, volume = daily_aggregates(make_sales(sales), self.fx_for([day]))
        assert mapping_of(active) == {day: 3}
        assert mapping_of(volume) == {day: 200.0}

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(7)
        days = [dt.date(2021, 5, 1) + dt.timedelta(days=int(i)) for i in range(10)]
        fx = {d: float(rng.uniform(500, 4000)) for d in days}
        sales = [sale(i, days[int(rng.integers(0, 10))],
                      price=float(rng.uniform(0.1, 9.0)),
                      buyer=f"w{int(rng.integers(0, 8))}",
                      seller=f"w{int(rng.integers(0, 8))}") for i in range(30)]
        active, volume = daily_aggregates(make_sales(sales), series_of(fx))
        active, volume = mapping_of(active), mapping_of(volume)
        wallets, usd = defaultdict(set), defaultdict(float)
        for s in sales:
            wallets[s.date] |= {s.buyer_wallet, s.seller_wallet}
            usd[s.date] += s.price_eth * fx[s.date]
        for day in wallets:
            assert active[day] == len(wallets[day])
            assert volume[day] == pytest.approx(usd[day], rel=1e-12)
        assert set(active) <= {s.date for s in sales}


class TestPctChange:
    def d(self, i):
        return dt.date(2021, 5, 1) + dt.timedelta(days=i)

    def test_simple(self):
        series, gaps = pct_change(series_of({self.d(0): 100.0, self.d(1): 110.0}))
        assert series.values.tolist() == pytest.approx([0.10])
        assert gaps.tolist() == []

    def test_constant_series_all_zeros(self):
        series, _ = pct_change(series_of({self.d(i): 5.0 for i in range(4)}))
        assert series.values.tolist() == [0.0, 0.0, 0.0]

    def test_zero_denominator_dropped_not_infinite(self):
        series, gaps = pct_change(series_of({self.d(0): 1.0, self.d(1): 0.0,
                                             self.d(2): 3.0}))
        assert gaps.tolist() == [self.d(2)]
        assert series.days.tolist() == [self.d(1)]
        assert len(series) == 3 - 1 - len(gaps)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pct_change(series_of({self.d(0): 1.0}))

    def test_matches_shift_divide_oracle(self):
        rng = np.random.default_rng(11)
        values = np.abs(np.cumsum(rng.normal(0, 1, 50))) + 0.5
        series = series_of({self.d(i): float(v) for i, v in enumerate(values)})
        result, gaps = pct_change(series)
        oracle = values[1:] / values[:-1] - 1.0
        assert gaps.tolist() == []
        assert result.values.tolist() == pytest.approx(list(oracle), abs=1e-12)


def per_sale(want, sales):
    """The {punk: rarity} map ``want`` read at each sale's punk, in sale order."""
    return [want[p] for p in sales["punk_id"].tolist()]


class TestRarity:
    def test_uniform_population(self):
        day = dt.date(2021, 5, 1)
        sales = make_sales([sale(i, day, skin=SkinTone.DARK, gender=Gender.MALE)
                            for i in range(5)])
        assert rarity_score(sales).tolist() == per_sale({i: 1.0 for i in range(5)}, sales)

    def test_inverse_frequency(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=SkinTone.DARK, gender=Gender.MALE)
                 for i in range(99)]
        sales.append(sale(99, day, skin=SkinTone.ALIEN, gender=Gender.FEMALE))
        scores = rarity_score(make_sales(sales))       # sale i is punk i
        assert scores[99] == pytest.approx(100.0)
        assert scores[0] == pytest.approx(100.0 / 99.0)

    def test_invariant_under_population_duplication(self):
        day = dt.date(2021, 5, 1)
        base = [sale(i, day, skin=list(SkinTone)[i % 3],
                     gender=list(Gender)[i % 2]) for i in range(12)]
        clones = [sale(s.punk_id + 100, s.date, s.price_eth, s.skin_tone,
                       s.gender, s.buyer_wallet, s.seller_wallet)
                  for s in base]
        original = rarity_score(make_sales(base))
        doubled = rarity_score(make_sales(base + clones))
        for i, score in enumerate(original.tolist()):
            assert doubled[i] == pytest.approx(score)               # punk i
            assert doubled[len(base) + i] == pytest.approx(score)   # its clone, punk i + 100

    def test_all_scores_positive(self):
        day = dt.date(2021, 5, 1)
        sales = [sale(i, day, skin=list(SkinTone)[i % 7],
                      gender=list(Gender)[i % 2]) for i in range(40)]
        assert all(v > 0 for v in rarity_score(make_sales(sales)).tolist())

    def test_last_combination_and_last_override_win(self):
        day = dt.date(2021, 5, 1)
        sales = make_sales([sale(1, day, skin=SkinTone.DARK, rarity=9.0),
                            sale(2, day, skin=SkinTone.DARK),
                            sale(1, day, skin=SkinTone.APE),
                            sale(3, day, skin=SkinTone.APE, rarity=4.0),
                            sale(3, day, skin=SkinTone.APE, rarity=5.0)])
        # Punk 1 is an Ape by its last sale, like punk 3; punk 2 alone is Dark.
        assert rarity_score(sales).tolist() == per_sale({1: 9.0, 2: 3.0, 3: 5.0}, sales)

    def test_precomputed_rarity_overrides(self):
        day = dt.date(2021, 5, 1)
        sales = make_sales([sale(1, day, rarity=7.5), sale(2, day)])
        assert rarity_score(sales).tolist() == per_sale({1: 7.5, 2: 1.0}, sales)
