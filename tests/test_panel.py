import csv
import datetime as dt
import io
import math
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Sale, make_sales, series_of
from punk_hedonics.market import Gender, SkinTone
from punk_hedonics.econometrics import adf_test
from punk_hedonics.panel import (_WRITE_ROWS, DUMMY_COLUMNS, PANEL_COLUMNS,
                                 SCREEN_VARIABLES, Panel, PanelError, _daily_means,
                                 build_panel, read_panel_csv, stationarity_screen,
                                 write_panel_csv)
from punk_hedonics.study import design_for, model_specs

DAY0 = dt.date(2021, 5, 1)


def day(i):
    return DAY0 + dt.timedelta(days=int(i))


def sale(punk_id, d, price=2.0, skin=SkinTone.DARK, gender=Gender.MALE):
    return Sale(punk_id, d, price, skin, gender)


def panel_of(sales, rarity_map, **inputs):
    """build_panel over Sale tuples, {date: value} daily inputs and a
    {punk: rarity} map; a punk not in the map has a NaN rarity."""
    rarity = np.array([rarity_map.get(s.punk_id, math.nan) for s in sales])
    return build_panel(make_sales(sales), rarity=rarity,
                       **{name: series_of(mapping) for name, mapping in inputs.items()})


def series_over(n, fn):
    return {day(i): float(fn(i)) for i in range(n)}


def full_inputs(n_days, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        sentiment=series_over(n_days, lambda i: float(rng.uniform(-0.5, 0.5))),
        active_wallet_pct=series_over(n_days, lambda i: float(rng.normal(0, 0.2))),
        sales_volume_pct=series_over(n_days, lambda i: float(rng.normal(0, 0.3))),
        gas=series_over(n_days, lambda i: float(rng.uniform(20, 200))),
        fx_pct=series_over(n_days, lambda i: float(rng.normal(0, 0.05))),
        fx_close=series_over(n_days, lambda i: float(rng.uniform(1000, 4000))),
    )


def encoded_pairs():
    """Each (skin, gender) pair with its dummy tuple, read off the panel
    built from one sale per pair."""
    pairs = list(product(SkinTone, Gender))
    sales = [sale(i, day(0), skin=s, gender=g) for i, (s, g) in enumerate(pairs)]
    panel, _ = panel_of(sales, rarity_map={i: 1.0 for i in range(len(pairs))},
                        **full_inputs(1))
    rows = zip(*(panel[name].tolist() for name in DUMMY_COLUMNS))
    return dict(zip(pairs, rows))


class TestEncodeDummies:
    """The dummy columns of build_panel: at most one skin dummy, against
    the Female + Albino base case."""

    def test_base_case(self):
        assert encoded_pairs()[(SkinTone.ALBINO, Gender.FEMALE)] == (0, 0, 0, 0, 0)

    def test_dark_male(self):
        assert encoded_pairs()[(SkinTone.DARK, Gender.MALE)] == (1, 0, 0, 0, 1)

    def test_nonhuman_subtypes_collapse(self):
        encoded = encoded_pairs()
        for skin in (SkinTone.ALIEN, SkinTone.APE, SkinTone.ZOMBIE):
            assert encoded[(skin, Gender.FEMALE)] == (0, 0, 0, 1, 0)

    def test_at_most_one_skin_dummy(self):
        for (skin, gender), (dark, light, medium, nonhuman, male) in encoded_pairs().items():
            assert dark + light + medium + nonhuman <= 1
            assert male == (1 if gender is Gender.MALE else 0)

    def test_distinct_tuples_collide_only_among_nonhuman(self):
        # 14 raw (skin, gender) classes merge to 10 tuples: the only
        # collisions are the three Nonhuman subtypes within each gender.
        by_tuple = {}
        for (s, g), encoded in encoded_pairs().items():
            by_tuple.setdefault(encoded, []).append((s, g))
        assert len(by_tuple) == 10
        for members in by_tuple.values():
            if len(members) > 1:
                assert all(s.is_nonhuman for s, _ in members)


class TestBuildPanel:
    def test_single_complete_row(self):
        inputs = full_inputs(3)
        panel, report = panel_of([sale(1, day(1))], rarity_map={1: 2.5}, **inputs)
        assert len(panel) == 1
        assert report.rows_emitted == 1 and report.drop_counts == {}
        assert panel["date"].tolist() == [day(1)]
        assert panel["log_usd_price"][0] == pytest.approx(
            math.log(2.0 * inputs["fx_close"][day(1)]))
        assert (panel["x_dark"][0], panel["x_male"][0]) == (1, 1)
        assert panel["rarity"][0] == 2.5
        assert panel["sentiment"][0] == inputs["sentiment"][day(1)]

    def test_column_dtypes(self):
        panel, _ = panel_of([sale(1, day(1))], rarity_map={1: 2.5}, **full_inputs(3))
        assert list(panel.columns) == list(PANEL_COLUMNS)
        assert panel["date"].dtype == np.dtype("datetime64[D]")
        for name in PANEL_COLUMNS[1:]:
            assert panel[name].dtype.kind == ("i" if name in DUMMY_COLUMNS else "f"), name

    def test_columns_of_unequal_length_are_an_error(self):
        panel, _ = panel_of([sale(1, day(1))], rarity_map={1: 2.5}, **full_inputs(3))
        with pytest.raises(ValueError, match="^panel columns differ in length$"):
            Panel({**panel.columns, "sentiment": []})

    def test_missing_sentiment_drops_with_reason(self):
        inputs = full_inputs(3)
        inputs["sentiment"] = {day(0): 0.1}  # not day 1
        with pytest.raises(PanelError):
            panel_of([sale(1, day(1))], rarity_map={1: 1.0}, **inputs)
        # With one covered sale present the dropped one is reported, not fatal.
        sales = [sale(1, day(0)), sale(2, day(1))]
        panel, report = panel_of(sales, rarity_map={1: 1.0, 2: 1.0}, **inputs)
        assert len(panel) == 1 and panel["date"].tolist() == [day(0)]
        assert report.drop_counts == {"sentiment": 1}

    def test_row_count_plus_drops_equals_sales(self):
        inputs = full_inputs(5)
        inputs["gas"] = {day(i): 50.0 for i in (0, 2, 4)}
        sales = [sale(i, day(i % 5)) for i in range(20)]
        panel, report = panel_of(sales, rarity_map={i: 1.0 for i in range(20)},
                                    **inputs)
        assert len(panel) + report.drop_counts["gas_price_gwei"] == len(sales)
        assert report.total_sales == len(sales) and report.rows_emitted == len(panel)

    def test_price_roundtrip_invariant(self):
        inputs = full_inputs(4, seed=3)
        sales = [sale(i, day(i), price=0.5 + i) for i in range(4)]
        panel, _ = panel_of(sales, rarity_map={i: 1.0 for i in range(4)}, **inputs)
        for log_price, s in zip(panel["log_usd_price"], sales):
            assert math.exp(log_price) / inputs["fx_close"][s.date] == \
                pytest.approx(s.price_eth, rel=1e-9)

    def test_matches_per_sale_lookup_oracle(self):
        rng = np.random.default_rng(17)
        inputs = full_inputs(10, seed=17)
        sales = [sale(i, day(int(rng.integers(0, 10))),
                      price=float(rng.uniform(0.1, 5.0)),
                      skin=list(SkinTone)[int(rng.integers(0, 7))],
                      gender=list(Gender)[int(rng.integers(0, 2))])
                 for i in range(50)]
        rarity = {i: float(rng.uniform(1, 50)) for i in range(50)}
        panel, report = panel_of(sales, rarity_map=rarity, **inputs)
        assert report.drop_counts == {}
        encoded = encoded_pairs()
        for i, s in enumerate(sales):
            assert panel["date"][i] == np.datetime64(s.date)
            assert panel["log_usd_price"][i] == pytest.approx(
                math.log(s.price_eth * inputs["fx_close"][s.date]), abs=1e-12)
            expected = encoded[(s.skin_tone, s.gender)]
            assert tuple(panel[name][i] for name in DUMMY_COLUMNS) == expected
            assert panel["rarity"][i] == rarity[s.punk_id]
            for column, series in (("active_wallet_pct", inputs["active_wallet_pct"]),
                                   ("sales_volume_pct", inputs["sales_volume_pct"]),
                                   ("gas_price_gwei", inputs["gas"]),
                                   ("fx_pct", inputs["fx_pct"]),
                                   ("sentiment", inputs["sentiment"])):
                assert panel[column][i] == series[s.date]

    def test_no_overlap_raises_not_silent_empty(self):
        inputs = full_inputs(2)
        with pytest.raises(PanelError, match="no sale date"):
            panel_of([sale(1, day(30))], rarity_map={1: 1.0}, **inputs)

    def test_sale_missing_several_inputs_counts_under_each(self):
        inputs = full_inputs(3)
        inputs["gas"] = {day(0): 50.0}
        inputs["fx_pct"] = {day(0): 0.1, day(1): 0.2}
        sales = [sale(1, day(0)), sale(2, day(1)), sale(3, day(2), price=0.0)]
        panel, report = panel_of(sales, rarity_map={1: 1.0, 2: 1.0}, **inputs)
        assert panel["date"].tolist() == [day(0)]
        assert report.drop_counts == {"gas_price_gwei": 2, "fx_pct": 1, "rarity": 1,
                                      "positive price": 1}

    def test_usd_price_that_overflows_drops_with_reason(self):
        inputs = full_inputs(3)                 # closes of 1,000-4,000 USD
        del inputs["fx_close"][day(2)]
        sales = [sale(1, day(0)), sale(2, day(1), price=1e306), sale(3, day(2), price=1e306)]
        panel, report = panel_of(sales, rarity_map={1: 1.0, 2: 1.0, 3: 1.0}, **inputs)
        assert panel["date"].tolist() == [day(0)]
        assert report.drop_counts == {"finite usd price": 1, "fx_close": 1}

    def test_usd_price_that_underflows_drops_with_reason(self):
        inputs = full_inputs(3)
        inputs["fx_close"][day(1)] = 0.4        # 5e-324 * 0.4 rounds to 0.0
        sales = [sale(1, day(0)), sale(2, day(1), price=5e-324), sale(3, day(2), price=0.0)]
        panel, report = panel_of(sales, rarity_map={1: 1.0, 2: 1.0, 3: 1.0}, **inputs)
        assert panel["date"].tolist() == [day(0)]
        assert report.drop_counts == {"positive usd price": 1, "positive price": 1}

    def test_missing_rarity_drops(self):
        inputs = full_inputs(2)
        panel, report = panel_of([sale(1, day(0)), sale(2, day(1))],
                                    rarity_map={1: 1.0}, **inputs)
        assert len(panel) == 1
        assert report.drop_counts == {"rarity": 1}


def panel_from_series(values, dates=None):
    """One panel row per value, with log price carrying the series."""
    i = np.arange(len(values))
    zeros = np.zeros(len(values), dtype=int)
    return Panel({"date": dates if dates else [day(k) for k in i],
                  "log_usd_price": values,
                  **{name: zeros for name in DUMMY_COLUMNS},
                  "rarity": np.ones(len(values)),
                  "active_wallet_pct": 0.1 * ((i % 7) - 3),
                  "sales_volume_pct": 0.05 * ((i % 5) - 2),
                  "gas_price_gwei": 50.0 + (i % 11),
                  "fx_pct": 0.01 * ((i % 3) - 1),
                  "sentiment": 0.2 * ((i % 9) / 8 - 0.5)})


class TestStationarityScreen:
    def test_stationary_ar1_flagged(self):
        rng = np.random.default_rng(31)
        values = [0.0]
        for _ in range(499):
            values.append(0.5 * values[-1] + rng.normal())
        report = stationarity_screen(panel_from_series(values))
        entry = report["log_usd_price"]
        assert "skip_reason" not in entry
        assert entry["stationary_at_5pct"] is True

    def test_random_walk_flagged_nonstationary(self):
        rng = np.random.default_rng(31)
        walk = np.cumsum(rng.normal(size=500))
        report = stationarity_screen(panel_from_series(walk))
        assert report["log_usd_price"]["stationary_at_5pct"] is False

    def test_constant_series_skipped(self):
        rows = panel_from_series(np.ones(100))
        report = stationarity_screen(rows)
        assert report["log_usd_price"] == {"skip_reason": "zero variance"}

    def test_short_series_skipped_with_reason(self):
        rows = panel_from_series(np.arange(5.0))
        report = stationarity_screen(rows)
        assert "too short" in report["log_usd_price"]["skip_reason"]

    def test_singular_design_at_chosen_lag_skipped_with_reason(self):
        report = stationarity_screen(panel_from_series([50.0] * 239 + [60.0]))
        assert report["log_usd_price"] == {
            "skip_reason": "design matrix is rank deficient in columns: const"}

    def test_empty_panel_errors(self):
        with pytest.raises(PanelError):
            stationarity_screen(panel_from_series([]))


class TestPanelCsv:
    def test_round_trip(self):
        inputs = full_inputs(4, seed=9)
        sales = [sale(i, day(i), price=1.0 + i, skin=list(SkinTone)[i],
                      gender=list(Gender)[i % 2]) for i in range(4)]
        panel, _ = panel_of(sales, rarity_map={i: 1.5 + i for i in range(4)},
                               **inputs)
        buf = io.StringIO()
        write_panel_csv(panel, buf)
        assert_panels_equal(read_panel_csv(buf.getvalue()), panel)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=20))
    def test_round_trip_is_exact_for_any_float(self, values):
        panel = panel_from_series(values)
        buf = io.StringIO()
        write_panel_csv(panel, buf)
        assert_panels_equal(read_panel_csv(buf.getvalue()), panel)

    def test_round_trip_longer_than_one_write_chunk(self):
        values = np.random.default_rng(5).normal(size=2 * _WRITE_ROWS + 3)
        panel = panel_from_series(values, dates=[day(k % 400) for k in range(len(values))])
        buf = io.StringIO()
        write_panel_csv(panel, buf)
        assert buf.getvalue().count("\n") == len(values) + 1
        assert_panels_equal(read_panel_csv(buf.getvalue()), panel)

    def test_short_row_rejected(self):
        with pytest.raises(PanelError, match="row 2 must have 13 fields"):
            read_panel_csv(",".join(PANEL_COLUMNS) + "\n2021-05-01,1.5\n")

    def test_over_long_field_is_an_error_naming_its_row(self):
        buf = io.StringIO()
        write_panel_csv(panel_from_series([1.0, 2.0]), buf)
        header, first, _ = buf.getvalue().splitlines()
        with pytest.raises(ValueError, match="^panel CSV row 3: field larger than field limit"):
            read_panel_csv("\n".join([header, first, "x" * 140_000]) + "\n")

    def test_datetime_in_date_column_rejected(self):
        buf = io.StringIO()
        write_panel_csv(panel_from_series([1.0]), buf)
        with pytest.raises(ValueError):
            read_panel_csv(buf.getvalue().replace("2021-05-01", "2021-05-01T05"))

    def test_header_contract_enforced(self):
        with pytest.raises(PanelError, match="header"):
            read_panel_csv("date,log_usd_price\n")

    def test_header_is_fixed_contract(self):
        buf = io.StringIO()
        write_panel_csv(panel_from_series([]), buf)
        assert buf.getvalue().strip() == ",".join(PANEL_COLUMNS)


def assert_panels_equal(a, b):
    assert list(a.columns) == list(b.columns)
    for name in PANEL_COLUMNS:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].tolist() == b[name].tolist(), name


def reference_daily_means(panel, variable):
    """Per-row reference: a Python running sum and count per day, the
    means in day order."""
    totals, counts = defaultdict(float), defaultdict(int)
    for date, value in zip(panel["date"].tolist(), panel[variable].tolist()):
        totals[date] += value
        counts[date] += 1
    return [totals[d] / counts[d] for d in sorted(totals)]


def reference_design(panel, model):
    """Per-row reference: the design filled row by row, one cell at a time."""
    names = ("intercept",) + model.regressors
    X = np.empty((len(panel), len(names)))
    for i in range(len(panel)):
        X[i, 0] = 1.0
        for j, name in enumerate(model.regressors, start=1):
            X[i, j] = float(panel[name][i])
    return X, np.array([float(v) for v in panel["log_usd_price"]]), names


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def random_panels(draw):
    """Unsorted dates over a few days, so each day holds many rows."""
    n = draw(st.integers(min_value=1, max_value=60))
    n_days = draw(st.integers(min_value=1, max_value=5))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    return Panel({"date": [day(k) for k in column(st.integers(0, n_days - 1))],
                  **{name: column(st.integers(0, 1)) for name in DUMMY_COLUMNS},
                  **{name: column(finite) for name in PANEL_COLUMNS
                     if name != "date" and name not in DUMMY_COLUMNS}})


def reference_write_panel_csv(panel: Panel, stream) -> None:
    """The per-cell writer: csv.writer plus format(v, ".17g") per float."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PANEL_COLUMNS)
    for start in range(0, len(panel), _WRITE_ROWS):
        cells = []
        for name in PANEL_COLUMNS:
            values = panel[name][start:start + _WRITE_ROWS].tolist()   # Python scalars
            cells.append([format(v, ".17g") for v in values]
                         if panel[name].dtype.kind == "f" else values)
        writer.writerows(zip(*cells))


SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 0.1, 1 / 3]


@st.composite
def written_panels(draw):
    """Panels of 0, 1, a few or more than one write chunk of rows, whose
    columns repeat values drawn from a small pool, specials included."""
    n = draw(st.sampled_from([0, 1, 2, 7, _WRITE_ROWS - 1, _WRITE_ROWS + 1,
                              2 * _WRITE_ROWS + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def column(elements):
        pool = draw(st.lists(elements, min_size=1, max_size=12))
        return [pool[i] for i in rng.integers(0, len(pool), n)]
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    return Panel({"date": column(st.dates()),
                  **{name: column(st.integers(-2 ** 63, 2 ** 63 - 1)) for name in DUMMY_COLUMNS},
                  **{name: column(floats) for name in PANEL_COLUMNS
                     if name != "date" and name not in DUMMY_COLUMNS}})


class TestColumnarMatchesRowReference:
    @settings(max_examples=150, deadline=None)
    @given(written_panels())
    def test_write_panel_csv(self, panel):
        got, want = io.StringIO(), io.StringIO()
        write_panel_csv(panel, got)
        reference_write_panel_csv(panel, want)
        assert got.getvalue() == want.getvalue()

    def test_screen_tests_each_daily_mean_series(self):
        rng = np.random.default_rng(17)
        n = 900
        panel = Panel({"date": [day(k) for k in rng.integers(0, 150, n)],
                       **{name: rng.integers(0, 2, n) for name in DUMMY_COLUMNS},
                       **{name: rng.normal(size=n).cumsum() for name in PANEL_COLUMNS
                          if name != "date" and name not in DUMMY_COLUMNS}})
        report = stationarity_screen(panel, max_lag=4)
        for variable in SCREEN_VARIABLES:
            expected = adf_test(reference_daily_means(panel, variable), max_lag=4)
            assert report[variable] == expected, variable

    @settings(max_examples=40, deadline=None)
    @given(random_panels())
    @example(panel_from_series([1.0, 3.0], dates=[day(0), day(0)]))    # mean 2.0
    def test_daily_means(self, panel):
        _, day_index = np.unique(panel["date"], return_inverse=True)
        for variable in ("log_usd_price", "x_male", "sentiment"):
            assert (_daily_means(day_index, panel[variable])
                    == reference_daily_means(panel, variable))

    @settings(max_examples=40, deadline=None)
    @given(random_panels())
    def test_design_for(self, panel):
        for model in model_specs():
            X, y, names = design_for(panel, model)
            X_ref, y_ref, names_ref = reference_design(panel, model)
            assert names == names_ref
            assert X.dtype == X_ref.dtype and np.array_equal(X, X_ref)
            assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
