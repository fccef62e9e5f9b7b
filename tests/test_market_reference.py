"""The columnar market path against the row-by-row reference in row_reference.

Generated sales CSVs cover what ``csv.DictReader`` did that the record
reader must keep (blank lines, short rows, a repeated header name, extra
columns), every reject reason, a punk whose combination changes between
sales, rarity overrides, zero prices, a subnormal price whose USD value may
underflow to 0, a wallet on both sides of a day, and daily inputs that miss
some sale days.  Prices span magnitudes so that summing a day's volume in
another order changes its bits.  Each CSV is
read as a str or as its UTF-8 bytes, which the reference decodes whole, and
read in chunks of 1, 2, 3 or ``ingest.CHUNK_LINES`` lines, so that blank
lines, short and long rows, bad fields and quoted multi-line fields fall on
every side of a chunk's end.
"""

import csv
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_reference as ref
import series_reference
from conftest import mapping_of, series_of
from punk_hedonics import ingest, market, panel
from punk_hedonics.market import GENDERS, SALES_COLUMNS, SKIN_TONES
from punk_hedonics.panel import PANEL_COLUMNS, PanelError

DAYS = [dt.date(2021, 5, 1) + dt.timedelta(days=i) for i in range(5)]
PRICES = ["0", "0.0", "-0.0", "0.1", "0.2", "0.3", "1", "2.5", "3.7", "1e16", "1e-300",
          "5e-324", "123456.789", " 4.2 ", "1_000"]
# Per column: (values that pass, values that give its reject reason).
FIELDS = {
    "punk_id": (st.sampled_from(["0", "1", "2", "3", "4", " 5 ", "-1", str(2 ** 63 - 1)]),
                st.sampled_from(["x", "", "1.5", str(2 ** 63), str(-2 ** 63 - 1)])),
    "date": (st.sampled_from([d.isoformat() for d in DAYS] + [f" {DAYS[2].isoformat()} "]),
             st.sampled_from(["2021-13-01", "yesterday", ""])),
    "price_eth": (st.sampled_from(PRICES) | st.floats(min_value=0, max_value=1e300).map(repr),
                  st.sampled_from(["abc", "", "-1", "-2.5e-3"])),
    "skin_tone": (st.sampled_from([s.value for s in SKIN_TONES] + ["dark", " ALIEN ", "zombie"]),
                  st.sampled_from(["purple", ""])),
    "gender": (st.sampled_from(["Male", "Female", "male", " FEMALE "]),
               st.sampled_from(["Robot", ""])),
    "buyer": (st.sampled_from(["w0", "w1", " w1", "w2", "w3 "]),) * 2,
    "seller": (st.sampled_from(["w0", "w1", "w2 ", "w3"]),) * 2,
    "rarity": (st.sampled_from(["", "", "", " ", "2.5", "7", "0.125"]),
               st.sampled_from(["x", "0", "-3"])),
}
EXTRA = (st.text(alphabet="ab,\" 1\n", max_size=4),) * 2
BAD_SHARE = 15              # about one field in this many draws a rejected value


@st.composite
def sales_csvs(draw):
    """A sales CSV: shuffled header, optional rarity and extra columns,
    perhaps a repeated column name, and rows that may be short, long or blank."""
    header = draw(st.permutations(SALES_COLUMNS))
    if draw(st.booleans()):
        header.append("rarity")
    header += draw(st.lists(st.sampled_from(["block", "note"]), max_size=2))
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(header)))       # this last column is read
    lines = [header]
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append([])                                # a blank line
            continue
        row = [draw(FIELDS.get(name, EXTRA)[draw(st.integers(0, BAD_SHARE)) == 0])
               for name in header]
        cut = draw(st.integers(0, 19))
        if cut < len(row) and cut < 3:
            row = row[:len(row) - 1 - cut]                 # a short row
        elif cut == 19:
            row += ["spare"]                                # a field past the header
        lines.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(lines)
    return buffer.getvalue()


def reference_ingest(source):
    """row_reference's ingest_sales plus the rule added after it: a punk_id
    outside 64 bits is its row's first reason, ``bad punk_id``."""
    records, report = ref.ingest_sales(source)
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    wide = set()
    for number, row in enumerate(csv.DictReader(io.StringIO(text)), start=2):
        try:
            if not -2 ** 63 <= int(row["punk_id"]) < 2 ** 63:
                wide.add(number)
        except (TypeError, ValueError):
            pass
    reasons = dict(report.rejects)
    numbers = [n for n in range(2, 2 + len(records) + len(reasons)) if n not in reasons]
    kept = [record for number, record in zip(numbers, records) if number not in wide]
    reasons.update(dict.fromkeys(wide, "bad punk_id"))
    report.rejects = sorted(reasons.items())
    report.accepted = len(kept)
    return kept, report


def series_over(draw, days):
    values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 0.1])
    return {d: draw(values) for d in days}


@st.composite
def daily_inputs(draw):
    """The six daily series of build_panel, as {date: value} maps; each may
    miss some days."""
    some_days = st.lists(st.sampled_from(DAYS), unique=True, min_size=4).map(sorted)
    inputs = {name: series_over(draw, draw(some_days))
              for name in ("sentiment", "active_wallet_pct", "sales_volume_pct", "gas",
                           "fx_pct")}
    rate = st.floats(min_value=1e-3, max_value=1e4) | st.sampled_from([0.1, 3000.0])
    inputs["fx_close"] = {d: draw(rate) for d in draw(some_days)}
    return inputs


def aggregates_outcome(sales, records, fx):
    """market's and the reference's daily_aggregates as lists of two
    {date: value} maps, or the error each raised."""
    got = outcome(market.daily_aggregates, sales, series_of(fx))
    want = outcome(ref.daily_aggregates, records, series_reference.DailySeries(fx))
    if isinstance(want[0], str):
        return got, want
    return [mapping_of(s) for s in got], [dict(s.items()) for s in want]


def panel_outcome(sales, records, inputs, rarity_map):
    """panel's and the reference's build_panel over the same daily maps and
    {punk: rarity} map; panel's gets one rarity per sale, NaN for a punk
    not in the map."""
    rarity = np.array([rarity_map.get(punk, np.nan) for punk in sales["punk_id"].tolist()])
    return (outcome(panel.build_panel, sales, *map(series_of, inputs), rarity),
            outcome(ref.build_panel, records, *map(series_reference.DailySeries, inputs),
                    rarity_map))


def wallet_ids_match(ids, addresses):
    """Equal ids exactly where the reference's addresses are equal."""
    pairs = set(zip(ids.tolist(), addresses))
    return len(pairs) == len(set(ids.tolist())) == len(set(addresses))


def assert_sales_equal(sales, records):
    assert len(sales) == len(records)
    assert sales["punk_id"].tolist() == [r.punk_id for r in records]
    assert sales["day"].tolist() == [r.date for r in records]
    assert (sales["price_eth"].view(np.int64).tolist()
            == np.array([r.price_eth for r in records], dtype=np.float64).view(np.int64).tolist())
    assert np.isnan(sales["rarity"]).tolist() == [r.rarity is None for r in records]
    assert sales["rarity"][~np.isnan(sales["rarity"])].tolist() == [
        r.rarity for r in records if r.rarity is not None]
    assert [SKIN_TONES[c] for c in sales["skin"]] == [r.skin_tone for r in records]
    assert [GENDERS[c] for c in sales["gender"]] == [r.gender for r in records]
    both = np.concatenate([sales["buyer"], sales["seller"]])
    assert wallet_ids_match(both, [r.buyer_wallet for r in records]
                            + [r.seller_wallet for r in records])


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_panels_bitwise_equal(a, b):
    for name in PANEL_COLUMNS:
        x, y = a[name], b[name]
        assert x.dtype == y.dtype, name
        if x.dtype.kind == "f":
            x, y = x.view(np.int64), y.view(np.int64)
        assert np.array_equal(x, y), name


class TestMatchesRowReference:
    @settings(max_examples=400, deadline=None)
    @given(sales_csvs(), daily_inputs(), st.sets(st.integers(-1, 5), max_size=2),
           st.booleans(), st.sampled_from([1, 2, 3, ingest.CHUNK_LINES]))
    def test_market_path(self, text, inputs, unrated, as_bytes, chunk_lines):
        source = text.encode("utf-8") if as_bytes else text
        records, ref_report = reference_ingest(source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
            sales, report = market.ingest_sales(source)
        assert report == ref_report
        assert_sales_equal(sales, records)

        distribution = market.attribute_distribution(sales)
        assert distribution.dtype.kind == "i"
        assert distribution.tolist() == ref.attribute_distribution(records)

        rarity = ref.rarity_score(records)
        assert market.rarity_score(sales).tolist() == [
            rarity[p] for p in sales["punk_id"].tolist()]

        got, want = aggregates_outcome(sales, records, inputs["fx_close"])
        assert got == want

        rarity_map = {punk: r for punk, r in rarity.items() if punk not in unrated}
        got, want = panel_outcome(sales, records, inputs.values(), rarity_map)
        if isinstance(want, tuple) and isinstance(want[0], str):
            assert got == want                      # both raised the same error
            return
        (got_panel, got_report), (want_panel, want_report) = got, want
        assert_panels_bitwise_equal(got_panel, want_panel)
        assert (got_report.total_sales, got_report.rows_emitted, got_report.drop_counts) == (
            want_report.total_sales, want_report.rows_emitted, want_report.drop_counts)

    def test_generated_csvs_reach_every_reject_reason(self):
        """Over a fixed draw of examples, so that the set reached does not
        change from run to run."""
        reasons = set()

        @settings(max_examples=250, deadline=None, database=None, derandomize=True)
        @given(sales_csvs())
        def collect(text):
            reasons.update(reason.split(" '")[0].split(" None")[0]
                           for _, reason in market.ingest_sales(text)[1].rejects)
        collect()
        assert reasons == {"bad punk_id", "bad date", "bad price_eth", "negative price_eth",
                           "unknown skin_tone", "unknown gender", "bad rarity",
                           "non-positive rarity"}

    def test_fixed_case(self):
        """A punk changes combination, overrides come last, a wallet sits on
        both sides of a day, a zero price, and a day without gas."""
        text = ("punk_id,date,price_eth,skin_tone,gender,buyer,seller,rarity\n"
                "1,2021-05-01,0.1,Dark,Male,w0,w1,\n"
                "1,2021-05-01,0.2,Ape,Male,w1,w0,9\n"
                "2,2021-05-02,0.3,Ape,Male,w2,w2,\n"
                "3,2021-05-02,0,Albino,Female,w0,w3,\n"
                "1,2021-05-03,1e16,Ape,Male,w3,w1,4\n"
                "2,2021-05-03,1,Ape,Male,w1,w3,\n")
        records, _ = ref.ingest_sales(text)
        sales, _ = market.ingest_sales(text)
        rarity = ref.rarity_score(records)
        assert rarity == {1: 4.0, 2: 1.5, 3: 3.0}
        assert market.rarity_score(sales).tolist() == [
            rarity[p] for p in sales["punk_id"].tolist()]
        fx = {d: 3000.0 for d in DAYS}
        (active, volume), want = aggregates_outcome(sales, records, fx)
        assert [active, volume] == want
        assert list(active.values()) == [2.0, 3.0, 2.0]
        inputs = [{d: 0.5 for d in DAYS} for _ in range(5)] + [fx]
        inputs[3] = {d: 20.0 for d in DAYS if d != DAYS[2]}
        (got_panel, got_report), (want_panel, want_report) = panel_outcome(
            sales, records, inputs, rarity)
        assert_panels_bitwise_equal(got_panel, want_panel)
        assert got_report.drop_counts == want_report.drop_counts == {
            "gas_price_gwei": 2, "positive price": 1}

    def test_sale_day_without_fx_has_no_volume_like_the_reference(self):
        text = ("punk_id,date,price_eth,skin_tone,gender,buyer,seller\n"
                "1,2021-05-03,1,Dark,Male,a,b\n1,2021-05-01,1,Dark,Male,a,b\n"
                "2,2021-05-02,2,Dark,Male,c,b\n")
        sales, records = market.ingest_sales(text)[0], ref.ingest_sales(text)[0]
        fx = {DAYS[1]: 3.0}
        (active, volume), want = aggregates_outcome(sales, records, fx)
        assert [active, volume] == want
        assert active == {DAYS[0]: 2.0, DAYS[1]: 2.0, DAYS[2]: 2.0}
        assert volume == {DAYS[1]: 6.0}

    def test_no_covered_sale_raises_like_the_reference(self):
        text = "punk_id,date,price_eth,skin_tone,gender,buyer,seller\n1,2021-05-01,1,Dark,Male,a,b\n"
        got, want = panel_outcome(market.ingest_sales(text)[0], ref.ingest_sales(text)[0],
                                  [{}] * 6, {1: 1.0})
        assert got == want == ("PanelError", "no sale date is covered by every daily input series")
