"""Sales, gas, and FX ingestion plus daily market aggregates."""

from __future__ import annotations

import datetime as dt
import math
from enum import Enum
from itertools import compress

import numpy as np

from .ingest import IngestReport, csv_columns, csv_records, iso_date
from .series import EPOCH_ORDINAL, DailySeries, Table


class Gender(Enum):
    MALE = "Male"
    FEMALE = "Female"


class SkinTone(Enum):
    DARK = "Dark"
    LIGHT = "Light"
    MEDIUM = "Medium"
    ALBINO = "Albino"
    ALIEN = "Alien"
    APE = "Ape"
    ZOMBIE = "Zombie"

    @property
    def is_nonhuman(self) -> bool:
        return self in _NONHUMAN


_NONHUMAN = frozenset({SkinTone.ALIEN, SkinTone.APE, SkinTone.ZOMBIE})

# A sale's ``skin`` and ``gender`` codes index these tuples.
SKIN_TONES = tuple(SkinTone)
GENDERS = tuple(Gender)
_SKIN_CODES = {s.value.lower(): code for code, s in enumerate(SKIN_TONES)}
_GENDER_CODES = {g.value.lower(): code for code, g in enumerate(GENDERS)}

SALES_COLUMNS = ("punk_id", "date", "price_eth", "skin_tone", "gender", "buyer", "seller")
_INT64_LIMIT = 2 ** 63


class Sales(Table):
    """Accepted sales in file order, one row each:

    - ``punk_id`` (int64) and ``day`` (datetime64[D]);
    - ``price_eth``, and ``rarity``, the optional precomputed rarity, NaN
      where the row gives none (a rarity given is finite and > 0);
    - ``skin`` and ``gender``, int8 codes: ``SKIN_TONES[code]`` and
      ``GENDERS[code]`` are the sale's SkinTone and Gender;
    - ``buyer`` and ``seller``, wallet ids interned per file: two ids are
      equal when the two addresses are equal after stripping whitespace.
    """

    DTYPES = {"punk_id": np.int64, "day": "datetime64[D]", "price_eth": np.float64,
              "rarity": np.float64, "skin": np.int8, "gender": np.int8,
              "buyer": np.int64, "seller": np.int64}


class _Memo(dict):
    """``parse(raw)`` for each distinct raw field, computed on first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, raw):
        value = self[raw] = self.parse(raw)
        return value


def _day_number(raw: str | None) -> int | None:
    """Days since 1970-01-01 of a ``YYYY-MM-DD`` date, or None if it is not one."""
    try:
        return iso_date((raw or "").strip()).toordinal() - EPOCH_ORDINAL
    except ValueError:
        return None


def _rarity(raw: str | None) -> float | None:
    """A rarity field's number, None if it is blank."""
    return float(raw) if raw and raw.strip() else None


def _mapped(parse, column: list, fill) -> tuple[list, list[int]]:
    """``parse`` of each field, ``fill`` where it raises TypeError or
    ValueError, and the positions of those fields."""
    values, failed, parsed = [], [], map(parse, column)
    while True:
        try:
            values.extend(parsed)           # keeps the values before a failure
            return values, failed
        except (TypeError, ValueError):     # ``parsed`` resumes after the failed field
            failed.append(len(values))
            values.append(fill)


def _positions(values: list) -> list[int]:
    """The positions of None in ``values``."""
    found, at = [], -1
    try:
        while True:
            at = values.index(None, at + 1)
            found.append(at)
    except ValueError:
        return found


def _check_sales(raw: dict[str, list], memos: dict[str, _Memo],
                 ) -> tuple[dict[str, list | np.ndarray], dict[int, str]]:
    """Check a chunk of sales fields a column at a time, rule after rule
    in ingest_sales' order.  Returns the parsed columns, with a stand-in
    value where a row fails, and the first reason of each failing row, by
    its position in the chunk."""
    reasons: dict[int, str] = {}

    def reject(positions, reason):
        for at in positions:
            reasons.setdefault(at, reason)

    punk, failed = _mapped(int, raw["punk_id"], 0)
    if punk and not (-_INT64_LIMIT <= min(punk) and max(punk) < _INT64_LIMIT):
        wide = [at for at, p in enumerate(punk) if not -_INT64_LIMIT <= p < _INT64_LIMIT]
        for at in wide:
            punk[at] = 0
        failed += wide
    reject(failed, "bad punk_id")
    day = list(map(memos["date"].__getitem__, raw["date"]))
    for at in _positions(day):
        reasons.setdefault(at, "bad date")
        day[at] = 0
    price, failed = _mapped(float, raw["price_eth"], 0.0)
    reject(failed, "bad price_eth")
    price = np.array(price, dtype=np.float64)
    reject(np.flatnonzero(~np.isfinite(price)).tolist(), "non-finite price_eth")
    reject(np.flatnonzero(price < 0).tolist(), "negative price_eth")
    codes = {}
    for name, label in (("skin", "skin_tone"), ("gender", "gender")):
        codes[name] = list(map(memos[label].__getitem__, raw[label]))
        for at in _positions(codes[name]):
            reasons.setdefault(at, f"unknown {label} {raw[label][at]!r}")
            codes[name][at] = 0
    rarity = np.full(len(punk), np.nan)
    if "rarity" in raw:
        given, failed = _mapped(memos["rarity"].__getitem__, raw["rarity"], None)
        reject(failed, "bad rarity")
        blank = _positions(given)
        for at in blank:
            given[at] = 1.0                     # passes the two rules below
        rarity = np.array(given, dtype=np.float64)
        reject(np.flatnonzero(~np.isfinite(rarity)).tolist(), "non-finite rarity")
        reject(np.flatnonzero(rarity <= 0).tolist(), "non-positive rarity")
        rarity[blank] = np.nan
    return {"punk_id": punk, "day": day, "price_eth": price, "rarity": rarity,
            "skin": codes["skin"], "gender": codes["gender"]}, reasons


def ingest_sales(source) -> tuple[Sales, IngestReport]:
    """Read the sales CSV; invalid rows go to the rejects report.

    Header: ``punk_id,date,price_eth,skin_tone,gender,buyer,seller[,rarity]``.
    Unknown extra columns are ignored.  A row is rejected, with the first
    reason that applies, for a punk_id that is not an integer in 64 bits,
    a date that is not ``YYYY-MM-DD``, a price_eth that is not a number,
    not finite or negative, a skin_tone or gender label that is not a
    SkinTone or Gender value (any case, surrounding space ignored), or a
    non-empty rarity that is not a finite number > 0.  A reject's row
    number counts CSV records with the header as 1; blank lines are not
    counted.  See Sales for the columns of the accepted rows.

    The CSV is read one ``csv_columns`` chunk at a time, and each chunk is
    checked a column at a time, so at most one chunk is held decoded.
    """
    index, chunks = csv_columns(source, SALES_COLUMNS, "sales")
    memos = {"date": _Memo(_day_number),       # each distinct field parsed once
             "skin_tone": _Memo(lambda raw: _SKIN_CODES.get((raw or "").strip().lower())),
             "gender": _Memo(lambda raw: _GENDER_CODES.get((raw or "").strip().lower())),
             "rarity": _Memo(_rarity)}
    parts = {name: [np.empty(0, Sales.DTYPES[name])]
             for name in ("punk_id", "day", "price_eth", "rarity", "skin", "gender")}
    wallets = {"buyer": [], "seller": []}       # the accepted addresses as read
    report = IngestReport()
    for rows, columns in chunks:
        raw = {name: columns[i] for name, i in index.items()}
        values, reasons = _check_sales(raw, memos)
        keep = np.ones(len(rows), dtype=bool)
        if reasons:
            bad = sorted(reasons)
            report.rejects += [(rows[at], reasons[at]) for at in bad]
            keep[bad] = False
        for name, column in values.items():
            parts[name].append(np.asarray(column, dtype=Sales.DTYPES[name])[keep])
        for role, addresses in wallets.items():
            addresses += compress(raw[role], keep.tolist()) if reasons else raw[role]
    columns = {name: np.concatenate(arrays) for name, arrays in parts.items()}
    # Wallet ids number the stripped addresses in first-seen order, over
    # the buyers and then the sellers.
    ids: dict[str, int] = {}
    for role, addresses in wallets.items():
        columns[role] = [ids.setdefault((raw or "").strip(), len(ids)) for raw in addresses]
    report.accepted = len(columns["punk_id"])
    return Sales(columns), report


def _ingest_two_column_series(source, what: str, date_col: str,
                              value_col: str) -> DailySeries:
    """Read a ``date,value`` CSV of finite values > 0 and distinct
    ``YYYY-MM-DD`` dates, one ``csv_records`` record at a time.  The first
    bad row is fatal, a ValueError ``<what> CSV row N: ...`` for the first
    rule it fails: bad date, bad value, not finite, not > 0, duplicate date."""
    index, records = csv_records(source, (date_col, value_col), what)
    i_date, i_value = index[date_col], index[value_col]
    out = {}                                    # day number -> value
    for row_number, row in records:
        raw_date, raw_value = row[i_date], row[i_value]
        day = _day_number(raw_date)
        try:
            value = float(raw_value)
        except (TypeError, ValueError):
            value = None
        if day is None:
            error = f"bad {date_col} {raw_date!r}"
        elif value is None:
            error = f"bad {value_col} {raw_value!r}"
        elif not math.isfinite(value):
            error = f"{value_col} must be finite, got {value}"
        elif value <= 0:
            error = f"{value_col} must be > 0, got {value}"
        elif day in out:
            error = f"duplicate date {dt.date.fromordinal(day + EPOCH_ORDINAL).isoformat()}"
        else:
            out[day] = value
            continue
        raise ValueError(f"{what} CSV row {row_number}: {error}")
    return DailySeries(list(out), list(out.values()))


def ingest_gas(source) -> DailySeries:
    """Gas CSV: ``date,gwei_avg``; mean daily gas price in gwei, > 0."""
    return _ingest_two_column_series(source, "gas", "date", "gwei_avg")


def ingest_fx(source) -> DailySeries:
    """FX CSV: ``date,eth_usd_close``; daily USD-per-ETH close, > 0."""
    return _ingest_two_column_series(source, "fx", "date", "eth_usd_close")


def implausible_days(series: DailySeries) -> list[tuple[dt.date, float]]:
    """The days of the series whose value is more than 10 times or under
    1/10 of each neighbouring day's value, an endpoint's one neighbour
    alone, each with its value, in date order.  Ratios are compared, not
    differences of rounded logs, so a value exactly 10 times its
    neighbour's is not one."""
    values = series.values
    if len(values) < 2:
        return []
    with np.errstate(over="ignore"):        # an infinite ratio is far too
        ratios = values[1:] / values[:-1]
    far = (ratios > 10.0) | (ratios < 0.1)  # each day from the day after it
    flagged = np.flatnonzero(np.append(True, far) & np.append(far, True))
    return list(zip(series.days[flagged].tolist(), values[flagged].tolist()))


def _combinations(sales: Sales, rows=slice(None)) -> np.ndarray:
    """The (gender, skin tone) cell of each sale in ``rows``, as
    ``gender * len(SKIN_TONES) + skin``."""
    return (sales["gender"][rows].astype(np.intp) * len(SKIN_TONES)
            + sales["skin"][rows])


def _last_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key, sorted, and the index of its last occurrence."""
    distinct, first_from_end = np.unique(keys[::-1], return_index=True)
    return distinct, len(keys) - 1 - first_from_end


def attribute_distribution(sales: Sales) -> np.ndarray:
    """The number of sales in each (gender, skin tone) cell, as an integer
    array of shape ``(len(GENDERS), len(SKIN_TONES))`` indexed by the
    sales' ``gender`` and ``skin`` codes."""
    cells = np.bincount(_combinations(sales), minlength=len(GENDERS) * len(SKIN_TONES))
    return cells.reshape(len(GENDERS), len(SKIN_TONES))


def daily_aggregates(sales: Sales, fx: DailySeries) -> tuple[DailySeries, DailySeries]:
    """Distinct active wallets and USD sales volume per day.

    Active wallets are the union of buyer and seller addresses seen that
    day, on every sale day.  Volume adds each sale's USD value in sale
    order, leaving out a sale whose USD value overflows, on the sale days
    that the FX series has; a day it lacks has no volume, and build_panel
    drops and counts its sales.
    """
    days, day_index = np.unique(sales["day"], return_inverse=True)
    rates, covered = fx.lookup(days)
    buyer, seller = sales["buyer"], sales["seller"]
    n_wallets = int(max(buyer.max(), seller.max())) + 1 if len(sales) else 1
    # Distinct (day, wallet) keys by sort and neighbour inequality: a plain
    # np.unique would import numpy.ma on numpy 2.x.
    day_wallets = np.sort(np.concatenate([day_index * n_wallets + buyer,
                                          day_index * n_wallets + seller]))
    first = np.ones(len(day_wallets), dtype=bool)
    first[1:] = day_wallets[1:] != day_wallets[:-1]
    active = np.bincount(day_wallets[first] // n_wallets, minlength=len(days))
    with np.errstate(over="ignore"):
        usd = sales["price_eth"] * rates[day_index]
    usd[np.isinf(usd)] = 0.0            # build_panel drops such a sale too
    volume = np.bincount(day_index, weights=usd, minlength=len(days))
    return DailySeries(days, active), DailySeries(days[covered], volume[covered])


def rarity_score(sales: Sales) -> np.ndarray:
    """The rarity of each sale's punk, one float per sale, in sale order.

    rarity(p) = N / |{punks with p's combination}| with N the number of
    distinct punks observed, the combination being (gender, skin tone)
    at the punk's last sale.  A punk's last precomputed rarity (the
    optional CSV column) takes precedence over computation, at every sale
    of that punk.
    """
    punks, last = _last_occurrences(sales["punk_id"])
    punk_index = np.searchsorted(punks, sales["punk_id"])
    combination = _combinations(sales, last)
    scores = len(punks) / np.bincount(combination)[combination]
    given = ~np.isnan(sales["rarity"])      # NaN: no precomputed rarity
    rated, last_rated = _last_occurrences(punk_index[given])
    scores[rated] = sales["rarity"][given][last_rated]
    return scores[punk_index]
