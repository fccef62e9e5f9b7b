"""Sales, gas, and FX ingestion plus daily market aggregates."""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .ingest import IngestReport, csv_records
from .series import EPOCH_ORDINAL, DailySeries


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
_SALES_DTYPES = {"punk_id": np.int64, "day": "datetime64[D]", "price_eth": np.float64,
                 "rarity": np.float64, "has_rarity": np.bool_, "skin": np.int8,
                 "gender": np.int8, "buyer": np.int64, "seller": np.int64}
_INT64_LIMIT = 2 ** 63


class UncoveredDatesError(ValueError):
    """A daily series does not cover every sale date."""

    def __init__(self, series_name: str, dates: list[dt.date]):
        self.series_name = series_name
        self.dates = dates
        listed = ", ".join(d.isoformat() for d in dates[:10])
        more = "" if len(dates) <= 10 else f" (+{len(dates) - 10} more)"
        super().__init__(f"{series_name} series missing sale dates: {listed}{more}")


class Sales:
    """Accepted sales in file order: one equal-length numpy array per name.

    - ``punk_id`` (int64) and ``day`` (datetime64[D]);
    - ``price_eth``, and ``rarity``, the optional precomputed rarity: NaN
      where ``has_rarity`` is false;
    - ``skin`` and ``gender``, int8 codes: ``SKIN_TONES[code]`` and
      ``GENDERS[code]`` are the sale's SkinTone and Gender;
    - ``buyer`` and ``seller``, wallet ids interned per file: two ids are
      equal when the two addresses are equal after stripping whitespace.
    """

    def __init__(self, columns):
        self.columns = {name: np.asarray(columns[name], dtype=dtype)
                        for name, dtype in _SALES_DTYPES.items()}
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError("sales columns differ in length")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["day"])

    def select(self, mask: np.ndarray) -> Sales:
        """The sales where ``mask`` is true, in the same order."""
        return Sales({name: column[mask] for name, column in self.columns.items()})


@dataclass
class AttributeDistribution:
    """Cell counts over the (gender, skin tone) grid."""

    counts: dict[tuple[Gender, SkinTone], int]
    total: int

    def count(self, gender: Gender, skin: SkinTone) -> int:
        return self.counts.get((gender, skin), 0)

    def share(self, gender: Gender, skin: SkinTone) -> float:
        return self.count(gender, skin) / self.total if self.total else 0.0

    def gender_share(self, gender: Gender) -> float:
        if not self.total:
            return 0.0
        return sum(c for (g, _), c in self.counts.items() if g is gender) / self.total

    def skin_share(self, skin: SkinTone) -> float:
        if not self.total:
            return 0.0
        return sum(c for (_, s), c in self.counts.items() if s is skin) / self.total


class _Memo(dict):
    """``parse(raw)`` for each distinct raw field, computed on first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, raw):
        value = self[raw] = self.parse(raw)
        return value


def _day_number(raw: str | None) -> int | None:
    """Days since 1970-01-01 of an ISO date, or None if it is not one."""
    try:
        return dt.date.fromisoformat((raw or "").strip()).toordinal() - EPOCH_ORDINAL
    except ValueError:
        return None


def ingest_sales(source) -> tuple[Sales, IngestReport]:
    """Read the sales CSV; invalid rows go to the rejects report.

    Header: ``punk_id,date,price_eth,skin_tone,gender,buyer,seller[,rarity]``.
    Unknown extra columns are ignored.  A row is rejected, with the first
    reason that applies, for a punk_id that is not an integer in 64 bits,
    a date that is not ISO, a price_eth that is not a number, not finite
    or negative, a skin_tone or gender label that is not a SkinTone or
    Gender value (any case, surrounding space ignored), or a non-empty
    rarity that is not a finite number > 0.  A reject's row number counts CSV
    records with the header as 1; blank lines are not counted.  See Sales
    for the columns of the accepted rows.
    """
    index, records = csv_records(source, SALES_COLUMNS, "sales")
    i_punk, i_date, i_price, i_skin, i_gender, i_buyer, i_seller = (
        index[c] for c in SALES_COLUMNS)
    i_rarity = index.get("rarity")
    days = _Memo(_day_number)                   # each distinct date string parsed once
    skins = _Memo(lambda raw: _SKIN_CODES.get((raw or "").strip().lower()))
    genders = _Memo(lambda raw: _GENDER_CODES.get((raw or "").strip().lower()))
    isfinite = math.isfinite

    report = IngestReport()
    rejects = report.rejects
    accepted = []
    for row_number, row in records:
        try:
            punk_id = int(row[i_punk])
        except (TypeError, ValueError):
            rejects.append((row_number, "bad punk_id"))
            continue
        if not -_INT64_LIMIT <= punk_id < _INT64_LIMIT:
            rejects.append((row_number, "bad punk_id"))
            continue
        day = days[row[i_date]]
        if day is None:
            rejects.append((row_number, "bad date"))
            continue
        try:
            price = float(row[i_price])
        except (TypeError, ValueError):
            rejects.append((row_number, "bad price_eth"))
            continue
        if not isfinite(price):
            rejects.append((row_number, "non-finite price_eth"))
            continue
        if price < 0:
            rejects.append((row_number, "negative price_eth"))
            continue
        skin = skins[row[i_skin]]
        if skin is None:
            rejects.append((row_number, f"unknown skin_tone {row[i_skin]!r}"))
            continue
        gender = genders[row[i_gender]]
        if gender is None:
            rejects.append((row_number, f"unknown gender {row[i_gender]!r}"))
            continue
        rarity = math.nan
        raw_rarity = None if i_rarity is None else row[i_rarity]
        if raw_rarity and raw_rarity.strip():
            try:
                rarity = float(raw_rarity)
            except ValueError:
                rejects.append((row_number, "bad rarity"))
                continue
            if not isfinite(rarity):
                rejects.append((row_number, "non-finite rarity"))
                continue
            if rarity <= 0:
                rejects.append((row_number, "non-positive rarity"))
                continue
        accepted.append((punk_id, day, price, rarity, skin, gender,
                         row[i_buyer], row[i_seller]))
    report.accepted = len(accepted)
    names = ("punk_id", "day", "price_eth", "rarity", "skin", "gender", "buyer", "seller")
    columns = dict(zip(names, zip(*accepted))) if accepted else dict.fromkeys(names, ())
    columns["day"] = np.array(columns["day"], dtype=np.int64).astype("datetime64[D]")
    wallet_ids: dict[str, int] = {}
    for role in ("buyer", "seller"):
        columns[role] = [wallet_ids.setdefault((raw or "").strip(), len(wallet_ids))
                         for raw in columns[role]]
    # NaN marks a row without rarity: a non-finite rarity given is rejected.
    columns["has_rarity"] = ~np.isnan(np.array(columns["rarity"], dtype=np.float64))
    return Sales(columns), report


def _ingest_two_column_series(source, date_col: str, value_col: str) -> DailySeries:
    """Read a ``date,value`` CSV of finite values > 0; any bad row is fatal,
    a ValueError naming the row as ingest_sales numbers it."""
    index, records = csv_records(source, (date_col, value_col), "series")
    i_date, i_value = index[date_col], index[value_col]
    out = {}                                    # day number -> value
    for row_number, row in records:
        raw_date, raw_value = row[i_date], row[i_value]
        day = _day_number(raw_date)
        if day is None:
            raise ValueError(f"row {row_number}: bad {date_col} {raw_date!r}")
        try:
            value = float(raw_value)
        except (TypeError, ValueError):
            raise ValueError(f"row {row_number}: bad {value_col} {raw_value!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"row {row_number}: {value_col} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"row {row_number}: {value_col} must be > 0, got {value}")
        if day in out:
            date = dt.date.fromordinal(day + EPOCH_ORDINAL)
            raise ValueError(f"row {row_number}: duplicate date {date.isoformat()}")
        out[day] = value
    return DailySeries(list(out), list(out.values()))


def ingest_gas(source) -> DailySeries:
    """Gas CSV: ``date,gwei_avg``; mean daily gas price in gwei, > 0."""
    return _ingest_two_column_series(source, "date", "gwei_avg")


def ingest_fx(source) -> DailySeries:
    """FX CSV: ``date,eth_usd_close``; daily USD-per-ETH close, > 0."""
    return _ingest_two_column_series(source, "date", "eth_usd_close")


def _combinations(sales: Sales, rows=slice(None)) -> np.ndarray:
    """The (gender, skin tone) cell of each sale in ``rows``, as
    ``gender * len(SKIN_TONES) + skin``."""
    return (sales["gender"][rows].astype(np.intp) * len(SKIN_TONES)
            + sales["skin"][rows])


def _last_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key, sorted, and the index of its last occurrence."""
    distinct, first_from_end = np.unique(keys[::-1], return_index=True)
    return distinct, len(keys) - 1 - first_from_end


def attribute_distribution(sales: Sales) -> AttributeDistribution:
    cells = np.bincount(_combinations(sales), minlength=len(GENDERS) * len(SKIN_TONES))
    counts = {cell: n for cell, n in zip(product(GENDERS, SKIN_TONES), cells.tolist()) if n}
    return AttributeDistribution(counts=counts, total=len(sales))


def daily_aggregates(sales: Sales, fx: DailySeries) -> tuple[DailySeries, DailySeries]:
    """Distinct active wallets and USD sales volume per day.

    Active wallets are the union of buyer and seller addresses seen that
    day.  Volume adds each sale's USD value in sale order, leaving out a
    sale whose USD value overflows.  The FX series must cover every sale
    date.
    """
    days, day_index = np.unique(sales["day"], return_inverse=True)
    rates, covered = fx.lookup(days)
    if not covered.all():
        raise UncoveredDatesError("fx", days[~covered].tolist())
    buyer, seller = sales["buyer"], sales["seller"]
    n_wallets = int(max(buyer.max(), seller.max())) + 1 if len(sales) else 1
    day_wallets = np.unique(np.concatenate([day_index * n_wallets + buyer,
                                            day_index * n_wallets + seller]))
    active = np.bincount(day_wallets // n_wallets, minlength=len(days))
    with np.errstate(over="ignore"):
        usd = sales["price_eth"] * rates[day_index]
    usd[np.isinf(usd)] = 0.0            # build_panel drops such a sale too
    volume = np.bincount(day_index, weights=usd, minlength=len(days))
    return DailySeries(days, active), DailySeries(days, volume)


def rarity_score(sales: Sales) -> dict[int, float]:
    """Inverse attribute-combination frequency over distinct punks.

    rarity(p) = N / |{punks with p's combination}| with N the number of
    distinct punks observed, the combination being (gender, skin tone)
    at the punk's last sale.  A punk's last precomputed rarity (the
    optional CSV column) takes precedence over computation.
    """
    punks, last = _last_occurrences(sales["punk_id"])
    combination = _combinations(sales, last)
    scores = len(punks) / np.bincount(combination)[combination]
    result = dict(zip(punks.tolist(), scores.tolist()))
    given = sales["has_rarity"]
    if given.any():
        punks, last = _last_occurrences(sales["punk_id"][given])
        result.update(zip(punks.tolist(), sales["rarity"][given][last].tolist()))
    return result
