"""Sales, gas, and FX ingestion plus daily market aggregates."""

from __future__ import annotations

import csv
import datetime as dt
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .ingest import IngestReport, SchemaError, text_stream
from .series import DailySeries


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

_GENDER_BY_LABEL = {g.value.lower(): g for g in Gender}
_SKIN_BY_LABEL = {s.value.lower(): s for s in SkinTone}

SALES_COLUMNS = ("punk_id", "date", "price_eth", "skin_tone", "gender", "buyer", "seller")


class UncoveredDatesError(ValueError):
    """A daily series does not cover every sale date."""

    def __init__(self, series_name: str, dates: list[dt.date]):
        self.series_name = series_name
        self.dates = dates
        listed = ", ".join(d.isoformat() for d in dates[:10])
        more = "" if len(dates) <= 10 else f" (+{len(dates) - 10} more)"
        super().__init__(f"{series_name} series missing sale dates: {listed}{more}")


@dataclass(frozen=True)
class SaleRecord:
    punk_id: int
    date: dt.date
    price_eth: float
    skin_tone: SkinTone
    gender: Gender
    buyer_wallet: str
    seller_wallet: str
    rarity: float | None = None    # optional precomputed override


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


def ingest_sales(source) -> tuple[list[SaleRecord], IngestReport]:
    """Read the sales CSV; invalid rows go to the rejects report.

    Header: ``punk_id,date,price_eth,skin_tone,gender,buyer,seller[,rarity]``.
    Unknown extra columns are ignored.
    """
    reader = csv.DictReader(text_stream(source))
    header = reader.fieldnames or []
    missing = [c for c in SALES_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"sales CSV missing columns: {', '.join(missing)}")
    has_rarity = "rarity" in header

    report = IngestReport()
    sales: list[SaleRecord] = []
    for row_number, row in enumerate(reader, start=2):
        try:
            punk_id = int(row["punk_id"])
        except (TypeError, ValueError):
            report.rejects.append((row_number, "bad punk_id"))
            continue
        try:
            date = dt.date.fromisoformat((row["date"] or "").strip())
        except ValueError:
            report.rejects.append((row_number, "bad date"))
            continue
        try:
            price = float(row["price_eth"])
        except (TypeError, ValueError):
            report.rejects.append((row_number, "bad price_eth"))
            continue
        if price < 0:
            report.rejects.append((row_number, "negative price_eth"))
            continue
        skin = _SKIN_BY_LABEL.get((row["skin_tone"] or "").strip().lower())
        if skin is None:
            report.rejects.append((row_number, f"unknown skin_tone {row['skin_tone']!r}"))
            continue
        gender = _GENDER_BY_LABEL.get((row["gender"] or "").strip().lower())
        if gender is None:
            report.rejects.append((row_number, f"unknown gender {row['gender']!r}"))
            continue
        rarity = None
        if has_rarity and (row.get("rarity") or "").strip():
            try:
                rarity = float(row["rarity"])
            except ValueError:
                report.rejects.append((row_number, "bad rarity"))
                continue
        sales.append(SaleRecord(punk_id=punk_id, date=date, price_eth=price,
                                skin_tone=skin, gender=gender,
                                buyer_wallet=(row["buyer"] or "").strip(),
                                seller_wallet=(row["seller"] or "").strip(),
                                rarity=rarity))
    report.accepted = len(sales)
    return sales, report


def _ingest_two_column_series(source, date_col: str, value_col: str,
                              positive: bool) -> DailySeries:
    reader = csv.DictReader(text_stream(source))
    header = reader.fieldnames or []
    missing = [c for c in (date_col, value_col) if c not in header]
    if missing:
        raise SchemaError(f"series CSV missing columns: {', '.join(missing)}")
    out = {}
    for row_number, row in enumerate(reader, start=2):
        date = dt.date.fromisoformat((row[date_col] or "").strip())
        value = float(row[value_col])
        if positive and value <= 0:
            raise ValueError(f"row {row_number}: {value_col} must be > 0, got {value}")
        if date in out:
            raise ValueError(f"row {row_number}: duplicate date {date.isoformat()}")
        out[date] = value
    return DailySeries(out)


def ingest_gas(source) -> DailySeries:
    """Gas CSV: ``date,gwei_avg``; mean daily gas price in gwei, > 0."""
    return _ingest_two_column_series(source, "date", "gwei_avg", positive=True)


def ingest_fx(source) -> DailySeries:
    """FX CSV: ``date,eth_usd_close``; daily USD-per-ETH close, > 0."""
    return _ingest_two_column_series(source, "date", "eth_usd_close", positive=True)


def attribute_distribution(sales: list[SaleRecord]) -> AttributeDistribution:
    counts: dict[tuple[Gender, SkinTone], int] = defaultdict(int)
    for sale in sales:
        counts[(sale.gender, sale.skin_tone)] += 1
    return AttributeDistribution(counts=dict(counts), total=len(sales))


def daily_aggregates(sales: list[SaleRecord],
                     fx: DailySeries) -> tuple[DailySeries, DailySeries]:
    """Distinct active wallets and USD sales volume per day.

    Active wallets are the union of buyer and seller addresses seen that
    day.  The FX series must cover every sale date.
    """
    uncovered = sorted({s.date for s in sales if s.date not in fx})
    if uncovered:
        raise UncoveredDatesError("fx", uncovered)
    wallets: dict[dt.date, set[str]] = defaultdict(set)
    volume: dict[dt.date, float] = defaultdict(float)
    for sale in sales:
        wallets[sale.date].add(sale.buyer_wallet)
        wallets[sale.date].add(sale.seller_wallet)
        volume[sale.date] += sale.price_eth * fx[sale.date]
    active = DailySeries({d: float(len(w)) for d, w in wallets.items()})
    return active, DailySeries(volume)


def rarity_score(sales: list[SaleRecord]) -> dict[int, float]:
    """Inverse attribute-combination frequency over distinct punks.

    rarity(p) = N / |{punks with p's combination}| with N the number of
    distinct punks observed, the combination being (gender, skin tone).
    Precomputed per-sale rarity values (the optional CSV column) take
    precedence over computation.
    """
    combo_by_punk: dict[int, tuple] = {}
    override: dict[int, float] = {}
    for sale in sales:
        combo_by_punk[sale.punk_id] = (sale.gender, sale.skin_tone)
        if sale.rarity is not None:
            override[sale.punk_id] = sale.rarity
    n = len(combo_by_punk)
    combo_counts: dict[tuple, int] = defaultdict(int)
    for combo in combo_by_punk.values():
        combo_counts[combo] += 1
    scores = {punk: n / combo_counts[combo] for punk, combo in combo_by_punk.items()}
    scores.update(override)
    return scores
