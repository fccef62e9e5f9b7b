"""The row-by-row market path as it was before sales became numpy columns.

Kept verbatim as the reference that the columnar ``market`` and
``panel.build_panel`` must match: a frozen SaleRecord per accepted row,
``csv.DictReader`` ingest, dict loops for the daily aggregates, rarity
and heatmap counts, and a per-sale join with six date-keyed lookups.
Rules added to both paths since: a rarity that is not > 0 is a reject,
a sale whose USD value overflows or underflows to 0 is a panel drop, and
a sale day that the FX series lacks has no volume, where it was an
error.  Its daily series are the dict-backed ones of series_reference,
so a test converts them to and from ``punk_hedonics.series`` at the
boundary.  It decodes bytes whole into an ``io.StringIO``, as
``ingest.text_stream`` did before it decoded a line at a time.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from collections import defaultdict
from dataclasses import dataclass, field

from punk_hedonics.ingest import IngestReport, SchemaError
from punk_hedonics.market import SALES_COLUMNS, AttributeDistribution, Gender, SkinTone
from punk_hedonics.panel import DUMMY_COLUMNS, PANEL_COLUMNS, Panel, PanelError
from series_reference import DailySeries

_GENDER_BY_LABEL = {g.value.lower(): g for g in Gender}
_SKIN_BY_LABEL = {s.value.lower(): s for s in SkinTone}


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


def ingest_sales(source) -> tuple[list[SaleRecord], IngestReport]:
    """Read the sales CSV; invalid rows go to the rejects report.

    Header: ``punk_id,date,price_eth,skin_tone,gender,buyer,seller[,rarity]``.
    Unknown extra columns are ignored.
    """
    reader = csv.DictReader(io.StringIO(
        source.decode("utf-8") if isinstance(source, bytes) else source))
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
            if rarity <= 0:
                report.rejects.append((row_number, "non-positive rarity"))
                continue
        sales.append(SaleRecord(punk_id=punk_id, date=date, price_eth=price,
                                skin_tone=skin, gender=gender,
                                buyer_wallet=(row["buyer"] or "").strip(),
                                seller_wallet=(row["seller"] or "").strip(),
                                rarity=rarity))
    report.accepted = len(sales)
    return sales, report


def attribute_distribution(sales: list[SaleRecord]) -> AttributeDistribution:
    counts: dict[tuple[Gender, SkinTone], int] = defaultdict(int)
    for sale in sales:
        counts[(sale.gender, sale.skin_tone)] += 1
    return AttributeDistribution(counts=dict(counts), total=len(sales))


def daily_aggregates(sales: list[SaleRecord],
                     fx: DailySeries) -> tuple[DailySeries, DailySeries]:
    """Distinct active wallets and USD sales volume per day.

    Active wallets are the union of buyer and seller addresses seen that
    day.  Volume is summed on the days that the FX series has.
    """
    wallets: dict[dt.date, set[str]] = defaultdict(set)
    volume: dict[dt.date, float] = defaultdict(float)
    for sale in sales:
        wallets[sale.date].add(sale.buyer_wallet)
        wallets[sale.date].add(sale.seller_wallet)
        if sale.date in fx:
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


@dataclass
class CoverageReport:
    """Per-sale join outcomes; emitted rows + drops = sales in."""

    total_sales: int = 0
    rows_emitted: int = 0
    drops: list[tuple[int, str]] = field(default_factory=list)  # (sale index, missing inputs)
    drop_counts: dict[str, int] = field(default_factory=dict)


def encode_dummies(skin: SkinTone, gender: Gender) -> tuple[int, int, int, int, int]:
    """One-hot (dark, light, medium, nonhuman, male) against the
    Female + Albino base case; Alien/Ape/Zombie collapse to nonhuman."""
    return (int(skin is SkinTone.DARK),
            int(skin is SkinTone.LIGHT),
            int(skin is SkinTone.MEDIUM),
            int(skin.is_nonhuman),
            int(gender is Gender.MALE))


def build_panel(sales: list[SaleRecord],
                sentiment: DailySeries,
                active_wallet_pct: DailySeries,
                sales_volume_pct: DailySeries,
                gas: DailySeries,
                fx_pct: DailySeries,
                fx_close: DailySeries,
                rarity_map: dict[int, float],
                ) -> tuple[Panel, CoverageReport]:
    """One row per sale, inner-joined on day-level inputs.

    A row is emitted only when every daily input exists for its date;
    anything else is dropped and counted, never imputed.  An entirely
    empty result raises rather than returning a silent empty panel.
    """
    controls = {"sentiment": sentiment,
                "active_wallet_pct": active_wallet_pct,
                "sales_volume_pct": sales_volume_pct,
                "gas_price_gwei": gas,
                "fx_pct": fx_pct}
    daily_inputs = (*controls.items(), ("fx_close", fx_close))
    report = CoverageReport(total_sales=len(sales))
    columns: dict[str, list] = {name: [] for name in PANEL_COLUMNS}
    for idx, sale in enumerate(sales):
        missing = [name for name, series in daily_inputs if sale.date not in series]
        if sale.punk_id not in rarity_map:
            missing.append("rarity")
        if sale.price_eth <= 0:
            missing.append("positive price")
        elif sale.date in fx_close:
            usd = sale.price_eth * fx_close[sale.date]
            if usd == math.inf:
                missing.append("finite usd price")
            elif usd == 0.0:
                missing.append("positive usd price")
        if missing:
            reason = ",".join(missing)
            report.drops.append((idx, reason))
            for name in missing:
                report.drop_counts[name] = report.drop_counts.get(name, 0) + 1
            continue
        columns["date"].append(sale.date)
        columns["log_usd_price"].append(math.log(sale.price_eth * fx_close[sale.date]))
        for name, value in zip(DUMMY_COLUMNS, encode_dummies(sale.skin_tone, sale.gender)):
            columns[name].append(value)
        columns["rarity"].append(rarity_map[sale.punk_id])
        for name, series in controls.items():
            columns[name].append(series[sale.date])
    panel = Panel(columns)
    report.rows_emitted = len(panel)
    if sales and not panel:
        raise PanelError("no sale date is covered by every daily input series")
    return panel, report
