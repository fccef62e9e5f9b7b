"""Regression-ready panel construction: join, dummy encoding, log transform."""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields

from .econometrics import (ADF_MIN_LENGTH, AdfResult, adf_test,
                           ConstantColumnError, InsufficientDataError)
from .ingest import text_stream
from .market import Gender, SaleRecord, SkinTone
from .series import DailySeries

PANEL_COLUMNS = ("date", "log_usd_price", "x_dark", "x_light", "x_medium",
                 "x_nonhuman", "x_male", "rarity", "active_wallet_pct",
                 "sales_volume_pct", "gas_price_gwei", "fx_pct", "sentiment")

# Daily control/regressor fields screened for stationarity.
SCREEN_VARIABLES = ("log_usd_price", "active_wallet_pct", "sales_volume_pct",
                    "gas_price_gwei", "fx_pct", "sentiment")


class PanelError(ValueError):
    pass


@dataclass(frozen=True)
class PanelRow:
    date: dt.date
    log_usd_price: float
    x_dark: int
    x_light: int
    x_medium: int
    x_nonhuman: int
    x_male: int
    rarity: float
    active_wallet_pct: float
    sales_volume_pct: float
    gas_price_gwei: float
    fx_pct: float
    sentiment: float


@dataclass
class CoverageReport:
    """Per-sale join outcomes; emitted rows + drops = sales in."""

    total_sales: int = 0
    rows_emitted: int = 0
    drops: list[tuple[int, str]] = field(default_factory=list)  # (sale index, missing inputs)
    drop_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ScreenEntry:
    """One stationarity-screen line: a result or a skip with its reason."""

    variable: str
    result: AdfResult | None
    skip_reason: str | None

    @property
    def stationary_at_5pct(self) -> bool | None:
        return None if self.result is None else self.result.reject_at["5%"]


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
                ) -> tuple[list[PanelRow], CoverageReport]:
    """One row per sale, inner-joined on day-level inputs.

    A row is emitted only when every daily input exists for its date;
    anything else is dropped and counted, never imputed.  An entirely
    empty result raises rather than returning a silent empty panel.
    """
    daily_inputs = (("sentiment", sentiment),
                    ("active_wallet_pct", active_wallet_pct),
                    ("sales_volume_pct", sales_volume_pct),
                    ("gas_price_gwei", gas),
                    ("fx_pct", fx_pct),
                    ("fx_close", fx_close))
    report = CoverageReport(total_sales=len(sales))
    rows: list[PanelRow] = []
    for idx, sale in enumerate(sales):
        missing = [name for name, series in daily_inputs if sale.date not in series]
        if sale.punk_id not in rarity_map:
            missing.append("rarity")
        if sale.price_eth <= 0:
            missing.append("positive price")
        if missing:
            reason = ",".join(missing)
            report.drops.append((idx, reason))
            for name in missing:
                report.drop_counts[name] = report.drop_counts.get(name, 0) + 1
            continue
        dark, light, medium, nonhuman, male = encode_dummies(sale.skin_tone, sale.gender)
        rows.append(PanelRow(
            date=sale.date,
            log_usd_price=math.log(sale.price_eth * fx_close[sale.date]),
            x_dark=dark, x_light=light, x_medium=medium,
            x_nonhuman=nonhuman, x_male=male,
            rarity=rarity_map[sale.punk_id],
            active_wallet_pct=active_wallet_pct[sale.date],
            sales_volume_pct=sales_volume_pct[sale.date],
            gas_price_gwei=gas[sale.date],
            fx_pct=fx_pct[sale.date],
            sentiment=sentiment[sale.date],
        ))
    report.rows_emitted = len(rows)
    if sales and not rows:
        raise PanelError("no sale date is covered by every daily input series")
    return rows, report


def daily_collapse(panel: list[PanelRow], variable: str) -> DailySeries:
    """Daily mean of one panel field (controls are constant within a day)."""
    by_day: dict[dt.date, list[float]] = defaultdict(list)
    for row in panel:
        by_day[row.date].append(float(getattr(row, variable)))
    return DailySeries({d: sum(v) / len(v) for d, v in by_day.items()})


def stationarity_screen(panel: list[PanelRow],
                        max_lag: int | None = None) -> dict[str, ScreenEntry]:
    """ADF screen over daily-collapsed log price and every daily control.

    Failures to test (short or constant series) are reported as skips,
    never silently dropped; the screen reports and does not gate.
    """
    if not panel:
        raise PanelError("panel is empty")
    report: dict[str, ScreenEntry] = {}
    for variable in SCREEN_VARIABLES:
        series = daily_collapse(panel, variable)
        values = series.values
        if len(values) < ADF_MIN_LENGTH:
            report[variable] = ScreenEntry(variable, None,
                                           f"series too short ({len(values)} < {ADF_MIN_LENGTH})")
            continue
        try:
            result = adf_test(values, max_lag=max_lag)
        except ConstantColumnError:
            report[variable] = ScreenEntry(variable, None, "zero variance")
            continue
        except InsufficientDataError as exc:
            report[variable] = ScreenEntry(variable, None, str(exc))
            continue
        report[variable] = ScreenEntry(variable, result, None)
    return report


def _format_value(value) -> str:
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def write_panel_csv(panel: list[PanelRow], stream) -> None:
    """Serialize the panel with the fixed column contract in PANEL_COLUMNS."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PANEL_COLUMNS)
    for row in panel:
        writer.writerow([_format_value(getattr(row, col)) for col in PANEL_COLUMNS])


def read_panel_csv(source) -> list[PanelRow]:
    """Parse a panel CSV written by write_panel_csv."""
    reader = csv.DictReader(text_stream(source))
    if tuple(reader.fieldnames or ()) != PANEL_COLUMNS:
        raise PanelError(f"panel CSV header must be exactly {','.join(PANEL_COLUMNS)}")
    types = {f.name: f.type for f in fields(PanelRow)}
    rows = []
    for raw in reader:
        kwargs = {}
        for col in PANEL_COLUMNS:
            if col == "date":
                kwargs[col] = dt.date.fromisoformat(raw[col])
            elif types[col] in ("int", int):
                kwargs[col] = int(raw[col])
            else:
                kwargs[col] = float(raw[col])
        rows.append(PanelRow(**kwargs))
    return rows
