"""Regression-ready panel construction: join, dummy encoding, log transform."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .econometrics import (ADF_MIN_LENGTH, AdfResult, adf_test,
                           ConstantColumnError, InsufficientDataError)
from .ingest import text_stream
from .market import Gender, SaleRecord, SkinTone
from .series import DailySeries

# Integer columns: the one-hot encoding returned by encode_dummies, in order.
DUMMY_COLUMNS = ("x_dark", "x_light", "x_medium", "x_nonhuman", "x_male")
PANEL_COLUMNS = ("date", "log_usd_price", *DUMMY_COLUMNS, "rarity",
                 "active_wallet_pct", "sales_volume_pct", "gas_price_gwei",
                 "fx_pct", "sentiment")
_DTYPES = {name: "datetime64[D]" if name == "date"
           else np.int64 if name in DUMMY_COLUMNS else np.float64
           for name in PANEL_COLUMNS}
_WRITE_ROWS = 1024      # rows turned into Python objects at a time when writing

# Daily control/regressor fields screened for stationarity.
SCREEN_VARIABLES = ("log_usd_price", "active_wallet_pct", "sales_volume_pct",
                    "gas_price_gwei", "fx_pct", "sentiment")


class PanelError(ValueError):
    pass


class Panel:
    """Sale-level panel in sale order: one equal-length numpy array per
    name in PANEL_COLUMNS, ``date`` as datetime64[D], the dummies as
    integers and every other column as floats."""

    def __init__(self, columns):
        self.columns = {name: np.asarray(columns[name], dtype=_DTYPES[name])
                        for name in PANEL_COLUMNS}
        if len({len(column) for column in self.columns.values()}) > 1:
            raise PanelError("panel columns differ in length")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["date"])


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


def _daily_means(day_index: np.ndarray, column: np.ndarray) -> list[float]:
    """Mean of ``column`` per day of ``day_index``, each day summed in row
    order as a Python running sum would, so numpy's order does not matter."""
    return (np.bincount(day_index, weights=column) / np.bincount(day_index)).tolist()


def daily_collapse(panel: Panel, variable: str) -> DailySeries:
    """Daily mean of one panel column (controls are constant within a day)."""
    days, day_index = np.unique(panel["date"], return_inverse=True)
    return DailySeries(zip(days.tolist(), _daily_means(day_index, panel[variable])))


def stationarity_screen(panel: Panel,
                        max_lag: int | None = None) -> dict[str, ScreenEntry]:
    """ADF screen over daily-collapsed log price and every daily control.

    Failures to test (short or constant series) are reported as skips,
    never silently dropped; the screen reports and does not gate.
    """
    if not panel:
        raise PanelError("panel is empty")
    _, day_index = np.unique(panel["date"], return_inverse=True)    # once for every variable
    report: dict[str, ScreenEntry] = {}
    for variable in SCREEN_VARIABLES:
        values = _daily_means(day_index, panel[variable])
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


def write_panel_csv(panel: Panel, stream) -> None:
    """Serialize the panel with the fixed column contract in PANEL_COLUMNS:
    ISO dates, integer dummies, floats to 17 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PANEL_COLUMNS)
    for start in range(0, len(panel), _WRITE_ROWS):
        cells = []
        for name in PANEL_COLUMNS:
            values = panel[name][start:start + _WRITE_ROWS].tolist()   # Python scalars
            cells.append([format(v, ".17g") for v in values]
                         if panel[name].dtype.kind == "f" else values)
        writer.writerows(zip(*cells))


def read_panel_csv(source) -> Panel:
    """Parse a panel CSV written by write_panel_csv."""
    reader = csv.reader(text_stream(source))
    if tuple(next(reader, ())) != PANEL_COLUMNS:
        raise PanelError(f"panel CSV header must be exactly {','.join(PANEL_COLUMNS)}")
    rows = [row for row in reader if row]
    if any(len(row) != len(PANEL_COLUMNS) for row in rows):
        raise PanelError(f"every panel CSV row must have {len(PANEL_COLUMNS)} fields")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(PANEL_COLUMNS)}
    columns["date"] = [dt.date.fromisoformat(d) for d in columns["date"]]  # numpy truncates a time
    return Panel(columns)
