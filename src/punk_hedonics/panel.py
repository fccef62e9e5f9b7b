"""Regression-ready panel construction: join, dummy encoding, log transform."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .econometrics import (ADF_MIN_LENGTH, adf_test, ConstantColumnError,
                           InsufficientDataError, SingularDesignError)
from .ingest import csv_records, iso_date
from .market import GENDERS, SKIN_TONES, Gender, Sales, SkinTone
from .series import DailySeries, Table

# Integer columns: the one-hot encoding of a sale's skin tone and gender
# against the Female + Albino base case; Alien, Ape and Zombie all set
# x_nonhuman.
DUMMY_COLUMNS = ("x_dark", "x_light", "x_medium", "x_nonhuman", "x_male")
_SKIN_DUMMIES = np.array([(s is SkinTone.DARK, s is SkinTone.LIGHT, s is SkinTone.MEDIUM,
                           s.is_nonhuman) for s in SKIN_TONES], dtype=np.int64)
_MALE = GENDERS.index(Gender.MALE)
PANEL_COLUMNS = ("date", "log_usd_price", *DUMMY_COLUMNS, "rarity",
                 "active_wallet_pct", "sales_volume_pct", "gas_price_gwei",
                 "fx_pct", "sentiment")
_WRITE_ROWS = 1024      # rows joined into one string at a time when writing

# Daily control/regressor fields screened for stationarity.
SCREEN_VARIABLES = ("log_usd_price", "active_wallet_pct", "sales_volume_pct",
                    "gas_price_gwei", "fx_pct", "sentiment")


class PanelError(ValueError):
    pass


class Panel(Table):
    """Sale-level panel in sale order: one row per sale kept, the columns
    of PANEL_COLUMNS, ``date`` as datetime64[D], the dummies as integers
    and every other column as floats."""

    DTYPES = {name: "datetime64[D]" if name == "date"
              else np.int64 if name in DUMMY_COLUMNS else np.float64
              for name in PANEL_COLUMNS}


@dataclass
class CoverageReport:
    """Join outcomes of build_panel.

    ``total_sales`` sales went in and ``rows_emitted`` rows came out.
    ``drop_counts`` maps each missing input to the number of dropped
    sales that lack it: a daily input's name (``sentiment``,
    ``active_wallet_pct``, ``sales_volume_pct``, ``gas_price_gwei``,
    ``fx_pct``, ``fx_close``), ``rarity`` (the sale's rarity is NaN),
    ``positive price``, ``finite usd price`` (``price_eth * fx_close``
    overflows) or ``positive usd price`` (a positive ``price_eth *
    fx_close`` underflows to 0, whose log is undefined).  A sale lacking
    several inputs counts under each, so the counts can add up to more
    than the ``total_sales - rows_emitted`` dropped sales.  A name under
    which no sale was dropped is absent.
    """

    total_sales: int = 0
    rows_emitted: int = 0
    drop_counts: dict[str, int] = field(default_factory=dict)


def build_panel(sales: Sales,
                sentiment: DailySeries,
                active_wallet_pct: DailySeries,
                sales_volume_pct: DailySeries,
                gas: DailySeries,
                fx_pct: DailySeries,
                fx_close: DailySeries,
                rarity: np.ndarray,
                ) -> tuple[Panel, CoverageReport]:
    """One row per sale in sale order, inner-joined on day-level inputs.

    ``rarity`` holds one float per sale, as rarity_score returns it, NaN
    for a sale without one.  Each daily input is looked up once per
    distinct sale day.  A row is emitted only when every daily input has
    the sale's day, its rarity is not NaN, the price is positive and its
    USD value is finite and positive; anything else is dropped and
    counted in the CoverageReport, never imputed.
    ``log_usd_price`` is ``math.log(price_eth * fx_close)``; the dummies
    encode the sale's skin and gender codes (see DUMMY_COLUMNS).  An
    entirely empty result raises rather than returning a silent empty
    panel.
    """
    controls = {"sentiment": sentiment,
                "active_wallet_pct": active_wallet_pct,
                "sales_volume_pct": sales_volume_pct,
                "gas_price_gwei": gas,
                "fx_pct": fx_pct}
    days, day_index = np.unique(sales["day"], return_inverse=True)
    daily, missing = {}, {}         # missing: input name -> sales without it
    for name, series in (*controls.items(), ("fx_close", fx_close)):
        daily[name], present = series.lookup(days)
        missing[name] = ~present[day_index]
    missing["rarity"] = np.isnan(rarity)
    missing["positive price"] = sales["price_eth"] <= 0
    with np.errstate(over="ignore"):        # an overflow is a drop, counted here
        usd = sales["price_eth"] * daily["fx_close"][day_index]
    missing["finite usd price"] = np.isinf(usd)     # a missing fx_close gives NaN
    missing["positive usd price"] = (usd == 0.0) & ~missing["positive price"]
    keep = ~np.logical_or.reduce(list(missing.values()))

    day_index = day_index[keep]
    columns = {"date": sales["day"][keep],
               "log_usd_price": [math.log(v) for v in usd[keep].tolist()],
               **dict(zip(DUMMY_COLUMNS[:-1], _SKIN_DUMMIES[sales["skin"][keep]].T)),
               "x_male": sales["gender"][keep] == _MALE,
               "rarity": rarity[keep],
               **{name: daily[name][day_index] for name in controls}}
    panel = Panel(columns)
    report = CoverageReport(total_sales=len(sales), rows_emitted=len(panel),
                            drop_counts={name: int(mask.sum())
                                         for name, mask in missing.items() if mask.any()})
    if len(sales) and not panel:
        raise PanelError("no sale date is covered by every daily input series")
    return panel, report


def _daily_means(day_index: np.ndarray, column: np.ndarray) -> list[float]:
    """Mean of ``column`` per day of ``day_index``, each day summed in row
    order as a Python running sum would, so numpy's order does not matter."""
    return (np.bincount(day_index, weights=column) / np.bincount(day_index)).tolist()


def stationarity_screen(panel: Panel, max_lag: int | None = None) -> dict[str, dict]:
    """ADF screen over daily-collapsed log price and every daily control.

    Each variable in SCREEN_VARIABLES maps to its ``suite.json`` entry:
    ``statistic``, ``lags``, ``n_obs``, ``critical_values`` and
    ``stationary_at_5pct``, or ``{"skip_reason": ...}`` for a series it
    cannot test (too short, constant, or a regression at the chosen lag
    whose design is singular).  Skips are reported, never silently
    dropped; the screen reports and does not gate.
    """
    if not panel:
        raise PanelError("panel is empty")
    _, day_index = np.unique(panel["date"], return_inverse=True)    # once for every variable
    report: dict[str, dict] = {}
    for variable in SCREEN_VARIABLES:
        values = _daily_means(day_index, panel[variable])
        if len(values) < ADF_MIN_LENGTH:
            report[variable] = {
                "skip_reason": f"series too short ({len(values)} < {ADF_MIN_LENGTH})"}
            continue
        try:
            result = adf_test(values, max_lag=max_lag)
        except ConstantColumnError:
            report[variable] = {"skip_reason": "zero variance"}
        except (InsufficientDataError, SingularDesignError) as exc:
            report[variable] = {"skip_reason": str(exc)}
        else:
            report[variable] = {"statistic": result.statistic, "lags": result.lags,
                                "n_obs": result.n_obs, "critical_values": result.critical_values,
                                "stationary_at_5pct": result.reject_at["5%"]}
    return report


def _column_text(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value of a panel column, as an object
    array, and the index into it of each row.  A float is written as
    ``format(v, ".17g")``, anything else as ``str`` of its Python scalar.
    Floats and dates are told apart by their bits, so -0.0 and 0.0 differ."""
    floats = column.dtype.kind == "f"
    keys = column.view(np.int64) if column.dtype.kind in "fM" else column
    distinct, index = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    text = [format(v, ".17g") for v in values] if floats else [str(v) for v in values]
    return np.array(text, dtype=object), index


def write_panel_csv(panel: Panel, stream) -> None:
    """Serialize the panel with the fixed column contract in PANEL_COLUMNS:
    ISO dates, integer dummies, floats to 17 significant digits.  Each
    distinct value of a column is formatted once; no field needs quoting."""
    stream.write(",".join(PANEL_COLUMNS) + "\n")
    columns = [_column_text(panel[name]) for name in PANEL_COLUMNS]
    for start in range(0, len(panel), _WRITE_ROWS):
        cells = [text[index[start:start + _WRITE_ROWS]].tolist() for text, index in columns]
        stream.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def read_panel_csv(source) -> Panel:
    """Parse a panel CSV written by write_panel_csv.  A record ``csv``
    cannot read is a ValueError naming its row, as for every input CSV."""
    index, records = csv_records(source, (), "panel")
    if index != {name: i for i, name in enumerate(PANEL_COLUMNS)}:
        raise PanelError(f"panel CSV header must be exactly {','.join(PANEL_COLUMNS)}")
    rows = []
    for row_number, row in records:
        if len(row) != len(PANEL_COLUMNS) or row[-1] is None:   # None pads a short row
            raise PanelError(f"panel CSV row {row_number} must have {len(PANEL_COLUMNS)} fields")
        rows.append(row)
    columns = {name: [row[i] for row in rows] for i, name in enumerate(PANEL_COLUMNS)}
    columns["date"] = [iso_date(d) for d in columns["date"]]   # numpy truncates a time
    return Panel(columns)
