"""Numpy column tables: daily time series, one value per calendar day, and
row tables such as the sales and the panel."""

from __future__ import annotations

import datetime as dt

import numpy as np

EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()     # the date of day number 0


class Table:
    """Rows as one equal-length numpy array per column.  A subclass declares
    its columns, in order, and their dtypes in ``DTYPES``; it is built from
    any mapping that holds at least those names, each converted to its
    dtype, and a length mismatch is a ValueError naming the subclass."""

    DTYPES: dict[str, object] = {}

    def __init__(self, columns):
        self.columns = {name: np.asarray(columns[name], dtype=dtype)
                        for name, dtype in self.DTYPES.items()}
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError(f"{type(self).__name__.lower()} columns differ in length")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def select(self, mask: np.ndarray) -> Table:
        """The rows where ``mask`` is true, in the same order."""
        return type(self)({name: column[mask] for name, column in self.columns.items()})


class DailySeries:
    """``days`` (datetime64[D], strictly increasing) and ``values``
    (float64), equal-length arrays; the days may be given in any order,
    as dates or as integer day numbers since 1970-01-01."""

    def __init__(self, days, values):
        days = np.asarray(days, dtype="datetime64[D]")
        values = np.asarray(values, dtype=np.float64)
        if days.shape != values.shape:
            raise ValueError("series days and values differ in length")
        order = np.argsort(days, kind="stable")
        self.days, self.values = days[order], values[order]
        repeated = self.days[1:][self.days[1:] == self.days[:-1]]
        if len(repeated):
            raise ValueError(f"duplicate date {repeated[0]}")

    def lookup(self, days) -> tuple[np.ndarray, np.ndarray]:
        """The value on each of ``days``, NaN where the series lacks the
        day, and where it has it."""
        days = np.asarray(days, dtype="datetime64[D]")
        at = np.searchsorted(self.days, days)
        present = np.append(self.days, np.datetime64("NaT"))[at] == days
        return np.where(present, np.append(self.values, np.nan)[at], np.nan), present

    def __len__(self) -> int:
        return len(self.days)


def pct_change(series: DailySeries) -> tuple[DailySeries, np.ndarray]:
    """Period-over-period relative change over consecutive observed dates.

    The first date is dropped.  A zero denominator does not produce an
    infinity: the observation is dropped and its date returned as a gap.
    """
    if len(series) < 2:
        raise ValueError("pct_change needs at least 2 observations")
    previous, current, days = series.values[:-1], series.values[1:], series.days[1:]
    kept = previous != 0.0
    return (DailySeries(days[kept], (current[kept] - previous[kept]) / previous[kept]),
            days[~kept])
