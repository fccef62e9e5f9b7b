"""The dict-backed daily series as it was before it became numpy columns.

Kept verbatim as the reference that ``punk_hedonics.series`` must match:
an immutable date -> float map, and ``pct_change`` as a loop over
consecutive pairs.  ``row_reference`` builds its series with this class.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Iterable, Mapping


class DailySeries:
    """Immutable map date -> float with strictly increasing dates."""

    def __init__(self, items: Mapping[dt.date, float] | Iterable[tuple[dt.date, float]]):
        pairs = list(items.items()) if isinstance(items, Mapping) else list(items)
        seen = {}
        for d, v in pairs:
            if not isinstance(d, dt.date) or isinstance(d, dt.datetime):
                raise TypeError(f"series keys must be dates, got {d!r}")
            if d in seen:
                raise ValueError(f"duplicate date {d.isoformat()}")
            seen[d] = float(v)
        self._data = dict(sorted(seen.items()))

    @property
    def dates(self) -> list[dt.date]:
        return list(self._data)

    @property
    def values(self) -> list[float]:
        return list(self._data.values())

    def items(self):
        return self._data.items()

    def get(self, date: dt.date, default=None):
        return self._data.get(date, default)

    def __getitem__(self, date: dt.date) -> float:
        return self._data[date]

    def __contains__(self, date: dt.date) -> bool:
        return date in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, DailySeries) and self._data == other._data

    def __repr__(self) -> str:
        return f"DailySeries({len(self._data)} days)"


def pct_change(series: DailySeries) -> tuple[DailySeries, list[dt.date]]:
    """Period-over-period relative change over consecutive observed dates.

    The first date is dropped.  A zero denominator does not produce an
    infinity: the observation is dropped and its date returned as a gap.
    """
    if len(series) < 2:
        raise ValueError("pct_change needs at least 2 observations")
    out = []
    gaps = []
    items = list(series.items())
    for (d_prev, v_prev), (d_cur, v_cur) in zip(items, items[1:]):
        if v_prev == 0.0:
            gaps.append(d_cur)
            continue
        out.append((d_cur, (v_cur - v_prev) / v_prev))
    return DailySeries(out), gaps
