"""Reads ``panel.csv`` back into a ``Panel``, so tests can compare what
``panel.write_panel_csv`` wrote with the panel it was given."""

from punk_hedonics.ingest import csv_records, iso_date
from punk_hedonics.panel import PANEL_COLUMNS, Panel, PanelError


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
