import pytest

from punk_hedonics.ingest import csv_records

LONG = "x" * 140_000            # over csv's default field size limit of 131,072


class TestCsvRecords:
    def test_over_long_header_field_is_a_value_error_naming_row_1(self):
        with pytest.raises(ValueError) as info:
            csv_records(f"a,{LONG}\n1,2\n", ("a",), "sales")
        assert str(info.value) == "sales CSV row 1: field larger than field limit (131072)"

    def test_over_long_field_is_a_value_error_naming_its_row(self):
        _, records = csv_records(f"a,b\n1,2\n\n3,{LONG}\n4,5\n", ("a",), "tweet")
        assert next(records) == (2, ["1", "2"])
        with pytest.raises(ValueError) as info:
            next(records)
        assert str(info.value) == "tweet CSV row 3: field larger than field limit (131072)"
