"""The numpy-column DailySeries and pct_change against the dict-backed
reference in series_reference.

Generated series give their days in shuffled order, with values that
include 0.0, -0.0, negatives, subnormals, huge values, infinities and
NaN.  Values are compared by ``float.hex``, so -0.0 differs from 0.0.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import series_reference as ref
from conftest import series_of
from punk_hedonics.series import EPOCH_ORDINAL, DailySeries, pct_change

DAY0 = dt.date(2021, 5, 1)
VALUES = st.floats() | st.sampled_from([0.0, -0.0, -1.0, 5e-324, -5e-324,
                                        2.2250738585072014e-308, 1.7976931348623157e308,
                                        -1e308, 1e-300])


def day(offset):
    return DAY0 + dt.timedelta(days=offset)


@st.composite
def day_maps(draw):
    """A {date: value} map of 0-40 days over a 60-day span, in shuffled order."""
    offsets = draw(st.lists(st.integers(0, 59), unique=True, max_size=40))
    return {day(k): draw(VALUES) for k in draw(st.permutations(offsets))}


def hexes(values):
    return [v.hex() for v in values]


def assert_same_series(got, want):
    assert got.days.dtype == np.dtype("datetime64[D]")
    assert got.values.dtype == np.float64
    assert got.days.tolist() == want.dates
    assert hexes(got.values.tolist()) == hexes(want.values)


class TestMatchesSeriesReference:
    @settings(max_examples=300, deadline=None)
    @given(day_maps())
    def test_series_and_pct_change(self, mapping):
        assert_same_series(series_of(mapping), ref.DailySeries(mapping))
        if len(mapping) < 2:
            with pytest.raises(ValueError) as got:
                pct_change(series_of(mapping))
            with pytest.raises(ValueError) as want:
                ref.pct_change(ref.DailySeries(mapping))
            assert str(got.value) == str(want.value)
            return
        with np.errstate(all="ignore"):         # Python floats overflow silently
            got, got_gaps = pct_change(series_of(mapping))
        want, want_gaps = ref.pct_change(ref.DailySeries(mapping))
        assert_same_series(got, want)
        assert got_gaps.dtype == np.dtype("datetime64[D]")
        assert got_gaps.tolist() == want_gaps

    @settings(max_examples=100, deadline=None)
    @given(day_maps())
    def test_days_as_day_numbers(self, mapping):
        numbers = [d.toordinal() - EPOCH_ORDINAL for d in mapping]
        assert_same_series(DailySeries(numbers, list(mapping.values())),
                           ref.DailySeries(mapping))

    @settings(max_examples=200, deadline=None)
    @given(day_maps(), st.lists(st.integers(-3, 62), max_size=30))
    @example({}, [0, 1])
    def test_lookup_is_get(self, mapping, offsets):
        """Days before, between, on and after the series' days, in any order."""
        queries = [day(k) for k in offsets]
        values, present = series_of(mapping).lookup(np.array(queries, dtype="datetime64[D]"))
        want = [ref.DailySeries(mapping).get(d) for d in queries]
        assert present.dtype == bool and values.dtype == np.float64
        assert present.tolist() == [v is not None for v in want]
        assert hexes(values.tolist()) == hexes(math.nan if v is None else v for v in want)

    @settings(max_examples=100, deadline=None)
    @given(day_maps().filter(bool), st.data())
    def test_repeated_day_raises_in_both(self, mapping, data):
        pairs = list(mapping.items())
        pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(st.sampled_from(pairs)))
        with pytest.raises(ValueError) as got:
            DailySeries([d for d, _ in pairs], [v for _, v in pairs])
        with pytest.raises(ValueError) as want:
            ref.DailySeries(pairs)
        assert str(got.value) == str(want.value)


class TestDailySeries:
    def test_days_and_values_must_pair_up(self):
        with pytest.raises(ValueError, match="differ in length"):
            DailySeries([day(0), day(1)], [1.0])
