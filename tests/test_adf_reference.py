"""The one-QR ADF lag search against the per-lag SVD loop in adf_reference.

Generated series are seeded AR(1), random-walk, differenced and level
series, and degenerate ones whose lagged differences are rank deficient:
flat except the last 2-12 values, flat then one step, period 7, and
two-valued.  ``max_lag`` is the default or any override up to the
default ceiling.  The chosen lag, the sample size and the bits of the
statistic must match, or both must raise the same error.

They may differ only on a degenerate design within rounding of rank
deficient, where the reference's SVD fits are ill-conditioned and the
package takes each lag's RSS by exact integer elimination, less the
columns its one rank rule rejects, among the lags whose refit that rule
accepts.  If the SVD fits judge every candidate's rank right, the lag
picked must be the one exact rational arithmetic picks, and the
reference's must not be.  If an SVD fit gets a rank wrong, as with a
974 among values of 0 and 2, double precision cannot tell the fits
apart and any lag is allowed.
"""

import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adf_reference as ref
from punk_hedonics import econometrics
from punk_hedonics.econometrics import adf_test, default_adf_max_lag

VALUES = st.floats(-1e3, 1e3, allow_nan=False) | st.integers(-3, 3).map(float)


@st.composite
def seeded_series(draw):
    kind = draw(st.sampled_from(["ar1", "walk", "differenced", "level"]))
    n = draw(st.integers(20, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shocks = rng.normal(size=n)
    if kind == "ar1":
        phi, y = draw(st.floats(-0.95, 0.95)), np.empty(n)
        y[0] = shocks[0]
        for t in range(1, n):
            y[t] = phi * y[t - 1] + shocks[t]
        return y
    if kind == "walk":
        return np.cumsum(shocks)
    if kind == "differenced":
        return np.diff(np.cumsum(np.cumsum(shocks)), prepend=0.0)
    return draw(VALUES) + shocks


@st.composite
def degenerate_series(draw):
    kind = draw(st.sampled_from(["flat_tail", "step", "period7", "two_valued"]))
    n = draw(st.integers(20, 300))
    if kind == "flat_tail":
        tail = draw(st.lists(VALUES, min_size=2, max_size=12))
        return np.array([draw(VALUES)] * (n - len(tail)) + tail)
    if kind == "step":
        at = draw(st.integers(1, n - 1))
        return np.array([draw(VALUES)] * at + [draw(VALUES)] * (n - at))
    if kind == "period7":
        period = draw(st.lists(VALUES, min_size=7, max_size=7))
        return np.array((period * (n // 7 + 1))[:n])
    low, high = draw(VALUES), draw(VALUES)
    return np.array([high if bit else low for bit in draw(st.lists(
        st.booleans(), min_size=n, max_size=n))])


@st.composite
def cases(draw):
    """A series and a ``max_lag``: None, or 0 up to the default ceiling,
    which the bound the sample sets cuts below 23 values."""
    series = draw(seeded_series() | degenerate_series())
    return series, draw(st.none() | st.integers(0, default_adf_max_lag(len(series))))


def zeros_then_normal_tail(seed):
    """0 but for its last 2-12 values, drawn normal: 20-49 values in all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 50))
    tail = rng.normal(size=int(rng.integers(2, 13)))
    return np.concatenate([np.zeros(n - len(tail)), tail])


def outcome(test, series, max_lag):
    try:
        result = test(series, max_lag=max_lag)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return result["lags"], result["n_obs"], result["statistic"].hex()


def exact_fit(X, y):
    """The RSS of the least-squares fit of ``y`` on the columns of ``X``,
    and the rank of ``X``, in exact rational arithmetic: y'y - b'G⁺b with
    G = X'X and b = X'y, by symmetric elimination, where a zero pivot is
    a column the ones before it span."""
    cols = [[Fraction(v) for v in col] for col in X.T.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    k = len(cols)
    rows = [[sum(map(mul, a, b)) for b in cols] + [sum(map(mul, a, ys))] for a in cols]
    explained, rank = Fraction(0), 0
    for j in range(k):
        pivot = rows[j][j]
        if pivot == 0:
            continue
        rank += 1
        explained += rows[j][k] ** 2 / pivot
        for i in range(j + 1, k):
            factor = rows[i][j] / pivot
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[j])]
    return sum(v * v for v in ys) - explained, rank


def fraction_prefix_fits(columns, y, rejected):
    """_exact_prefix_fits as it was in ``Fraction``s: the integer Gram
    matrix of the columns and y eliminated symmetrically in exact rational
    arithmetic, a rejected column's pivot counted as 0, each prefix's RSS
    rounded once and inf past the double range."""
    cols = [econometrics._integers(c)[0] for c in columns]
    ys, shift = econometrics._integers(y)
    k = len(cols)
    rows = [[Fraction(sum(map(mul, a, b))) for b in (*cols, ys)] for a in cols]
    left, fits = Fraction(sum(map(mul, ys, ys))), []
    for j in range(k):
        pivot = 0 if rejected[j] else rows[j][j]
        if pivot:
            left -= rows[j][k] ** 2 / pivot
            for i in range(j + 1, k):
                factor = rows[i][j] / pivot
                if factor:
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[j])]
        try:
            rss = float(left / 4 ** shift)
        except OverflowError:
            rss = math.inf
        fits.append(rss)
    return fits


def exact_selection(y, max_lag):
    """The reference's AIC rule, floor and tie rule included, on exact RSS,
    and whether an SVD fit gets the rank of any candidate design wrong."""
    best_lag, best_aic, rank_misjudged = 0, math.inf, False
    for lag in range(max_lag + 1):
        X, dy = ref._adf_design(y, lag, start=max_lag)
        rows, k = X.shape
        rss, rank = exact_fit(X, dy)
        rank_misjudged |= rank != np.linalg.matrix_rank(X)
        floor = 1e-12 * max(float(dy @ dy), 1e-12)
        aic = rows * math.log(max(float(rss), floor) / rows) + 2 * k
        if aic < best_aic:
            best_aic, best_lag = aic, lag
    return best_lag, rank_misjudged


@settings(max_examples=300, deadline=None)
@given(cases())
@example((np.array([0.0] * 16 + [1.0, 0.0, 0.0, 0.0]), None))     # found without the
@example((np.array([1.0] * 16 + [0.0] * 4), None))                # triangular solves
@example((zeros_then_normal_tail(14321), None))     # the reference misjudges an RSS
@example((np.array([0.0] * 63 + [1.0, 355.0, 0.0, 1.0, 0.0, 0.0]), None))  # so do the
@example((np.array([-2.0] * 28 + [-3.0, 448.9909520440915, 3.0, 1.0, -1.0,  # reflections
                                  999.1800348582522]), 8))
def test_lag_search_matches_reference(case):
    series, max_lag = case
    got, want = outcome(adf_test, series, max_lag), outcome(ref.adf_test, series, max_lag)
    if got != want:
        max_lag = ref.selection_max_lag(len(series), max_lag)
        exact, rank_misjudged = exact_selection(series, max_lag)
        if not rank_misjudged:
            assert isinstance(got[0], int) and got[0] == exact, (got, want, exact)
            assert ref.aic_lag(series, max_lag) != exact


@pytest.mark.parametrize("series", [
    np.array([1.0] * 16 + [0.0] * 4),                   # lags 4-7 are columns of 0
    np.array([0.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0] * 9),  # lags 1-7 of a period-7 series
])                                                      # sum to 0
def test_collinear_widest_design_takes_the_exact_pass(series, monkeypatch):
    """An exactly collinear widest design fails the condition bound, so
    every lag's RSS comes from one exact pass, no LAPACK routine runs, and
    the lag is the reference's."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")
    calls, exact = [], econometrics._exact_prefix_fits
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(econometrics, "_exact_prefix_fits",
                        lambda *args: calls.append(args) or exact(*args))
    max_lag = ref.selection_max_lag(len(series), None)
    lag = econometrics._aic_lag(series, max_lag)
    assert len(calls) == 1
    monkeypatch.undo()
    assert lag == ref.aic_lag(series, max_lag)


@st.composite
def masked_designs(draw, values=st.integers(-9, 9), exponents=st.integers(-40, 40),
                   scale_once=False):
    """Columns of ``values``, each times its own power of 2 (2^exponent),
    with repeats and sums of earlier columns among them, so that some are
    exactly dependent, a response, and a rejection mask.  A repeat or sum rescales earlier scaled columns, so
    exponents compound and a sum mixes magnitudes; with ``scale_once`` it
    is built from the unscaled columns and scaled once, so that a column
    near 2^±1000 is never scaled past the double range."""
    rows = draw(st.integers(3, 12))
    entries = st.lists(values, min_size=rows, max_size=rows).map(np.array)
    bases, columns = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "repeat", "sum"]) if columns else st.just("new"))
        earlier = bases if scale_once else columns
        if kind == "new":
            base = draw(entries).astype(float)
        elif kind == "repeat":
            base = draw(st.sampled_from(earlier)).copy()
        else:
            base = draw(st.sampled_from(earlier)) + draw(st.sampled_from(earlier))
        bases.append(base)
        columns.append(base * 2.0 ** draw(exponents))
    y = draw(entries) * 2.0 ** draw(exponents)
    rejected = np.array(draw(st.lists(st.booleans(), min_size=len(columns),
                                      max_size=len(columns))))
    return columns, y, rejected


@settings(max_examples=300, deadline=None)
@given(masked_designs())
def test_exact_prefix_fits_leave_out_rejected_columns(design):
    """Each prefix's RSS is exact_fit's on that prefix without its rejected
    columns, rounded once."""
    columns, y, rejected = design
    fits = econometrics._exact_prefix_fits(columns, y, rejected)
    assert len(fits) == len(columns)
    for k, rss in enumerate(fits, start=1):
        kept = [c for c, out in zip(columns[:k], rejected[:k]) if not out]
        X = np.column_stack(kept) if kept else np.empty((len(y), 0))
        assert rss == float(exact_fit(X, y)[0])


EXTREME = st.integers(-40, 40) | st.integers(-1000, -960) | st.integers(960, 1000)


@settings(max_examples=400, deadline=None)
@given(masked_designs(values=st.integers(-9, 9) | st.floats(-1e3, 1e3), exponents=EXTREME,
                      scale_once=True))
@example(([np.array([1.0, 2.0, 3.0]) * 2.0 ** 1000], np.array([5.0, -1.0, 2.0]) * 2.0 ** 1000,
          np.array([False])))                               # an RSS past the double range
@example(([np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]) * 2.0 ** -1000],
          np.array([1.0, 0.0, 2.0]) * 2.0 ** -1000, np.array([False, False])))  # a 0 pivot
def test_exact_prefix_fits_match_the_fraction_elimination(design):
    """Fraction-free integer elimination gives each prefix the bits of
    the RSS that elimination in ``Fraction``s gives, inf included, with
    rejected columns, exactly dependent ones, columns scaled by powers of
    2 and values near 1e±300."""
    fits = econometrics._exact_prefix_fits(*design)
    assert [rss.hex() for rss in fits] == [rss.hex() for rss in fraction_prefix_fits(*design)]


def test_lag_whose_refit_the_rank_rule_refuses_is_not_chosen():
    """35 values of 3.9708616189636916e-186 then 0, 0, 0, 1, 3: on the
    search's common sample lag 3 has the least AIC, but the refit of each
    lag from 1 on, in its own column order and sample, has a column the
    rank rule rejects.  The search keeps lag 0, as the reference does, and
    the statistic is the reference's."""
    series = np.array([3.9708616189636916e-186] * 35 + [0.0, 0.0, 0.0, 1.0, 3.0])
    got, want = adf_test(series, max_lag=5), ref.adf_test(series, max_lag=5)
    assert got["lags"] == want["lags"] == 0
    assert got["statistic"].hex() == want["statistic"].hex()


def test_lag_whose_refit_overflows_is_not_a_candidate():
    """Two values of 1.3e308, 30 zeros, then six normal draws: the design
    is near singular, and only lag 0's refit holds both large values in
    its level column, whose norm leaves the double range.  The search
    checks that lag's refit without raising and picks lag 3, whose refit
    gives a finite statistic."""
    series = np.array([1.3e308, 1.3e308] + [0.0] * 30 + [
        0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
        0.10490011715303971, -0.535669373161111, 0.36159505490948474])
    result = adf_test(series, max_lag=5)
    assert result["lags"] == 3
    assert math.isfinite(result["statistic"])


def test_t_ratio_past_the_double_range_is_inf():
    """The series above at ``max_lag=3``: lag 1's refit is finite, but its
    β over its standard error passes the double range.  The statistic is
    -inf, as the reference's is, and no overflow warning is raised."""
    series = np.array([1.3e308, 1.3e308] + [0.0] * 30 + [
        0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
        0.10490011715303971, -0.535669373161111, 0.36159505490948474])
    got, want = adf_test(series, max_lag=3), ref.adf_test(series, max_lag=3)
    assert got["lags"] == want["lags"] == 1
    assert got["statistic"] == want["statistic"] == -math.inf


def test_column_the_rank_rule_rejects_picks_no_lag():
    """17 values of 1.05108351e-115 then 0, 1, 0: exact arithmetic gives
    lag 1 a lower RSS through a column that the refit's rank rule would
    reject.  Leaving that column out keeps lag 0, whose refit gives a
    statistic."""
    series = np.array([1.05108351e-115] * 17 + [0.0, 1.0, 0.0])
    result = adf_test(series)
    assert result["lags"] == 0
    assert math.isfinite(result["statistic"])
