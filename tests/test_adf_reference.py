"""The one-QR ADF lag search against the per-lag SVD loop in adf_reference.

Generated series are seeded AR(1), random-walk, differenced and level
series, and degenerate ones whose lagged differences are rank deficient:
flat except the last 2-12 values, flat then one step, period 7, and
two-valued.  ``max_lag`` is the default or any override up to the
default ceiling.  The chosen lag, the sample size and the bits of the
statistic must match, or both must raise the same error.

They may differ only on a degenerate design within rounding of rank
deficient, where the reference's SVD fits are ill-conditioned.  If
those fits judge every candidate's rank right, the lag picked must be
the one exact rational arithmetic picks, and the reference's must not
be.  If an SVD fit gets a rank wrong, as with a 974 among values of 0
and 2, double precision cannot tell the fits apart and any lag is
allowed.
"""

import math
from fractions import Fraction
from operator import mul

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adf_reference as ref
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
    return result.lags, result.n_obs, result.statistic.hex()


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
def test_lag_search_matches_reference(case):
    series, max_lag = case
    got, want = outcome(adf_test, series, max_lag), outcome(ref.adf_test, series, max_lag)
    if got != want:
        max_lag = ref.selection_max_lag(len(series), max_lag)
        exact, rank_misjudged = exact_selection(series, max_lag)
        if not rank_misjudged:
            assert isinstance(got[0], int) and got[0] == exact, (got, want, exact)
            assert ref.aic_lag(series, max_lag) != exact
