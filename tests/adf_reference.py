"""The ADF lag search as it was before it became one QR per series.

Kept as the reference that ``punk_hedonics.econometrics.adf_test`` must
match, its lag loop verbatim, only moved into ``aic_lag``: one SVD
least-squares fit per candidate lag, each on its own design
``[level, Δy_{t-1..lag}, const]`` over the common sample.  The statistic
is refit with the package's ``ols_fit`` at the chosen lag, and the
result has the keys of the package's ``adf_test``.
"""

from __future__ import annotations

import math

import numpy as np

from punk_hedonics.econometrics import (ADF_MIN_LENGTH, ConstantColumnError,
                                        InsufficientDataError, adf_critical_values,
                                        default_adf_max_lag, ols_fit)


def _adf_design(y: np.ndarray, lag: int, start: int):
    """Regression pieces for the DF equation with `lag` lagged differences.

    Rows begin at difference index `start`, so fits with different lags
    can share a sample for AIC comparison.
    """
    dy = np.diff(y)
    m = dy.shape[0]
    cols = [y[start:m]]  # level term y_{t-1}
    for i in range(1, lag + 1):
        cols.append(dy[start - i : m - i])
    cols.append(np.ones(m - start))
    return np.column_stack(cols), dy[start:m]


def aic_lag(y: np.ndarray, max_lag: int) -> int:
    """The lag ``adf_test`` picks: one SVD fit per candidate lag."""
    best_lag, best_aic = 0, np.inf
    for lag in range(max_lag + 1):
        X, dy = _adf_design(y, lag, start=max_lag)
        rows, k = X.shape
        beta, *_ = np.linalg.lstsq(X, dy, rcond=None)
        rss = float(((dy - X @ beta) ** 2).sum())
        # Floor the RSS at numerical-noise level so a (near-)perfect fit
        # resolves deterministically to the smallest lag via the 2k penalty.
        floor = 1e-12 * max(float(dy @ dy), 1e-12)
        aic = rows * math.log(max(rss, floor) / rows) + 2 * k
        if aic < best_aic:
            best_aic, best_lag = aic, lag
    return best_lag


def selection_max_lag(n: int, max_lag: int | None) -> int:
    """The lag ceiling ``adf_test`` searches up to for a series of length ``n``."""
    if max_lag is None:
        max_lag = default_adf_max_lag(n)
    # Keep the selection sample comfortably larger than the widest design.
    return max(0, min(max_lag, (n - 1) // 2 - 2))


def adf_test(series, max_lag: int | None = None) -> dict:
    """Augmented Dickey-Fuller unit-root test (constant, no trend).

    Lag order is chosen by AIC over 0..max_lag on a common sample, then
    the statistic is the t-ratio on the level term refit on the longest
    sample that lag allows.  Rejection (statistic below the critical
    value) indicates stationarity.
    """
    y = np.asarray(series, dtype=float).ravel()
    n = y.shape[0]
    if n < ADF_MIN_LENGTH:
        raise InsufficientDataError(f"ADF needs at least {ADF_MIN_LENGTH} observations, got {n}")
    if np.ptp(y) == 0:
        raise ConstantColumnError("series")
    best_lag = aic_lag(y, selection_max_lag(n, max_lag))

    X, dy = _adf_design(y, best_lag, start=best_lag)
    rows, k = X.shape
    fit = ols_fit(X, dy, names=tuple(f"c{i}" for i in range(k)))
    statistic = fit["t_stats"][0]
    critical = adf_critical_values(rows)
    return {"statistic": statistic, "lags": best_lag, "n_obs": rows,
            "critical_values": critical, "stationary_at_5pct": statistic < critical["5%"]}
