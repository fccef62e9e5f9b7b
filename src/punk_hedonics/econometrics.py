"""Least-squares estimation and time-series testing primitives.

OLS runs through a QR decomposition (stable on near-collinear dummy
designs); the unit-root test is an augmented Dickey-Fuller regression
with a constant, lag order picked by AIC, and response-surface critical
values for the constant-only case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

ADF_MIN_LENGTH = 20

# Response-surface coefficients for the constant, no-trend Dickey-Fuller
# distribution: cv(n) = b0 + b1/n + b2/n^2 + b3/n^3.
_ADF_CRITICAL_SURFACE = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.040),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}

ADF_LEVELS = tuple(_ADF_CRITICAL_SURFACE)


class InsufficientDataError(ValueError):
    pass


class SingularDesignError(ValueError):
    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"design matrix is rank deficient in columns: {', '.join(columns)}")


class ConstantColumnError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} is constant")


@dataclass(frozen=True)
class OlsFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r2: float
    adj_r2: float
    n_obs: int
    n_params: int

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def standard_error(self, name: str) -> float:
        return float(self.standard_errors[self.names.index(name)])


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    lags: int
    n_obs: int
    critical_values: dict[str, float]
    reject_at: dict[str, bool]


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student-t with df degrees of freedom.

    Uses the regularized incomplete beta identity
    2*SF(|t|) = I(df/2, 1/2; df/(df + t^2)).
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not math.isfinite(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return float(betainc(0.5 * df, 0.5, x))


def ols_fit(design: np.ndarray, response: np.ndarray,
            names: tuple[str, ...] | None = None) -> OlsFit:
    """Classical OLS with homoskedastic standard errors.

    `design` must already carry its intercept column.  p-values are
    two-sided Student-t with n - k degrees of freedom.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    n, k = X.shape
    if y.shape[0] != n:
        raise ValueError(f"design has {n} rows but response has {y.shape[0]}")
    if names is None:
        names = tuple(f"x{i}" for i in range(k))
    names = tuple(names)
    if len(names) != k:
        raise ValueError("names length must match design columns")
    if n <= k:
        raise InsufficientDataError(f"need n > k, got n={n}, k={k}")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = [names[i] for i in range(k) if diag[i] <= tol]
    if bad:
        raise SingularDesignError(bad)

    qty = Q.T @ y
    beta = np.linalg.solve(R, qty)
    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    s2 = rss / (n - k)

    r_inv = np.linalg.inv(R)
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    se = np.sqrt(s2 * xtx_inv_diag)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / np.where(se > 0, se, 1.0),
                           np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    df = n - k
    p_values = np.array([student_t_two_sided_p(float(t), df) if np.isfinite(t)
                         else (1.0 if t == 0 else 0.0)
                         for t in t_stats])

    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    r2 = min(max(r2, 0.0), 1.0)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    return OlsFit(names=names, coefficients=beta, standard_errors=se,
                  t_stats=t_stats, p_values=p_values, r2=r2, adj_r2=adj_r2,
                  n_obs=n, n_params=k)


def adf_critical_values(n_obs: int) -> dict[str, float]:
    out = {}
    for level, (b0, b1, b2, b3) in _ADF_CRITICAL_SURFACE.items():
        out[level] = b0 + b1 / n_obs + b2 / n_obs**2 + b3 / n_obs**3
    return out


def default_adf_max_lag(n: int) -> int:
    return int(math.ceil(12.0 * (n / 100.0) ** 0.25))


def _adf_design(y: np.ndarray, lag: int):
    """Regression pieces for the DF equation with `lag` lagged differences,
    columns ``[level, Δy_{t-1..lag}, const]``, on the longest sample."""
    dy = np.diff(y)
    m = dy.shape[0]
    cols = [y[lag:m]]  # level term y_{t-1}
    for i in range(1, lag + 1):
        cols.append(dy[lag - i : m - i])
    cols.append(np.ones(m - lag))
    return np.column_stack(cols), dy[lag:m]


def _aic_lag(y: np.ndarray, max_lag: int) -> int:
    """The lag in 0..max_lag whose DF regression has the least AIC, the
    smallest on a tie, all fitted on the sample the widest one allows.

    The widest design is factored once with its columns ordered
    ``[level, const, Δy_{t-1..max_lag}]``, so the model of each lag is a
    column prefix and the fitted values of every prefix are cumulative
    sums over the columns of Q.  A prefix that an SVD fit would truncate
    as rank deficient adds the residual of that truncated least-squares
    solve on its triangular block, so its projection is the one an SVD
    fit of the prefix makes.
    """
    dy = np.diff(y)
    m = dy.shape[0]
    X = np.column_stack([y[max_lag:m], np.ones(m - max_lag),
                         *(dy[max_lag - i : m - i] for i in range(1, max_lag + 1))])
    target = dy[max_lag:]
    rows, width = X.shape
    Q, R = np.linalg.qr(X)
    qty = Q.T @ target
    fitted = np.cumsum(Q * qty, axis=1)[:, 1:]      # prefixes of 2.. columns: lags 0..
    rss = ((target[:, None] - fitted) ** 2).sum(axis=0)
    # No column prefix is worse conditioned than the whole design, so only
    # a design an SVD fit would truncate needs the triangular solves.
    singular = np.linalg.svd(R, compute_uv=False)
    cutoff = rows * np.finfo(float).eps
    if singular[-1] <= cutoff * singular[0]:
        for k in range(2, width + 1):
            z, _, rank, _ = np.linalg.lstsq(R[:k, :k], qty[:k], rcond=cutoff)
            if rank < k:
                r = qty[:k] - R[:k, :k] @ z
                rss[k - 2] += r @ r

    # Floor the RSS at numerical-noise level so a (near-)perfect fit
    # resolves deterministically to the smallest lag via the 2k penalty.
    floor = 1e-12 * max(float(target @ target), 1e-12)
    best_lag, best_aic = 0, np.inf
    for lag, lag_rss in enumerate(rss.tolist()):
        aic = rows * math.log(max(lag_rss, floor) / rows) + 2 * (lag + 2)
        if aic < best_aic:
            best_aic, best_lag = aic, lag
    return best_lag


def adf_test(series, max_lag: int | None = None) -> AdfResult:
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
    if not np.isfinite(y).all():
        raise ValueError("ADF series has non-finite values")
    if np.ptp(y) == 0:
        raise ConstantColumnError("series")
    if max_lag is None:
        max_lag = default_adf_max_lag(n)
    # Keep the selection sample comfortably larger than the widest design.
    max_lag = max(0, min(max_lag, (n - 1) // 2 - 2))
    best_lag = _aic_lag(y, max_lag)

    X, dy = _adf_design(y, best_lag)
    rows, k = X.shape
    fit = ols_fit(X, dy, names=tuple(f"c{i}" for i in range(k)))
    statistic = float(fit.t_stats[0])
    critical = adf_critical_values(rows)
    reject = {level: statistic < cv for level, cv in critical.items()}
    return AdfResult(statistic=statistic, lags=best_lag, n_obs=rows,
                     critical_values=critical, reject_at=reject)


def pearson_matrix(columns: list[tuple[str, np.ndarray]]) -> tuple[tuple[str, ...], np.ndarray]:
    """Correlation matrix over named, equal-length, non-constant columns."""
    if not columns:
        raise ValueError("no columns given")
    names = tuple(name for name, _ in columns)
    arrays = [np.asarray(v, dtype=float).ravel() for _, v in columns]
    length = arrays[0].shape[0]
    if length < 2:
        raise InsufficientDataError("columns must have length >= 2")
    for name, arr in zip(names, arrays):
        if arr.shape[0] != length:
            raise ValueError(f"column {name!r} length {arr.shape[0]} != {length}")
        if np.ptp(arr) == 0:
            raise ConstantColumnError(name)
    matrix = np.corrcoef(np.vstack(arrays))
    matrix = np.clip(matrix, -1.0, 1.0)
    np.fill_diagonal(matrix, 1.0)
    return names, matrix


def significance_stars(p: float) -> int:
    """Star level 0-3 for a p-value: 3 below 0.01, 2 below 0.05, 1 below 0.1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value {p} outside [0, 1]")
    if p < 0.01:
        return 3
    if p < 0.05:
        return 2
    if p < 0.1:
        return 1
    return 0
