"""Least-squares estimation and time-series testing primitives.

OLS runs through a Householder QR that reflects the response alongside
the design and never forms Q (stable on near-collinear dummy designs);
the unit-root test is an augmented Dickey-Fuller regression with a
constant, lag order picked by AIC, and response-surface critical values
for the constant-only case.  Every fit and correlation sums its n-vectors
with elementwise numpy and ``np.add.reduce``, never with BLAS, so no such
sum depends on the BLAS thread count, and no fit calls LAPACK.  One rank
rule (_rejected_columns) judges every fit's columns.  Nested designs
share one reflection of the widest (reflect_design, ols_fit's
``reflection``), since the QR of a column prefix is the prefix of the QR;
the ADF lag search reflects its widest design once too, takes a
near-singular design's RSS by exact integer (fraction-free) elimination,
and there picks only among the lags whose own refit the rule accepts.

Student-t p-values come from the regularized incomplete beta function,
computed here without scipy: the continued fraction of DiDonato & Morris
(ACM TOMS 708, 1992) evaluated by the modified Lentz method, with the
symmetry I_x(a, b) = 1 − I_{1−x}(b, a) above (a + 1)/(a + b + 2) and a
prefix x^a (1−x)^b / B(a, b) taken in logs carried past double precision.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np

ADF_MIN_LENGTH = 20

# Regularized incomplete beta (see regularized_incomplete_beta).  Dekker's
# splitting constant 2**27 + 1; ln 2 split so that k * _LN2_HI is exact for
# |k| < 2**20; the atanh series 1/3, 1/5, ...; and the Stirling series of
# ln Γ(z) past its leading terms, in powers of 1/z².
_SPLIT = 134217729.0
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = math.sqrt(0.5)
_HALF_LOG_2PI = 0.91893853320467274178
_ATANH_SERIES = tuple(1.0 / (2 * k + 3) for k in range(12))
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
                    1 / 156, -3617 / 122400)
_STIRLING_MIN = 10.0
_LENTZ_TINY = 1e-300
_FRACTION_TOLERANCE = 2.0 ** -52
_FRACTION_MAX_TERMS = 10_000
_T_SQUARE_LIMIT = 1e150

# Response-surface coefficients for the constant, no-trend Dickey-Fuller
# distribution: cv(n) = b0 + b1/n + b2/n^2 + b3/n^3.
_ADF_CRITICAL_SURFACE = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.040),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}


class InsufficientDataError(ValueError):
    pass


class SingularDesignError(ValueError):
    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"design matrix is rank deficient in columns: {', '.join(columns)}")


class NonFiniteFitError(ValueError):
    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"non-finite fit in columns: {', '.join(columns)}")


class ConstantColumnError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} is constant")


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for
    |a|, |b| below about 1e290."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _divide(n: tuple[float, float], d: tuple[float, float]) -> tuple[float, float]:
    """(n_hi + n_lo) / (d_hi + d_lo) as a pair (hi, lo), good to about 2^-100."""
    q = n[0] / d[0]
    p, e = _two_product(q, d[0])
    return q, ((n[0] - p) - e + n[1] - q * d[1]) / d[0]


def _log(h: float, l: float = 0.0) -> tuple[float, float]:
    """ln(h + l) for h > 0 and |l| <= ulp(h), as a pair (hi, lo) whose sum
    is good to about 2^-60 relative."""
    m, k = math.frexp(h)
    if m < _SQRT_HALF:
        m, k = m + m, k - 1
    # ln m = 2 atanh(s) with s = (m − 1)/(m + 1), |s| < 0.172: s to 2^-100,
    # the series past its first term (under 1 % of it) in doubles.
    den, den_lo = _two_sum(m, 1.0)
    s = (m - 1.0) / den
    p, e = _two_product(s, den)
    s_lo = ((m - 1.0 - p) - e - s * den_lo) / den
    s2 = s * s
    tail = 0.0
    for c in reversed(_ATANH_SERIES):
        tail = tail * s2 + c
    hi, lo = _two_sum(k * _LN2_HI, 2.0 * s)
    return _two_sum(hi, lo + k * _LN2_LO + 2.0 * (s_lo + s * s2 * tail) + l / h)


def _stirling_correction(z: float) -> float:
    """ln Γ(z) − ((z − ½) ln z − z + ½ ln 2π) for z >= _STIRLING_MIN, by
    the Stirling series; its first omitted term is below 2e-18 there."""
    w = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING_SERIES):
        total = total * w + c
    return total / z


def _scaled_log(c: float, v: tuple[float, float]) -> list[float]:
    """c ln(v_hi + v_lo) as two doubles whose exact sum is good to about
    2^-60 of it."""
    log_hi, log_lo = _log(*v)
    p, e = _two_product(c, log_hi)
    return [p, e + c * log_lo]


def _log_beta_prefix(a: float, b: float, x: tuple[float, float],
                     y: tuple[float, float]) -> tuple[float, float]:
    """ln(x^a y^b / B(a, b)) as a pair (hi, lo), for x + y = 1 each given
    as a pair (hi, lo).

    No two large values subtract, in the manner of DiDonato & Morris
    (ACM TOMS 708):

    - a, b < _STIRLING_MIN: a ln x + b ln y − ln B(a, b) with ``math.lgamma``
      values below 40;
    - only hi = max(a, b) from _STIRLING_MIN: ln Γ(a + b)/Γ(hi) is the
      Stirling-series ratio (s − ½) log1p(lo/hi) + lo ln hi − lo + Δcorr
      (their ``algdiv``), not a difference of two ``math.lgamma`` values
      near 55,000 when hi ≈ 7,000;
    - both from _STIRLING_MIN: the powers of a, b and s = a + b in
      Stirling's ln Γ cancel against x^a y^b exactly, leaving
      a ln(x/x0) + b ln(y/y0) + ½ ln(ab / 2πs) − Δcorr about x0 = a/s,
      y0 = b/s (their ``brcomp``).

    The logs and products are carried to about 2^-60 and the terms summed
    exactly, so a prefix near e^-700 keeps its last digits.
    """
    lo, hi = min(a, b), max(a, b)
    s = _two_sum(a, b)
    if lo >= _STIRLING_MIN:
        terms = [0.5 * math.log(b * (a / s[0])), -_HALF_LOG_2PI, -_stirling_correction(a),
                 -_stirling_correction(b), _stirling_correction(s[0])]
        for c, v in ((a, x), (b, y)):
            p, e = _two_product(v[0], s[0])
            terms += _scaled_log(c, _divide((p, e + v[0] * s[1] + v[1] * s[0]), (c, 0.0)))
    else:
        terms = [*_scaled_log(a, x), *_scaled_log(b, y), -math.lgamma(lo)]
        if hi < _STIRLING_MIN:
            terms += (-math.lgamma(hi), math.lgamma(s[0]))
        else:
            terms += ((s[0] - 0.5) * math.log1p(lo / hi), *_scaled_log(lo, (hi, 0.0)), -lo,
                      _stirling_correction(s[0]) - _stirling_correction(hi))
    total = math.fsum(terms)
    return total, math.fsum([*terms, -total])


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """r in I_x(a, b) = x^a y^b / B(a, b) · r, for lam = a y − b x.

    The continued fraction of DiDonato & Morris's ``bfrac`` (ACM TOMS 708),
    whose terms use lam rather than a difference of x-terms near 1, by
    the modified Lentz method (Lentz 1976).  It converges in a few dozen
    terms for x <= (a + 1)/(a + b + 2), where 1 + lam > 0.
    """
    c = 1.0 + lam
    c0, c1, yp1 = b / a, 1.0 + 1.0 / a, 1.0 + y
    f = c / c1
    big_c, d = f, 0.0
    p, s = 1.0, a + 1.0
    for n in range(1, _FRACTION_MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p, s = 1.0 + t, s + 2.0
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
        big_c = beta + alpha / big_c
        if abs(big_c) < _LENTZ_TINY:
            big_c = _LENTZ_TINY
        delta = big_c * d
        f *= delta
        if abs(delta - 1.0) <= _FRACTION_TOLERANCE:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: tuple[float, float],
                     y: tuple[float, float]) -> float:
    """I_x(a, b) for x + y = 1, each given as a pair (hi, lo); see
    regularized_incomplete_beta."""
    if x[0] == 0.0:
        return 0.0
    if y[0] == 0.0:
        return 1.0
    swap = x[0] > (a + 1.0) / (a + b + 2.0)
    if swap:                                # I_x(a, b) = 1 − I_y(b, a)
        a, b, x, y = b, a, y, x
    lam = math.fsum((*_two_product(a, y[0]), a * y[1], *_two_product(-b, x[0]), -b * x[1]))
    hi, lo = _log_beta_prefix(a, b, x, y)
    # The fraction joins the exponent, so a subnormal result is rounded once.
    hi, lo_fraction = _two_sum(hi, math.log(_beta_fraction(a, b, x[0], y[0], lam)))
    value = math.exp(hi) * (1.0 + (lo + lo_fraction))
    return max(0.0, 1.0 - value) if swap else value


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) = B(x; a, b) / B(a, b) for finite a, b > 0 and 0 <= x <= 1.

    A continued fraction evaluated by the modified Lentz method (Lentz
    1976), applied to I_{1−x}(b, a) = 1 − I_x(a, b) when x lies above
    (a + 1)/(a + b + 2).  Its prefix x^a (1−x)^b / B(a, b) is taken in
    logs carried to about 2^-60 (see _log_beta_prefix), so the relative
    error stays within 1e-13 (about 1e-14 measured against mpmath for a
    and b from 1/2 to 5e5) also where the result is as small as 1e-300.
    Far below a or b = 1/2 the difference 1 − I_{1−x}(b, a) can lose
    digits.  The fraction needs more terms as a and b grow, a few
    thousand near the mean at a = b = 1e8; past _FRACTION_MAX_TERMS it
    raises ArithmeticError.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"incomplete beta needs finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"incomplete beta needs 0 <= x <= 1, got {x}")
    return _incomplete_beta(a, b, (x, 0.0), _two_sum(1.0, -x))


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student-t with df degrees of freedom.

    Uses the regularized incomplete beta identity
    2*SF(|t|) = I(df/2, 1/2; df/(df + t^2)), with both df/(df + t^2) and
    t^2/(df + t^2) formed to about 2^-100, so that the p-value is not
    limited by the rounding of its argument.  An infinite t has p = 0;
    a NaN t is a ValueError.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(t):
        raise ValueError("t-statistic is NaN")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    t = abs(t)
    if t > _T_SQUARE_LIMIT:
        # t * t may overflow and x = df/(df + t²) leaves the normal range.
        # Only df = 1, p = (2/π) atan(1/t), and df = 2, p = 1 − t/sqrt(2 + t²),
        # still give a p-value above 2^-1075; to the last bit here they are
        # (2/π)/t and 1/t².
        if df == 1:
            return (2.0 / math.pi) / t
        return 1.0 / t / t if df == 2 else 0.0
    t2 = _two_product(t, t)
    den_hi, den_lo = _two_sum(df, t2[0])
    den = (den_hi, den_lo + t2[1])
    return _incomplete_beta(0.5 * df, 0.5, _divide((df, 0.0), den), _divide(t2, den))


def _unit_scale(v: np.ndarray) -> float:
    """The power of 2, at most 2^1023, that brings the largest magnitude in
    the array v into [0.5, 1), or 1 for v = 0.  A product with it is exact
    wherever it stays a normal double, and no sum of squares of v times it
    overflows."""
    exponent = math.frexp(np.maximum.reduce(np.abs(v), axis=None, initial=0.0))[1]
    return math.ldexp(1.0, min(-exponent, 1023))


def _sum_of_squares(v: np.ndarray) -> float:
    """The ``np.add.reduce`` sum of the squares of v, taken on v scaled by
    _unit_scale and scaled back: the bits of the unscaled sum wherever no
    square overflows or underflows, and inf, with no numpy warning, where
    the sum itself leaves the double range."""
    scale = _unit_scale(v)
    scaled = v * scale
    return float(np.add.reduce(scaled * scaled)) / scale / scale


def _back_substitute(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R⁻¹ rhs for the upper triangular R, by back-substitution in place
    of rhs: each row one ``np.add.reduce`` dot product with the rows
    below it, so no BLAS."""
    for i in range(R.shape[0] - 1, -1, -1):
        rhs[i] -= np.add.reduce(R[i, i + 1:, None] * rhs[i + 1:], axis=0)
        rhs[i] /= R[i, i]
    return rhs


def _householder(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, Qᵀb)`` of the Householder QR of the Fortran-ordered n × k
    design A (n >= k), which this overwrites, as it does the response b.
    Q is never formed (Golub & Van Loan, *Matrix Computations*, §5.2).

    Step j reflects the remainder x = A[j:, j] onto α e₁, α = −sign(x₀)‖x‖,
    by H = I − v vᵀ / (−α v₀) with v = x − α e₁, and applies H to rows j..
    of each later column and of b: one ``np.add.reduce`` dot product and
    one n-vector update each, so no n × k temporary is made.  A column
    whose remainder is exactly 0 is not reflected and keeps its R row.
    Only elementwise operations and ``np.add.reduce`` touch n-vectors, so
    no BLAS, and no BLAS thread count, enters a bit of the result.

    Step j changes only later columns, and only rows j.. of b, so the
    leading k' × k' block of R and the first k' entries of Qᵀb are, bit
    for bit, those of the design's first k' columns alone: one reflection
    of the widest of nested designs serves each of them (_checked_block).

    Each column and b are first scaled by a power of 2 to a largest
    magnitude below 1, and R and Qᵀb scaled back, all exactly: the bits are
    those of the unscaled reflections wherever those neither overflow nor
    underflow, and a column of magnitude 1e200 squares without overflow.
    A column of R that leaves the double range when scaled back is not
    finite (_check_finite), and such a Qᵀb is infinite, with no numpy
    warning.
    """
    k = A.shape[1]
    scales = np.array([_unit_scale(A[:, j]) for j in range(k)])
    b_scale = _unit_scale(b)
    A *= scales
    b *= b_scale
    for j in range(k):
        x = A[j:, j]
        norm = math.sqrt(np.add.reduce(x * x))
        if norm == 0.0:
            continue
        alpha = -norm if x[0] >= 0.0 else norm
        v = x.copy()
        v[0] -= alpha
        half_vtv = -alpha * v[0]
        for column in (*A[j:, j + 1:].T, b[j:]):
            column -= v * (np.add.reduce(v * column) / half_vtv)
        x[0] = alpha
    with np.errstate(over="ignore"):
        R = np.triu(A[:k]) / scales
        b /= b_scale
    return R, b


def _rejected_columns(R: np.ndarray, n: int) -> np.ndarray:
    """The rank rule of every fit: whether |R_jj| <= max(n, k) · ε · maxᵢ |R_ij|
    for each column j of the n-row design that R factors, so units decide
    no rank.  R's column j does not depend on later columns, so the verdict
    holds for each column prefix of the design."""
    tol = max(n, R.shape[1]) * np.finfo(float).eps * np.maximum.reduce(np.abs(R), initial=0.0)
    return np.abs(np.diagonal(R)) <= tol


def _check_finite(R: np.ndarray, names: tuple[str, ...]) -> None:
    """A NonFiniteFitError naming the columns of R that left the double
    range (see _householder)."""
    overflowed = [names[j] for j in range(R.shape[1]) if not np.isfinite(R[:, j]).all()]
    if overflowed:
        raise NonFiniteFitError(overflowed)


def _checked_block(R: np.ndarray, n: int, names: tuple[str, ...]) -> np.ndarray:
    """The leading k × k block of R, k = len(names), which factors the
    first k columns of the n-row design that R factors (see _householder).
    Its columns that left the double range are a NonFiniteFitError, and
    then those that _rejected_columns rejects a SingularDesignError, so a
    fit names only its own columns."""
    k = len(names)
    R = R[:k, :k]
    _check_finite(R, names)
    bad = [names[j] for j in np.flatnonzero(_rejected_columns(R, n))]
    if bad:
        raise SingularDesignError(bad)
    return R


def _fit(X: np.ndarray, y: np.ndarray, names: tuple[str, ...],
         reflection: tuple[np.ndarray, np.ndarray] | None = None):
    """The classical fit of a checked float design with n > k, one name per
    column: ``(beta, se, t_stats, rss)``, a t-ratio ±inf or 0 where its
    standard error is 0, and ±inf where β/se passes the double range.  The
    columns that _rejected_columns rejects are a SingularDesignError.
    The columns whose R (see _householder), β or standard error is not
    finite, every column where the RSS is not, are a NonFiniteFitError.

    R and Qᵀy come from _householder, on a copy of X, or are the k × k
    block and first k entries of ``reflection``, the (R, Qᵀy) of a design
    whose first k columns are X with the response y (_checked_block); β
    and R⁻¹ from one back-substitution of R [β | R⁻¹] = [Qᵀy | I]; the
    residuals y − Xβ are built one column at a time, and the RSS and the
    standard errors sqrt(s² Σ R⁻¹ᵢⱼ²) are ``np.add.reduce`` sums, the
    residuals and each row of R⁻¹ scaled by a power of 2 before they are
    squared, so no square overflows.  No step calls BLAS, and none raises
    a numpy warning.
    """
    n, k = X.shape
    if reflection is None:
        reflection = _householder(np.array(X, order="F"), y.copy())
    R, qty = reflection
    R = _checked_block(R, n, names)

    with np.errstate(over="ignore", invalid="ignore"):
        solved = _back_substitute(R, np.column_stack([qty[:k], np.eye(k)]))
        beta, r_inv = solved[:, 0], solved[:, 1:]
        residuals = y.copy()
        for j in range(k):
            residuals -= X[:, j] * beta[j]
        rss = _sum_of_squares(residuals)
        s2 = rss / (n - k)
        row_scales = np.array([_unit_scale(row) for row in r_inv])
        scaled = r_inv * row_scales[:, None]
        se = np.sqrt(s2 * np.add.reduce(scaled * scaled, axis=1)) / row_scales
    finite = np.isfinite(beta) & np.isfinite(se) & math.isfinite(rss)
    if not finite.all():
        raise NonFiniteFitError([names[j] for j in np.flatnonzero(~finite)])

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / np.where(se > 0, se, 1.0),
                           np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    return beta, se, t_stats, rss


def _checked_arrays(design, response) -> tuple[np.ndarray, np.ndarray]:
    """The design as a 2-D float array and the response as a float vector
    of as many rows, both finite, or a ValueError."""
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"design has {X.shape[0]} rows but response has {y.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("design has non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("response has non-finite values")
    return X, y


def reflect_design(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(R, Qᵀy)`` of the Householder QR of an n × K design (n >= K)
    with its response, for ``ols_fit``'s ``reflection``: R is K × K and
    Qᵀy has n entries.  A design that is already a Fortran-ordered float64
    array, as ``study.design_for``'s is, is overwritten in place, so no
    second n × K array is made; any other is reflected as a copy.  The
    response is copied.  A non-finite value in either is a ValueError.

    This raises no fit error: a column that the rank rule rejects, or
    whose R leaves the double range, is an error only of the fits that
    include it.
    """
    X, y = _checked_arrays(design, response)
    n, k = X.shape
    if n < k:
        raise InsufficientDataError(f"need n >= k, got n={n}, k={k}")
    return _householder(np.asarray(X, order="F"), y.copy())


def ols_fit(design: np.ndarray, response: np.ndarray,
            names: tuple[str, ...] | None = None,
            reflection: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """Classical OLS with homoskedastic standard errors.

    `design` must already carry its intercept column.  p-values are
    two-sided Student-t with n - k degrees of freedom.  A non-finite value
    in the design or the response is a ValueError.

    `reflection`, if given, is what ``reflect_design`` returned for a
    design whose first k columns are `design`, in order, with this
    `response`, as each of nested models' designs is a column prefix of
    the widest one's.  The fit then takes the leading k × k block of its
    R and the first k entries of its Qᵀy instead of reflecting `design`,
    and returns the same bits: step j of the reflection changes only later
    columns, and rows j.. of the response.  The rank rule and the overflow
    check judge that block alone, so the errors name only this fit's
    columns.  A reflection of fewer than k columns, or of another number
    of rows, is a ValueError; that its columns lead with `design` is the
    caller's contract and is not checked.

    Returns the fit as the plain-JSON ``results`` entry of ``suite.json``,
    in this key order: ``names``, then one list per column each of
    ``coefficients``, ``standard_errors``, ``t_stats``, ``p_values`` and
    ``stars`` (significance_stars of the p-value), then ``r2``,
    ``adj_r2``, ``n_obs`` and ``n_params``.
    """
    X, y = _checked_arrays(design, response)
    n, k = X.shape
    if names is None:
        names = tuple(f"x{i}" for i in range(k))
    names = tuple(names)
    if len(names) != k:
        raise ValueError("names length must match design columns")
    if n <= k:
        raise InsufficientDataError(f"need n > k, got n={n}, k={k}")
    if reflection is not None and (reflection[0].shape[0] < k
                                   or reflection[1].shape != (n,)):
        raise ValueError(f"reflection of {reflection[0].shape[0]} columns and "
                         f"{reflection[1].shape[0]} rows cannot fit {k} columns of {n} rows")

    beta, se, t_stats, rss = _fit(X, y, names, reflection)
    t_stats = t_stats.tolist()
    p_values = [student_t_two_sided_p(t, n - k) for t in t_stats]

    tss = _sum_of_squares(y - y.mean())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    r2 = min(max(r2, 0.0), 1.0)
    return {"names": list(names), "coefficients": beta.tolist(),
            "standard_errors": se.tolist(), "t_stats": t_stats, "p_values": p_values,
            "stars": [significance_stars(p) for p in p_values], "r2": r2,
            "adj_r2": 1.0 - (1.0 - r2) * (n - 1) / (n - k), "n_obs": n, "n_params": k}


def adf_critical_values(n_obs: int) -> dict[str, float]:
    return {level: b0 + b1 / n_obs + b2 / n_obs**2 + b3 / n_obs**3
            for level, (b0, b1, b2, b3) in _ADF_CRITICAL_SURFACE.items()}


def default_adf_max_lag(n: int) -> int:
    return int(math.ceil(12.0 * (n / 100.0) ** 0.25))


def _adf_design(y: np.ndarray, lag: int):
    """Regression pieces for the DF equation with `lag` lagged differences,
    columns ``[level, Δy_{t-1..lag}, const]`` in a Fortran-ordered design,
    on the longest sample."""
    dy = np.diff(y)
    m = dy.shape[0]
    cols = [y[lag:m]]  # level term y_{t-1}
    for i in range(1, lag + 1):
        cols.append(dy[lag - i : m - i])
    cols.append(np.ones(m - lag))
    return np.vstack(cols).T, dy[lag:m]


def _adf_names(lag: int) -> tuple[str, ...]:
    """The names of _adf_design's columns with `lag` lagged differences."""
    return ("level", *(f"lag_{i}" for i in range(1, lag + 1)), "const")


def _refit_refused(y: np.ndarray, lag: int) -> bool:
    """Whether _fit refuses the R of adf_test's refit at `lag`
    (_checked_block): a column the rank rule rejects, or one that leaves
    the double range."""
    X, dy = _adf_design(y, lag)
    try:
        _checked_block(_householder(X, dy)[0], X.shape[0], _adf_names(lag))
    except (SingularDesignError, NonFiniteFitError):
        return True
    return False


def _condition_bound(R: np.ndarray) -> float:
    """1/(‖R‖_F ‖R⁻¹‖_F), a lower bound on σ_min/σ_max of the upper
    triangular R, with R⁻¹ from _back_substitute on R scaled by a power
    of 2 (_unit_scale), which leaves the bound as it is; 0 where R has a 0
    on its diagonal or R⁻¹ is not finite.  Raises no numpy warning."""
    S = R * _unit_scale(R)
    if not np.diagonal(S).all():
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _back_substitute(S, np.eye(S.shape[0]))
    if not np.isfinite(inverse).all():
        return 0.0
    scale = _unit_scale(inverse)
    scaled = inverse * scale
    return scale / math.sqrt(np.add.reduce(S * S, axis=None)) / math.sqrt(
        np.add.reduce(scaled * scaled, axis=None))


def _integers(v: np.ndarray) -> tuple[list[int], int]:
    """The doubles of v as Python ints times 2^-shift, exactly, with the
    least shift that makes every one an integer."""
    ratios = [x.as_integer_ratio() for x in v.tolist()]
    shift = max(d.bit_length() for _, d in ratios) - 1
    return [n << (shift + 1 - d.bit_length()) for n, d in ratios], shift


def _exact_prefix_fits(columns: list[np.ndarray], y: np.ndarray,
                       rejected: np.ndarray) -> list[float]:
    """The RSS of the least-squares fit of y on each column prefix, of 1 up
    to all the columns, without the ``rejected`` ones, by exact integer
    (fraction-free) elimination: the columns and y, each scaled by a power
    of 2 to integers (which moves no span), give an integer Gram matrix G,
    whose upper triangle Bareiss's elimination (*Math. Comp.* 22, 1968)
    reduces at each pivot p that is neither rejected nor 0 as
    (p·a − g·b) // prev, prev the last such pivot.  After the pivots S,
    each entry is the minor det G[S+i, S+c] and prev is det G[S, S]
    (Sylvester's identity), so every division is exact, and the RSS is the
    y entry over prev, rounded once, and inf past the double range."""
    vectors = [_integers(c)[0] for c in columns]
    ys, shift = _integers(y)
    vectors.append(ys)
    k = len(columns)
    # rows[i][c - i] holds entry (i, c) for c >= i; the matrix stays symmetric.
    rows = [[reduce(add, map(mul, a, b), 0) for b in vectors[i:]]
            for i, a in enumerate(vectors)]
    prev, fits = 1, []
    for j in range(k):
        row = rows[j]
        pivot = row[0]
        if pivot and not rejected[j]:
            for i in range(j + 1, k + 1):
                g = row[i - j]
                rows[i] = [(pivot * a - g * b) // prev for a, b in zip(rows[i], row[i - j:])]
            prev = pivot
        try:
            rss = rows[k][0] / (prev * 4 ** shift)     # an int quotient, rounded once
        except OverflowError:
            rss = math.inf
        fits.append(rss)
    return fits


def _aic_lag(y: np.ndarray, max_lag: int) -> int:
    """The lag in 0..max_lag whose DF regression has the least AIC, the
    smallest on a tie, all fitted on the sample the widest one allows.

    The widest design is reflected once by _householder with its columns
    ordered ``[level, const, Δy_{t-1..max_lag}]``, so the model of each
    lag is a column prefix, and the RSS of the prefix of k columns is the
    _sum_of_squares of the reflected target from row k on, where
    _condition_bound(R) exceeds 4 · width · cutoff, cutoff = rows · ε.
    Each column of the computed R⁻¹ solves a perturbation of R within
    γ_width |R| (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 8.5), which keeps the true σ_min/σ_max above 1 − 1/(8 · rows)
    times the bound, so above it _fit's rule accepts every column, since
    |R_jj| ≥ σ_min > cutoff · σ_max ≥ cutoff · maxᵢ |R_ij|.

    A design that fails the bound is near enough to rank deficient that
    no double-precision fit need get a prefix's RSS right: a lag-4 prefix
    of condition 2.4e13 has the exact RSS 0.981, its reflections give 1.37
    and an SVD fit 4.9.  There each prefix's RSS is _exact_prefix_fits'
    exact integer (fraction-free) elimination without the columns that
    _fit's rule (_rejected_columns) rejects on R.  The search orders and
    samples the columns unlike adf_test's refit, so on this path a lag is
    eligible only if _fit would accept the R of its own refit
    (_refit_refused, asked only of a lag whose AIC beats the best so far);
    the least AIC is taken over the eligible lags, and the lag is 0 where
    none is.
    """
    dy = np.diff(y)
    m = dy.shape[0]
    target = dy[max_lag:]
    columns = [y[max_lag:m], np.ones(m - max_lag),
               *(dy[max_lag - i : m - i] for i in range(1, max_lag + 1))]
    X = np.vstack(columns).T
    rows, width = X.shape
    R, qty = _householder(X, target.copy())
    _check_finite(R, ("level", "const", *(f"lag_{i}" for i in range(1, max_lag + 1))))
    exact = _condition_bound(R) <= 4 * width * rows * np.finfo(float).eps
    if exact:
        rss = _exact_prefix_fits(columns, target, _rejected_columns(R, rows))[1:]
    else:
        rss = [_sum_of_squares(qty[k:]) for k in range(2, width + 1)]     # lags 0..

    # Floor the RSS at numerical-noise level so a (near-)perfect fit
    # resolves deterministically to the smallest lag via the 2k penalty.
    floor = 1e-12 * max(_sum_of_squares(target), 1e-12)
    best_lag, best_aic = 0, math.inf
    for lag, lag_rss in enumerate(rss):
        aic = rows * math.log(max(lag_rss, floor) / rows) + 2 * (lag + 2)
        if aic < best_aic and not (exact and _refit_refused(y, lag)):
            best_aic, best_lag = aic, lag
    return best_lag


def adf_test(series, max_lag: int | None = None) -> dict:
    """Augmented Dickey-Fuller unit-root test (constant, no trend).

    Lag order is chosen by AIC over 0..max_lag on a common sample, then
    the statistic is the t-ratio on the level term refit on the longest
    sample that lag allows.  Rejection (statistic below the critical
    value) indicates stationarity.

    Returns the plain-JSON ``stationarity`` entry of ``suite.json``:
    ``statistic``, ``lags``, ``n_obs`` (rows of that refit),
    ``critical_values`` at ``1%``, ``5%`` and ``10%``, and
    ``stationary_at_5pct``, whether the statistic lies below the 5 % one.
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
    rows = X.shape[0]
    # The t-ratio alone: the screen reads no p-value of this fit.
    _, _, t_stats, _ = _fit(X, dy, _adf_names(best_lag))
    statistic = float(t_stats[0])
    critical = adf_critical_values(rows)
    return {"statistic": statistic, "lags": best_lag, "n_obs": rows,
            "critical_values": critical, "stationary_at_5pct": statistic < critical["5%"]}


def pearson_matrix(columns: list[tuple[str, np.ndarray]]) -> tuple[tuple[str, ...], np.ndarray]:
    """Correlation matrix over named, equal-length, finite, non-constant
    columns: each pair's ``np.add.reduce`` sum of products of the centred
    columns over the root of each one's sum of squares, clipped to
    [-1, 1], with a unit diagonal.  Each column is scaled by a power of 2
    to a largest magnitude below 1 before it is centred, so no mean or
    square overflows, and no bit of a correlation changes where none would
    have.  A non-finite column is a ValueError."""
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
        if not np.isfinite(arr).all():
            raise ValueError(f"column {name!r} has non-finite values")
        if np.ptp(arr) == 0:
            raise ConstantColumnError(name)
    centred = [c - c.mean() for c in (arr * _unit_scale(arr) for arr in arrays)]
    roots = [math.sqrt(np.add.reduce(c * c)) for c in centred]
    matrix = np.eye(len(centred))
    for i, (a, root_a) in enumerate(zip(centred, roots)):
        for j in range(i):
            r = np.add.reduce(a * centred[j]) / root_a / roots[j]
            matrix[i, j] = matrix[j, i] = min(max(r, -1.0), 1.0)
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
