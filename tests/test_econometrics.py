import json
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import builtin_only
from punk_hedonics import econometrics
from punk_hedonics.econometrics import (ConstantColumnError, InsufficientDataError,
                                        NonFiniteFitError, SingularDesignError,
                                        _condition_bound, _rejected_columns,
                                        adf_critical_values, adf_test, ols_fit,
                                        pearson_matrix, regularized_incomplete_beta,
                                        significance_stars, student_t_two_sided_p)

MIN_NORMAL = sys.float_info.min
LEAST_SUBNORMAL = math.ulp(0.0)
RELATIVE_BOUND = 1e-13          # where the exact value is a normal double


def normal_equations_oracle(X, y):
    """Textbook normal-equations solver kept independent of the QR path."""
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    n, k = X.shape
    s2 = resid @ resid / (n - k)
    se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
    tss = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - (resid @ resid) / tss
    return beta, se, r2


class TestOls:
    def test_perfect_fit(self):
        x = np.arange(5.0)
        X = np.column_stack([np.ones(5), x])
        fit = ols_fit(X, 3.0 + 2.0 * x, names=("intercept", "x"))
        assert fit["coefficients"] == pytest.approx([3.0, 2.0], abs=1e-10)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
        assert fit["standard_errors"] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_intercept_only_null_model(self):
        y = np.array([1.0, 2.0, 6.0, 3.0])
        fit = ols_fit(np.ones((4, 1)), y)
        assert fit["coefficients"][0] == pytest.approx(y.mean())
        assert fit["r2"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        n, k = 200, 6
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta_true = rng.normal(size=k)
        y = X @ beta_true + rng.normal(size=n)
        fit = ols_fit(X, y)
        beta, se, r2 = normal_equations_oracle(X, y)
        assert fit["coefficients"] == pytest.approx(beta, rel=1e-8)
        assert fit["standard_errors"] == pytest.approx(se, rel=1e-8)
        assert fit["r2"] == pytest.approx(r2, rel=1e-8)
        # And the truth is recovered within 3 SE.
        assert np.all(np.abs(np.array(fit["coefficients"]) - beta_true)
                      <= 3 * np.array(fit["standard_errors"]))

    def test_rank_deficiency_names_columns(self):
        n = 30
        x = np.random.default_rng(0).normal(size=n)
        X = np.column_stack([np.ones(n), x, 2 * x])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(X, x, names=("intercept", "a", "a_doubled"))
        assert "a_doubled" in exc.value.columns

    @pytest.mark.parametrize("power", [40, -1000])
    def test_a_columns_units_decide_no_rank(self, power):
        """One column times 2**power: at 2**40, n eps 2**40 > 1, so its
        entries of R dwarf the others' rounding; at 2**-1000 its row of
        R⁻¹ squares past the largest double.  Either way the same t, p and
        stars, and its coefficient and standard error times 2**-power
        exactly."""
        n = 5000
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ [1.0, 0.05, -0.02] + rng.normal(size=n)
        scaled = X.copy()
        scaled[:, 2] *= 2.0 ** power
        fit, scaled_fit = ols_fit(X, y), ols_fit(scaled, y)
        for key in ("t_stats", "p_values", "stars"):
            assert scaled_fit[key] == fit[key]
        for key in ("coefficients", "standard_errors"):
            assert scaled_fit[key] == [*fit[key][:2], math.ldexp(fit[key][2], -power)]

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 40, 1e-200])
    def test_duplicated_column_is_rank_deficient_at_any_scale(self, scale):
        n = 60
        x = np.random.default_rng(4).normal(size=n) * scale
        X = np.column_stack([np.ones(n), x, x])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(X, np.arange(n, dtype=float), names=("intercept", "a", "a_again"))
        assert exc.value.columns == ["a_again"]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.ones((3, 3)), np.zeros(3))

    def test_rss_past_the_double_range_is_a_non_finite_fit(self):
        """Residuals of 1e200 square past the largest double: every
        standard error is infinite, a stated error and no numpy warning."""
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(NonFiniteFitError) as exc:
            ols_fit(X, np.array([1e200, -1e200, 1e200, -1e200]), names=("const", "x"))
        assert str(exc.value) == "non-finite fit in columns: const, x"
        assert exc.value.columns == ["const", "x"]

    def test_column_whose_r_overflows_is_a_non_finite_fit(self):
        """Four values of 1e308: the column's norm, and so its column of R,
        leaves the double range.  A non-finite fit naming it, not a rank
        deficiency, and no numpy warning."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        x[[3, 9, 15, 21]] = 1e308
        X = np.column_stack([np.ones(40), rng.normal(size=40), x])
        with pytest.raises(NonFiniteFitError) as exc:
            ols_fit(X, rng.normal(size=40), names=("const", "a", "big"))
        assert exc.value.columns == ["big"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_design_or_response_is_an_error(self, bad):
        """Not NaN coefficients whose NaN t-ratios read as three stars."""
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.normal(size=40)
        X[17, 1] = bad
        with pytest.raises(ValueError, match="design has non-finite values"):
            ols_fit(X, y)
        X[17, 1], y[3] = 0.5, bad
        with pytest.raises(ValueError, match="response has non-finite values"):
            ols_fit(X, y)

    def test_t_stats_consistent(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        fit = ols_fit(X, rng.normal(size=50))
        beta, se, t_stats = (np.array(fit[key])
                             for key in ("coefficients", "standard_errors", "t_stats"))
        mask = se > 0
        assert t_stats[mask] == pytest.approx(beta[mask] / se[mask], abs=1e-9)

    def test_p_values_match_scipy_t(self):
        rng = np.random.default_rng(4)
        n, k = 80, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        fit = ols_fit(X, rng.normal(size=n))
        expected = 2 * stats.t.sf(np.abs(fit["t_stats"]), n - k)
        assert fit["p_values"] == pytest.approx(expected, abs=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 4))])
        y = rng.normal(size=120)
        fit = ols_fit(X, y)
        resid = y - X @ fit["coefficients"]
        scale = np.abs(X).sum(axis=0).max() * np.abs(resid).max()
        assert np.all(np.abs(X.T @ resid) <= 1e-8 * max(scale, 1.0))

    def test_adding_column_never_decreases_r2(self):
        rng = np.random.default_rng(6)
        n = 100
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = rng.normal(size=n)
        small = ols_fit(X[:, :3], y)
        big = ols_fit(X, y)
        assert big["r2"] >= small["r2"] - 1e-12

    def test_affine_reparameterization_invariance(self):
        rng = np.random.default_rng(8)
        n = 150
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = X @ np.array([1.0, 0.5, -2.0, 0.3]) + rng.normal(size=n)
        fit = ols_fit(X, y)
        shifted = X.copy()
        shifted[:, 2] += 10.0  # constant shift to one regressor
        fit2 = ols_fit(shifted, y)
        assert shifted @ fit2["coefficients"] == pytest.approx(X @ fit["coefficients"],
                                                              abs=1e-9)
        # Slope coefficients unchanged; only the intercept absorbs the shift.
        assert fit2["coefficients"][1:] == pytest.approx(fit["coefficients"][1:], abs=1e-9)

    def test_adj_r2_below_r2(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        fit = ols_fit(X, rng.normal(size=60))
        assert fit["adj_r2"] <= fit["r2"]
        assert 0.0 <= fit["r2"] <= 1.0


def lstsq_reference(X, y):
    """β, standard errors and RSS of the classical fit, from np.linalg.lstsq
    alone: (X'X)⁻¹ is X⁺X⁺' with X⁺ the least-squares solve of X Z = I."""
    n, k = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    residuals = y - X @ beta
    rss = residuals @ residuals
    pinv = np.linalg.lstsq(X, np.eye(n), rcond=None)[0]
    return beta, np.sqrt(rss / (n - k) * (pinv ** 2).sum(axis=1)), rss


@st.composite
def well_conditioned_fits(draw):
    """An intercept and normal columns of scale 0.2-5, and a response with
    coefficients of magnitude 0.5-2 and a little noise."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(2 * k + 10, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n),
                         rng.normal(size=(n, k - 1)) * rng.uniform(0.2, 5.0, size=k - 1)])
    beta = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    return X, X @ beta + rng.normal(scale=draw(st.floats(0.01, 0.05)), size=n)


@st.composite
def ill_conditioned_fits(draw):
    """As well_conditioned_fits, but one column is another plus 1e-9 to
    1e-4 of noise, and the response lies within 1e-12 to 1e-6 of the
    design's range, so its fitted values are well determined."""
    k = draw(st.integers(2, 12))
    n = draw(st.integers(2 * k + 10, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n),
                         rng.normal(size=(n, k - 1)) * rng.uniform(0.2, 5.0, size=k - 1)])
    near, base = draw(st.permutations(range(k)))[:2]
    X[:, near] = X[:, base] + 10 ** draw(st.floats(-9, -4)) * rng.normal(size=n)
    beta = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    return X, X @ beta + 10 ** draw(st.floats(-12, -6)) * rng.normal(size=n)


@st.composite
def reduced_before(draw):
    """A design whose columns before j are already zero below their
    nonzero diagonal and whose column j is zero from row j down, and j."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k + 1, 40))
    j = draw(st.integers(0, k - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, k))
    for c in range(j):
        X[c + 1:, c] = 0.0
        X[c, c] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    X[j:, j] = 0.0
    return X, rng.normal(size=n), j


def kernel(X, y):
    return econometrics._householder(np.array(X, order="F"), y.copy(),
                                     tuple(f"x{i}" for i in range(X.shape[1])))


class TestHouseholderKernel:
    """The Householder kernel behind every fit, against numpy's LAPACK."""

    @given(well_conditioned_fits())
    @settings(max_examples=100, deadline=None)
    def test_fit_matches_lstsq(self, case):
        X, y = case
        beta, se, _, rss = econometrics._fit(X, y, tuple(f"x{i}" for i in range(X.shape[1])))
        ref_beta, ref_se, ref_rss = lstsq_reference(X, y)
        np.testing.assert_allclose(beta, ref_beta, rtol=1e-10, atol=0)
        np.testing.assert_allclose(se, ref_se, rtol=1e-10, atol=0)
        assert rss == pytest.approx(ref_rss, rel=1e-10)
        fit = ols_fit(X, y)
        assert np.array_equal(fit["coefficients"], beta)
        assert np.array_equal(fit["standard_errors"], se)

    @given(ill_conditioned_fits())
    @settings(max_examples=100, deadline=None)
    def test_ill_conditioned_fitted_values_match_lstsq(self, case):
        X, y = case
        fit = ols_fit(X, y)
        fitted = sum(X[:, j] * b for j, b in enumerate(fit["coefficients"]))
        expected = X @ np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.linalg.norm(fitted - expected) <= 1e-10 * np.linalg.norm(expected)

    @given(well_conditioned_fits())
    @settings(max_examples=100, deadline=None)
    def test_diagonal_of_r_matches_numpy_qr(self, case):
        X, y = case
        R, qty = kernel(X, y)
        np.testing.assert_allclose(np.abs(np.diag(R)), np.abs(np.diag(np.linalg.qr(X)[1])),
                                   rtol=1e-12, atol=0)
        assert np.array_equal(R, np.triu(R))
        # Q is orthogonal: Qᵀy keeps the length of y.
        assert np.linalg.norm(qty) == pytest.approx(np.linalg.norm(y), rel=1e-13)

    @given(well_conditioned_fits(), st.integers(-600, 600))
    @settings(max_examples=50, deadline=None)
    def test_power_of_two_column_scale_passes_through_exactly(self, case, power):
        """Scaling a column by 2^power scales its column of R by exactly
        that and changes no other bit, also where its squares overflow."""
        X, y = case
        R, qty = kernel(X, y)
        scaled = X.copy()
        scaled[:, -1] = np.ldexp(X[:, -1], power)
        scaled_r, scaled_qty = kernel(scaled, y)
        assert np.array_equal(scaled_qty, qty)
        assert np.array_equal(scaled_r[:, :-1], R[:, :-1])
        assert np.array_equal(scaled_r[:, -1], np.ldexp(R[:, -1], power))

    @given(well_conditioned_fits(), st.integers(-600, 600))
    @settings(max_examples=50, deadline=None)
    def test_power_of_two_response_scale_passes_through_exactly(self, case, power):
        """Scaling the response by 2^power scales Qᵀb by exactly that and
        leaves R as it is, also where its squares overflow."""
        X, y = case
        R, qty = kernel(X, y)
        scaled_r, scaled_qty = kernel(X, np.ldexp(y, power))
        assert np.array_equal(scaled_r, R)
        assert np.array_equal(scaled_qty, np.ldexp(qty, power))

    @given(reduced_before())
    @settings(max_examples=100, deadline=None)
    def test_column_with_zero_remainder_keeps_its_row(self, case):
        """Steps before j reflect only their own row, step j reflects
        nothing and later steps only later rows, so row j of R and of Qᵀy
        is row j of the design and of y, bit for bit."""
        X, y, j = case
        R, qty = kernel(X, y)
        assert np.isfinite(R).all() and np.isfinite(qty).all()
        assert np.array_equal(R[j, j:], X[j, j:])
        assert qty[j] == y[j]
        names = tuple(f"x{i}" for i in range(X.shape[1]))
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(X, y, names=names)
        assert names[j] in exc.value.columns


class TestAdf:
    def test_iid_noise_rejects_at_5pct(self):
        rng = np.random.default_rng(100)
        result = adf_test(rng.normal(size=500))
        # Large-sample 5% critical value is about -2.86; white noise sits far below.
        assert result["statistic"] < -2.86
        assert result["stationary_at_5pct"]

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(100)
        walk = np.cumsum(rng.normal(size=500))
        result = adf_test(walk)
        assert not result["stationary_at_5pct"]

    def test_linear_ramp_deterministic(self):
        ramp = np.arange(200.0)
        a = adf_test(ramp)
        b = adf_test(ramp)
        assert (a["statistic"], a["lags"], a["n_obs"]) == (b["statistic"], b["lags"], b["n_obs"])

    def test_constant_series_error(self):
        with pytest.raises(ConstantColumnError):
            adf_test(np.ones(50))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_error(self, bad):
        y = np.cumsum(np.random.default_rng(11).normal(size=100))
        y[50] = bad
        with pytest.raises(ValueError, match="non-finite"):
            adf_test(y)

    def test_too_short_error(self):
        with pytest.raises(InsufficientDataError):
            adf_test(np.arange(10.0))

    def test_series_whose_refit_overflows_is_a_non_finite_fit(self):
        """One value of 1e200: the lag search squares its reflected target
        without overflow, and the refit's infinite RSS is a stated error."""
        y = np.cumsum(np.random.default_rng(11).normal(size=100))
        y[50] = 1e200
        with pytest.raises(NonFiniteFitError, match="^non-finite fit in columns: level"):
            adf_test(y)

    @pytest.mark.parametrize("at", [[50], [50, 51], [50, 80]])
    def test_series_at_the_double_range_is_a_non_finite_fit(self, at):
        """Values of 1.7e308: the reflected target and the level column
        leave the double range, a stated error and no numpy warning."""
        y = np.random.default_rng(12).uniform(20, 200, size=200)
        y[at] = 1.7e308
        with pytest.raises(NonFiniteFitError, match="^non-finite fit in columns: level"):
            adf_test(y)

    def test_computes_no_p_value(self, monkeypatch):
        """The screen reads the level term's t-ratio alone; it is the t-ratio
        ols_fit gives on the same design, bit for bit."""
        calls = []

        def counted(t, df):
            calls.append(t)
            return student_t_two_sided_p(t, df)
        monkeypatch.setattr(econometrics, "student_t_two_sided_p", counted)
        rng = np.random.default_rng(16)
        series = (rng.normal(size=300), np.cumsum(rng.normal(size=300)))
        results = [adf_test(y) for y in series]
        assert not calls
        for y, result in zip(series, results):
            assert result["statistic"] == _fixed_lag_statistic(y, result["lags"])

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        y = np.cumsum(rng.normal(size=300))
        base = adf_test(y)
        scaled = adf_test(5.0 * y - 37.0)
        assert scaled["statistic"] == pytest.approx(base["statistic"], abs=1e-8)
        assert scaled["lags"] == base["lags"]

    def test_reject_map_consistent_with_critical_values(self):
        """The verdict is the statistic against the 5 % critical value, and
        all three levels are given, so a caller can compare with the others."""
        rng = np.random.default_rng(13)
        for y in (rng.normal(size=200), np.cumsum(rng.normal(size=200))):
            result = adf_test(y)
            critical = result["critical_values"]
            assert list(critical) == ["1%", "5%", "10%"]
            assert critical == adf_critical_values(result["n_obs"])
            assert result["stationary_at_5pct"] == (result["statistic"] < critical["5%"])

    def test_statistic_matches_statsmodels_fixed_lag(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(14)
        for series in (rng.normal(size=300), np.cumsum(rng.normal(size=300))):
            for lag in (0, 2, 5):
                stat_sm = sm.adfuller(series, maxlag=lag, regression="c",
                                      autolag=None)[0]
                # Force the same lag through a degenerate search range.
                X_stat = _fixed_lag_statistic(series, lag)
                assert X_stat == pytest.approx(stat_sm, abs=1e-8)

    def test_critical_values_match_statsmodels(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(15)
        series = rng.normal(size=400)
        out = sm.adfuller(series, regression="c")
        ours = adf_critical_values(out[3])
        for level in ("1%", "5%", "10%"):
            assert ours[level] == pytest.approx(out[4][level], abs=1e-3)


def triangular_with_singular_values(rng, singular, rows):
    """The k × k R of a QR of a rows × k matrix with the given singular values."""
    k = len(singular)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return np.linalg.qr((u * singular) @ v.T, mode="r")


class TestConditionBound:
    """The lower bound on σ_min/σ_max above which the ADF lag search takes
    each lag's RSS from the reflections and below which it takes it in
    exact arithmetic; above it the rank rule of every fit accepts each
    column, and an SVD would find no rank deficiency either."""

    @settings(max_examples=400, deadline=None)
    @given(width=st.integers(2, 30), extra_rows=st.integers(2, 2000),
           seed=st.integers(0, 2**32 - 1), decades=st.floats(-2.0, 4.0),
           scale=st.sampled_from([1.0, 2.0 ** -990, 1e-300, 1e150]))
    def test_never_reports_full_rank_where_the_svd_truncates(self, width, extra_rows, seed,
                                                             decades, scale):
        """R swept across the SVD's cutoff: from 1/100 of cutoff to
        10⁴ times it, past where the bound clears 4 · width · cutoff."""
        rows = width + extra_rows
        cutoff = rows * np.finfo(float).eps
        rng = np.random.default_rng(seed)
        singular = np.geomspace(1.0, cutoff * 10.0 ** decades, width)
        R = triangular_with_singular_values(rng, rng.permutation(singular), rows) * scale
        computed = np.linalg.svd(R, compute_uv=False)
        if _condition_bound(R) > 4 * width * cutoff:
            assert computed[-1] > cutoff * computed[0]
            assert not _rejected_columns(R, rows).any()

    def test_is_the_frobenius_bound(self):
        R = np.array([[2.0, 1.0], [0.0, 0.5]])
        inverse = np.linalg.inv(R)
        assert _condition_bound(R) == pytest.approx(
            1 / np.linalg.norm(R) / np.linalg.norm(inverse), rel=1e-15)

    @pytest.mark.parametrize("power", [-1000, -990, 990])
    def test_a_power_of_two_scale_changes_no_bit(self, power):
        R = np.triu(np.random.default_rng(5).normal(size=(6, 6))) + 3 * np.eye(6)
        assert _condition_bound(R * 2.0 ** power) == _condition_bound(R)

    @pytest.mark.parametrize("R", [
        np.array([[1.0, 2.0], [0.0, 0.0]]),                         # a 0 on the diagonal
        np.array([[2.0 ** -1000, 1.0, 1.0], [0.0, 2.0 ** -1000, 1.0],
                  [0.0, 0.0, 2.0 ** -1000]])])                      # R⁻¹ overflows
    def test_is_zero_where_no_inverse_is_finite(self, R):
        assert _condition_bound(R) == 0.0


class TestPlainJson:
    """ols_fit and adf_test return the entries suite.json holds: every
    leaf a builtin, not a numpy scalar, and a JSON round trip changes
    nothing."""

    def assert_plain_json(self, value):
        assert builtin_only(value)
        assert json.loads(json.dumps(value)) == value

    def test_ols_fit(self):
        rng = np.random.default_rng(18)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        fit = ols_fit(X, rng.normal(size=60), names=("intercept", "a", "b", "c"))
        assert list(fit) == ["names", "coefficients", "standard_errors", "t_stats",
                             "p_values", "stars", "r2", "adj_r2", "n_obs", "n_params"]
        assert (fit["n_obs"], fit["n_params"]) == (60, 4)
        self.assert_plain_json(fit)

    def test_ols_fit_with_infinite_t_ratios(self):
        """A perfect fit: zero standard errors, t-ratios ±inf, p-values 0."""
        X = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        fit = ols_fit(X, np.array([2.0, 2.0, -1.0, -1.0]))
        assert fit["coefficients"] == [2.0, -3.0]
        assert fit["standard_errors"] == [0.0, 0.0]
        assert fit["t_stats"] == [math.inf, -math.inf]
        assert fit["p_values"] == [0.0, 0.0] and fit["stars"] == [3, 3]
        self.assert_plain_json(fit)

    def test_adf_test(self):
        rng = np.random.default_rng(19)
        verdicts = []
        for y in (rng.normal(size=200), np.cumsum(rng.normal(size=200))):
            result = adf_test(y)
            assert list(result) == ["statistic", "lags", "n_obs", "critical_values",
                                    "stationary_at_5pct"]
            self.assert_plain_json(result)
            verdicts.append(result["stationary_at_5pct"])
        assert verdicts == [True, False]


def _fixed_lag_statistic(series, lag):
    from punk_hedonics.econometrics import _adf_design, ols_fit as fit_fn
    X, dy = _adf_design(np.asarray(series, float), lag)
    return fit_fn(X, dy)["t_stats"][0]


class TestPearson:
    def test_self_correlation(self):
        x = np.arange(10.0)
        names, m = pearson_matrix([("a", x), ("b", x)])
        assert m[0, 1] == pytest.approx(1.0)

    def test_anti_correlation(self):
        x = np.arange(10.0)
        _, m = pearson_matrix([("a", x), ("b", -x)])
        assert m[0, 1] == pytest.approx(-1.0)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=1000), rng.normal(size=1000)
        _, m = pearson_matrix([("x", x), ("y", y)])
        xc, yc = x - x.mean(), y - y.mean()
        expected = (xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc))
        assert m[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(22)
        cols = [(f"c{i}", rng.normal(size=50)) for i in range(4)]
        _, m = pearson_matrix(cols)
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 1.0)
        assert np.all(np.abs(m) <= 1.0)

    def test_constant_column_named(self):
        with pytest.raises(ConstantColumnError, match="flat"):
            pearson_matrix([("ok", np.arange(5.0)), ("flat", np.ones(5))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column_named(self, bad):
        """Not a NaN matrix, which correlation_precheck would read as weak."""
        column = np.arange(6.0)
        column[2] = bad
        with pytest.raises(ValueError, match="column 'gap' has non-finite values"):
            pearson_matrix([("ok", np.arange(6.0)), ("gap", column)])

    @pytest.mark.parametrize("power", [-600, 600])
    def test_power_of_two_scale_changes_no_bit(self, power):
        """Also where the column's squares would overflow or underflow."""
        rng = np.random.default_rng(24)
        x, y, z = rng.normal(size=(3, 100))
        _, m1 = pearson_matrix([("x", x), ("y", y), ("z", z)])
        _, m2 = pearson_matrix([("x", x), ("y", np.ldexp(y, power)), ("z", z)])
        assert np.array_equal(m1, m2)

    @given(st.integers(0, 2**32 - 1), st.floats(-1e6, 1e6), st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_scaling_before_centring_changes_no_bit(self, seed, offset, power):
        """Against centring first and scaling the centred column, as the
        correlations were computed before: the same bits."""
        rng = np.random.default_rng(seed)
        cols = [("x", rng.normal(size=50)), ("y", np.ldexp(rng.normal(size=50), power) + offset),
                ("z", rng.integers(0, 2, size=50).astype(float))]
        if np.ptp(cols[1][1]) == 0:
            return
        centred = [c * econometrics._unit_scale(c) for c in (v - v.mean() for _, v in cols)]
        roots = [math.sqrt(np.add.reduce(c * c)) for c in centred]
        _, m = pearson_matrix(cols)
        for i in range(3):
            for j in range(i):
                r = np.add.reduce(centred[i] * centred[j]) / roots[i] / roots[j]
                assert m[i, j] == min(max(r, -1.0), 1.0)

    def test_column_near_the_double_range_has_finite_correlations(self):
        """Two values of 1e308 overflow the column's unscaled mean."""
        rng = np.random.default_rng(25)
        x, y = rng.normal(size=(2, 60))
        big = y.copy()
        big[[4, 7]] = 1e308
        _, m = pearson_matrix([("x", x), ("y", y), ("big", big)])
        assert np.isfinite(m).all()
        assert m[2, 1] == m[1, 2] and abs(m[2, 1]) <= 1.0

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(23)
        x, y = rng.normal(size=100), rng.normal(size=100)
        _, m1 = pearson_matrix([("x", x), ("y", y)])
        _, m2 = pearson_matrix([("x", 3.0 * x + 7.0), ("y", y)])
        assert m2[0, 1] == pytest.approx(m1[0, 1], abs=1e-12)


class TestStars:
    @pytest.mark.parametrize("p,level", [(0.005, 3), (0.0, 3), (0.01, 2),
                                         (0.049, 2), (0.05, 1), (0.07, 1),
                                         (0.1, 0), (0.5, 0), (1.0, 0)])
    def test_brackets(self, p, level):
        assert significance_stars(p) == level

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            significance_stars(p)


class TestStudentT:
    def test_matches_scipy(self):
        for df in (1, 5, 30, 1000):
            for t in (0.0, 0.5, 1.96, 5.0, -3.2):
                expected = 2 * stats.t.sf(abs(t), df)
                assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-10)

    def test_edge_cases(self):
        assert student_t_two_sided_p(0.0, 10) == 1.0
        assert student_t_two_sided_p(float("inf"), 10) == 0.0
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)

    def test_nan_t_is_an_error(self):
        with pytest.raises(ValueError, match="NaN"):
            student_t_two_sided_p(float("nan"), 10)


@mpmath.workdps(50)
def exact_incomplete_beta(a, b, x):
    """I_x(a, b) at 50 digits for exact a, b and x (doubles or mpf).

    Far in the tail of a large a or b, mpmath.betainc's series stalls or
    takes seconds.  There, and wherever x^a (1-x)^b / (a B(a, b)) is below
    e^-1000, I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x),
    whose terms are all positive, is summed directly on the side of the
    mean where they fall off geometrically.
    """
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a * mpmath.beta(a, b)) > -1000:
        try:
            return mpmath.betainc(a, b, 0, x, regularized=True)
        except (mpmath.libmp.NoConvergence, ValueError):
            pass
    if x > a / (a + b):
        return 1 - positive_series(b, a, 1 - x)
    return positive_series(a, b, x)


def positive_series(a, b, x):
    term = total = mpmath.mpf(1)
    n = 0
    while term > total * mpmath.mpf(10) ** -45:
        term *= (a + b + n) * x / (a + 1 + n)
        total += term
        n += 1
    return x ** a * (1 - x) ** b / (a * mpmath.beta(a, b)) * total


@mpmath.workdps(50)
def exact_t_p(t, df):
    """P(|T| >= |t|) at 50 digits for the exact double t."""
    t, df = mpmath.mpf(t), mpmath.mpf(df)
    return exact_incomplete_beta(df / 2, mpmath.mpf(1) / 2, df / (df + t * t))


def assert_near_exact(got, exact, case):
    """Within RELATIVE_BOUND where the exact value is a normal double, and
    never 0 there; below that, within two steps of the subnormal grid."""
    if exact >= MIN_NORMAL:
        assert got != 0.0, case
        assert abs(got - exact) <= RELATIVE_BOUND * exact, (case, got, float(exact))
    else:
        assert abs(got - exact) <= 2 * LEAST_SUBNORMAL, (case, got, float(exact))


T_GRID_DF = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 1500, 3000, 7000, 14000, 30000, 100000,
             1000000)
T_GRID_T = (0.0, 0.01, 0.1, 0.5, 1.0, 1.5, 1.96, 2.5, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 37.0,
            40.0)


def t_cases():
    """The (df, t) grid of df 1-10^6 and |t| 0-40, plus 200 seeded draws."""
    rng = random.Random(20231)
    drawn = [(int(10 ** rng.uniform(0, 6)), rng.uniform(-40, 40)) for _ in range(200)]
    return [(df, t) for df in T_GRID_DF for t in T_GRID_T] + drawn


def f_cases():
    """(a, b, x) of F(df1, df2) tails: a = df2/2, b = df1/2 and
    x = df2 / (df2 + df1 F), as an F test's p-value I_x(a, b) uses them."""
    return [(df2 / 2, df1 / 2, df2 / (df2 + df1 * f))
            for df2 in (1, 2, 5, 10, 30, 100, 1000, 14000, 1000000)
            for df1 in (1, 2, 3, 5, 10, 20, 40, 100)
            for f in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 50.0, 300.0, 1e4)]


class TestIncompleteBeta:
    """regularized_incomplete_beta and the t p-values built on it, against
    mpmath at 50 digits."""

    def test_t_p_values_match_mpmath(self):
        for df, t in t_cases():
            assert_near_exact(student_t_two_sided_p(t, df), exact_t_p(t, df), (df, t))

    def test_f_type_pairs_match_mpmath_on_both_sides_of_the_swap(self):
        swapped = 0
        for a, b, x in f_cases():
            swapped += x > (a + 1) / (a + b + 2)
            assert_near_exact(regularized_incomplete_beta(a, b, x),
                              exact_incomplete_beta(a, b, x), (a, b, x))
        assert 100 < swapped < len(f_cases()) - 100

    def test_matches_scipy(self):
        from scipy.special import betainc
        for a, b, x in f_cases():
            expected = betainc(a, b, x)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(expected, rel=1e-11,
                                                                         abs=1e-300)

    def test_large_t_keeps_a_representable_p_value(self):
        # df = 1 is Cauchy: p = (2/pi) atan(1/|t|), about 6.4e-201 here, and
        # t * t would overflow.
        with mpmath.workdps(50):
            exact = 2 / mpmath.pi * mpmath.atan(1 / mpmath.mpf(1e200))
        assert_near_exact(student_t_two_sided_p(1e200, 1), exact, 1e200)
        assert student_t_two_sided_p(-1e200, 1) == student_t_two_sided_p(1e200, 1)

    @given(a=st.floats(0.5, 200.0) | st.sampled_from([0.5, 1.0, 10.0, 10.5]),
           b=st.floats(0.5, 200.0) | st.sampled_from([0.5, 1.0, 10.0, 10.5]),
           x=st.sampled_from([0.0, 1.0, LEAST_SUBNORMAL, 1e-310, MIN_NORMAL, 0.5,
                              1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]) | st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_edges_match_mpmath(self, a, b, x):
        got = regularized_incomplete_beta(a, b, x)
        assert 0.0 <= got <= 1.0
        if x in (0.0, 1.0):
            assert got == x
        else:
            assert_near_exact(got, exact_incomplete_beta(a, b, x), (a, b, x))

    @given(df=st.sampled_from([1, 2, 3]) | st.integers(1, 10 ** 6),
           t=st.sampled_from([0.0, -0.0, math.inf, -math.inf, LEAST_SUBNORMAL, 1e-160,
                              1.5e154, -1e200, 1e300]) | st.floats(-1e4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_t_edges_match_mpmath(self, df, t):
        got = student_t_two_sided_p(t, df)
        if math.isinf(t):
            assert got == 0.0
        elif t == 0.0:
            assert got == 1.0
        else:
            assert got == student_t_two_sided_p(-t, df)
            assert_near_exact(got, exact_t_p(t, df), (df, t))

    def test_stays_in_the_unit_interval_where_the_swap_cancels(self):
        # With b far below 1/2, 1 - I_{1-x}(b, a) is rounding noise about 0:
        # at x = 0.99 the difference itself comes out as -2^-52.
        for x in (0.95, 0.99, 0.999):
            assert 0.0 <= regularized_incomplete_beta(10.0, 1e-17, x) <= 1.0

    @pytest.mark.parametrize("a, b, x", [(0.0, 1.0, 0.5), (1.0, -1.0, 0.5),
                                         (math.inf, 1.0, 0.5), (1.0, math.nan, 0.5),
                                         (1.0, 1.0, -0.1), (1.0, 1.0, 1.5),
                                         (1.0, 1.0, math.nan)])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)
