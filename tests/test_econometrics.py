import numpy as np
import pytest
from scipy import stats

from punk_hedonics.econometrics import (ConstantColumnError, InsufficientDataError,
                                        SingularDesignError, adf_critical_values,
                                        adf_test, ols_fit, pearson_matrix,
                                        significance_stars, student_t_two_sided_p)


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
        assert fit.coefficients == pytest.approx([3.0, 2.0], abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.standard_errors == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_intercept_only_null_model(self):
        y = np.array([1.0, 2.0, 6.0, 3.0])
        fit = ols_fit(np.ones((4, 1)), y)
        assert fit.coefficients[0] == pytest.approx(y.mean())
        assert fit.r2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        n, k = 200, 6
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta_true = rng.normal(size=k)
        y = X @ beta_true + rng.normal(size=n)
        fit = ols_fit(X, y)
        beta, se, r2 = normal_equations_oracle(X, y)
        assert fit.coefficients == pytest.approx(beta, rel=1e-8)
        assert fit.standard_errors == pytest.approx(se, rel=1e-8)
        assert fit.r2 == pytest.approx(r2, rel=1e-8)
        # And the truth is recovered within 3 SE.
        assert np.all(np.abs(fit.coefficients - beta_true) <= 3 * fit.standard_errors)

    def test_rank_deficiency_names_columns(self):
        n = 30
        x = np.random.default_rng(0).normal(size=n)
        X = np.column_stack([np.ones(n), x, 2 * x])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(X, x, names=("intercept", "a", "a_doubled"))
        assert "a_doubled" in exc.value.columns

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.ones((3, 3)), np.zeros(3))

    def test_t_stats_consistent(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        fit = ols_fit(X, rng.normal(size=50))
        mask = fit.standard_errors > 0
        assert fit.t_stats[mask] == pytest.approx(
            fit.coefficients[mask] / fit.standard_errors[mask], abs=1e-9)

    def test_p_values_match_scipy_t(self):
        rng = np.random.default_rng(4)
        n, k = 80, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        fit = ols_fit(X, rng.normal(size=n))
        expected = 2 * stats.t.sf(np.abs(fit.t_stats), n - k)
        assert fit.p_values == pytest.approx(expected, abs=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 4))])
        y = rng.normal(size=120)
        fit = ols_fit(X, y)
        resid = y - X @ fit.coefficients
        scale = np.abs(X).sum(axis=0).max() * np.abs(resid).max()
        assert np.all(np.abs(X.T @ resid) <= 1e-8 * max(scale, 1.0))

    def test_adding_column_never_decreases_r2(self):
        rng = np.random.default_rng(6)
        n = 100
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = rng.normal(size=n)
        small = ols_fit(X[:, :3], y)
        big = ols_fit(X, y)
        assert big.r2 >= small.r2 - 1e-12

    def test_affine_reparameterization_invariance(self):
        rng = np.random.default_rng(8)
        n = 150
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = X @ np.array([1.0, 0.5, -2.0, 0.3]) + rng.normal(size=n)
        fit = ols_fit(X, y)
        shifted = X.copy()
        shifted[:, 2] += 10.0  # constant shift to one regressor
        fit2 = ols_fit(shifted, y)
        assert shifted @ fit2.coefficients == pytest.approx(X @ fit.coefficients, abs=1e-9)
        # Slope coefficients unchanged; only the intercept absorbs the shift.
        assert fit2.coefficients[1:] == pytest.approx(fit.coefficients[1:], abs=1e-9)

    def test_adj_r2_below_r2(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        fit = ols_fit(X, rng.normal(size=60))
        assert fit.adj_r2 <= fit.r2
        assert 0.0 <= fit.r2 <= 1.0


class TestAdf:
    def test_iid_noise_rejects_at_5pct(self):
        rng = np.random.default_rng(100)
        result = adf_test(rng.normal(size=500))
        # Large-sample 5% critical value is about -2.86; white noise sits far below.
        assert result.statistic < -2.86
        assert result.reject_at["5%"]

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(100)
        walk = np.cumsum(rng.normal(size=500))
        result = adf_test(walk)
        assert not result.reject_at["5%"]

    def test_linear_ramp_deterministic(self):
        ramp = np.arange(200.0)
        a = adf_test(ramp)
        b = adf_test(ramp)
        assert (a.statistic, a.lags, a.n_obs) == (b.statistic, b.lags, b.n_obs)

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

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        y = np.cumsum(rng.normal(size=300))
        base = adf_test(y)
        scaled = adf_test(5.0 * y - 37.0)
        assert scaled.statistic == pytest.approx(base.statistic, abs=1e-8)
        assert scaled.lags == base.lags

    def test_reject_map_consistent_with_critical_values(self):
        rng = np.random.default_rng(13)
        result = adf_test(rng.normal(size=200))
        for level, cv in result.critical_values.items():
            assert result.reject_at[level] == (result.statistic < cv)

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


def _fixed_lag_statistic(series, lag):
    from punk_hedonics.econometrics import _adf_design, ols_fit as fit_fn
    X, dy = _adf_design(np.asarray(series, float), lag)
    fit = fit_fn(X, dy)
    return float(fit.t_stats[0])


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
