import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hexed
from punk_hedonics import econometrics, study
from punk_hedonics.econometrics import (ConstantColumnError, InsufficientDataError,
                                        NonFiniteFitError, SingularDesignError, ols_fit)
from punk_hedonics.panel import PANEL_COLUMNS, Panel
from punk_hedonics.study import (AlignmentError, correlation_precheck,
                                 default_windows, design_for, model_specs,
                                 run_suite, structural_change, WindowSpec)

TRUE_COEFFS = {
    "intercept": 6.0, "x_dark": -0.3, "x_light": -0.2, "x_medium": -0.25,
    "x_nonhuman": 1.4, "x_male": -0.3, "rarity": 0.002,
    "active_wallet_pct": -0.05, "sales_volume_pct": 0.004,
    "gas_price_gwei": 0.001, "fx_pct": -0.01, "sentiment": 2.0,
}


def synthetic_panel(n=4000, seed=0, noise=1.0, coeffs=TRUE_COEFFS,
                    start=dt.date(2019, 1, 1), span_days=1400):
    """Panel drawn from the hedonic model structure with known coefficients."""
    rng = np.random.default_rng(seed)
    columns = {name: [] for name in PANEL_COLUMNS}
    for _ in range(n):
        date = start + dt.timedelta(days=int(rng.integers(0, span_days)))
        skin_roll = rng.random()
        dark = int(skin_roll < 0.3)
        light = int(0.3 <= skin_roll < 0.6)
        medium = int(0.6 <= skin_roll < 0.85)
        nonhuman = int(skin_roll >= 0.95)
        male = int(rng.random() < 0.65)
        fields = {
            "x_dark": dark, "x_light": light, "x_medium": medium,
            "x_nonhuman": nonhuman, "x_male": male,
            "rarity": float(rng.uniform(1, 200)),
            "active_wallet_pct": float(rng.normal(0, 1)),
            "sales_volume_pct": float(rng.normal(0, 2)),
            "gas_price_gwei": float(rng.uniform(20, 300)),
            "fx_pct": float(rng.normal(0, 0.8)),
            "sentiment": float(rng.uniform(-0.5, 0.5)),
        }
        y = coeffs["intercept"] + sum(coeffs[k] * fields[k] for k in fields)
        y += float(rng.normal(0, noise))
        for name, value in dict(fields, date=date, log_usd_price=y).items():
            columns[name].append(value)
    return Panel(columns)


def direct_fits(panel, windows):
    """run_suite's ``results`` and ``skipped_windows`` with each cell fitted
    by ols_fit on its own design alone, one reflection per cell: the
    reference for the grid that shares one reflection per window."""
    specs = model_specs()
    max_params = 1 + len(specs[-1].regressors)
    fits, skipped = {}, {}
    dates = panel["date"]
    for window in windows:
        mask = (dates >= np.datetime64(window.start)) & (dates <= np.datetime64(window.end))
        in_window = panel if mask.all() else panel.select(mask)
        if len(in_window) <= max_params:
            skipped[window.label] = f"only {len(in_window)} rows for {max_params} parameters"
            continue
        try:
            for spec in specs:
                X, y, names = design_for(in_window, spec)
                fits[(window.label, spec.id)] = ols_fit(X, y, names=names)
        except (InsufficientDataError, ConstantColumnError, SingularDesignError,
                NonFiniteFitError) as exc:
            skipped[window.label] = str(exc)
            fits = {k: v for k, v in fits.items() if k[0] != window.label}
    results = {f"{label}.{model_id}": fit for (label, model_id), fit in sorted(fits.items())}
    return results, dict(sorted(skipped.items()))


def assert_grid_is_the_direct_fits(panel, windows):
    suite = run_suite(panel, windows)
    results, skipped = direct_fits(panel, windows)
    assert list(suite["results"]) == list(results)
    assert hexed(suite["results"]) == hexed(results)
    assert suite["skipped_windows"] == skipped
    return suite


# A column that each model adds to the one before it, by model id.
ADDED_COLUMN = {1: "rarity", 2: "gas_price_gwei", 3: "fx_pct", 4: "sentiment"}
GRID_PANEL = synthetic_panel(n=600, seed=21)


class TestModelSpecs:
    def test_strict_nesting(self):
        specs = model_specs()
        assert [s.id for s in specs] == [1, 2, 3, 4]
        for small, big in zip(specs, specs[1:]):
            assert set(small.regressors) < set(big.regressors)

    def test_model_contents(self):
        specs = {s.id: s.regressors for s in model_specs()}
        assert specs[1] == ("x_dark", "x_light", "x_medium", "x_nonhuman",
                            "x_male", "rarity")
        assert set(specs[2]) - set(specs[1]) == {"active_wallet_pct",
                                                "sales_volume_pct",
                                                "gas_price_gwei"}
        assert set(specs[3]) - set(specs[2]) == {"fx_pct"}
        assert set(specs[4]) - set(specs[3]) == {"sentiment"}


class TestWindows:
    def test_default_three_periods(self):
        w = default_windows()
        assert [x.label for x in w] == ["2017-2021", "2021-2022", "2017-2022"]
        assert w[0].end == dt.date(2020, 12, 31)
        assert w[1].start == dt.date(2021, 1, 1)
        assert w[2].start == w[0].start and w[2].end == w[1].end

    def test_labels_follow_the_split_date(self):
        w = default_windows(split_date=dt.date(2020, 11, 1))
        assert [x.label for x in w] == ["2017-2020", "2020-2022", "2017-2022"]
        assert w[0].end == dt.date(2020, 10, 31)
        assert w[1].start == dt.date(2020, 11, 1)

    def test_coinciding_labels_fall_back_to_iso_dates(self):
        w = default_windows(dt.date(2021, 1, 1), dt.date(2021, 12, 31),
                            split_date=dt.date(2021, 7, 1))
        assert [x.label for x in w] == ["2021-01-01_2021-06-30",
                                        "2021-07-01_2021-12-31",
                                        "2021-01-01_2021-12-31"]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowSpec("bad", dt.date(2021, 1, 1), dt.date(2020, 1, 1))


class TestRunSuite:
    def test_twelve_fits_and_recovery(self):
        panel = synthetic_panel(seed=1)
        suite = run_suite(panel, default_windows())
        assert suite["skipped_windows"] == {}
        assert len(suite["results"]) == 12
        for window in ("2017-2021", "2021-2022", "2017-2022"):
            fit = suite["results"][f"{window}.4"]
            coefficients = dict(zip(fit["names"], fit["coefficients"]))
            standard_errors = dict(zip(fit["names"], fit["standard_errors"]))
            for name, truth in TRUE_COEFFS.items():
                delta = abs(coefficients[name] - truth)
                assert delta <= 3 * standard_errors[name], (window, name)

    def test_nesting_monotonicity_of_r2(self):
        panel = synthetic_panel(seed=2, n=2000)
        suite = run_suite(panel, default_windows())
        for window in ("2017-2021", "2021-2022", "2017-2022"):
            r2s = [suite["results"][f"{window}.{m}"]["r2"] for m in (1, 2, 3, 4)]
            assert all(a <= b + 1e-12 for a, b in zip(r2s, r2s[1:]))

    def test_regressor_sets_match_specs(self):
        panel = synthetic_panel(seed=3, n=500)
        suite = run_suite(panel, default_windows())
        for spec in model_specs():
            fit = suite["results"][f"2017-2022.{spec.id}"]
            assert fit["names"] == ["intercept", *spec.regressors]

    def test_insufficient_window_skipped_others_run(self):
        panel = synthetic_panel(seed=4, n=300, start=dt.date(2021, 6, 1),
                                span_days=300)
        windows = default_windows()
        suite = run_suite(panel, windows)
        assert "2017-2021" in suite["skipped_windows"]
        assert "2021-2022.4" in suite["results"]
        # No non-human sale before the split: a zero dummy column there.
        panel = synthetic_panel(seed=4, n=800)
        pre_split = panel["date"] < np.datetime64(windows[1].start)
        panel = Panel({**panel.columns,
                       "x_nonhuman": np.where(pre_split, 0, panel["x_nonhuman"])})
        suite = run_suite(panel, windows)
        assert "rank deficient" in suite["skipped_windows"]["2017-2021"]
        assert "2021-2022.4" in suite["results"] and "2017-2022.4" in suite["results"]
        assert not any(key.startswith("2017-2021.") for key in suite["results"])

    def test_full_window_fits_same_as_from_a_masked_copy(self):
        # Every row lies in the full window, so it is fitted on the panel
        # itself; one extra sale before the study start forces a copy.
        panel = synthetic_panel(seed=6, n=800)
        windows = default_windows()
        early = np.datetime64(windows[2].start) - np.timedelta64(1, "D")
        padded = Panel({name: np.concatenate([[early] if name == "date" else column[:1],
                                              column])
                        for name, column in panel.columns.items()})
        whole, masked = run_suite(panel, windows), run_suite(padded, windows)
        for spec in model_specs():
            key = f"{windows[2].label}.{spec.id}"
            a, b = whole["results"][key], masked["results"][key]
            for field in ("coefficients", "standard_errors", "t_stats", "p_values"):
                assert a[field] == b[field], field
            assert (a["r2"], a["adj_r2"], a["n_obs"]) == (b["r2"], b["adj_r2"], b["n_obs"])

    @given(rarity_power=st.integers(-600, 600), gas_power=st.integers(-600, 600))
    @settings(max_examples=25, deadline=None)
    def test_every_cell_is_the_direct_fit(self, rarity_power, gas_power):
        """Each window's four fits come from one reflection of model 4's
        design, with the bits of fitting each model's design alone, also
        where rarity and gas are scaled by 2^±600."""
        panel = Panel({**GRID_PANEL.columns,
                       "rarity": np.ldexp(GRID_PANEL["rarity"], rarity_power),
                       "gas_price_gwei": np.ldexp(GRID_PANEL["gas_price_gwei"], gas_power)})
        suite = assert_grid_is_the_direct_fits(panel, default_windows())
        assert suite["skipped_windows"] == {}

    @pytest.mark.parametrize("seed", [31, 32])
    def test_seeded_panels_are_the_direct_fits(self, seed):
        assert_grid_is_the_direct_fits(synthetic_panel(n=1500, seed=seed), default_windows())

    @pytest.mark.parametrize("failure", ["rank", "overflow"])
    @pytest.mark.parametrize("model_id", [1, 2, 3, 4])
    def test_window_skipped_by_the_first_model_that_fails(self, model_id, failure):
        """The columns of model `model_id` and of every later model fail
        before the split, each as a multiple of the intercept or with four
        values of 1e308.  The pre-split and full windows are skipped naming
        the first failing model's column alone, as the direct fits do."""
        windows = default_windows()
        pre_split = GRID_PANEL["date"] < np.datetime64(windows[1].start)
        broken = dict(GRID_PANEL.columns)
        for column in (ADDED_COLUMN[m] for m in range(model_id, 5)):
            values = GRID_PANEL[column].astype(float)
            if failure == "rank":
                values = np.where(pre_split, 2.0, values)
            else:
                values[np.flatnonzero(pre_split)[[3, 9, 15, 21]]] = 1e308
            broken[column] = values
        suite = assert_grid_is_the_direct_fits(Panel(broken), windows)
        message = ("design matrix is rank deficient in columns: " if failure == "rank"
                   else "non-finite fit in columns: ") + ADDED_COLUMN[model_id]
        skipped = suite["skipped_windows"]
        assert skipped[windows[0].label] == message
        assert set(skipped) == ({windows[0].label} if failure == "rank"
                                else {windows[0].label, windows[2].label})

    def test_reflects_one_design_per_window(self, monkeypatch):
        """Three reflections of model 4's design, not one per fit, and still
        one ols_fit per (window, model) with that model's own design."""
        reflected, fitted = [], []
        householder, fit = econometrics._householder, ols_fit

        def counted_householder(A, b):
            reflected.append(A.shape[1])
            return householder(A, b)

        def counted_fit(design, *args, **kwargs):
            fitted.append(design.shape[1])
            return fit(design, *args, **kwargs)
        monkeypatch.setattr(econometrics, "_householder", counted_householder)
        monkeypatch.setattr(study, "ols_fit", counted_fit)
        suite = run_suite(GRID_PANEL, default_windows())
        assert len(suite["results"]) == 12
        assert reflected == [12, 12, 12]
        assert fitted == [7, 10, 11, 12] * 3

    def test_near_singular_design_the_rule_accepts_is_reported(self):
        """Sentiment is half of fx_pct plus 2e-13 of noise: each window's
        model 4 has a 1-norm condition estimate ‖R‖₁‖R⁻¹‖₁ of about 0.45/ε,
        and the rank rule accepts its diagonal by a factor of 3.7 or more,
        so every window is fitted and reported, bit for bit as the direct
        fits."""
        noise = np.random.default_rng(22).normal(size=len(GRID_PANEL))
        panel = Panel({**GRID_PANEL.columns,
                       "sentiment": 0.5 * GRID_PANEL["fx_pct"] + 2e-13 * noise})
        windows = default_windows()
        for window in windows:
            dates = panel["date"]
            in_window = panel.select((dates >= np.datetime64(window.start))
                                     & (dates <= np.datetime64(window.end)))
            X, y, _ = design_for(in_window, model_specs()[-1])
            R, _ = econometrics.reflect_design(X, y)
            assert not econometrics._rejected_columns(R, len(in_window)).any()
            condition = np.linalg.norm(R, 1) * np.linalg.norm(np.linalg.inv(R), 1)
            assert 0.1 / np.finfo(float).eps < condition < 10 / np.finfo(float).eps
        suite = assert_grid_is_the_direct_fits(panel, windows)
        assert suite["skipped_windows"] == {} and len(suite["results"]) == 12

    def test_determinism(self):
        panel = synthetic_panel(seed=5, n=800)
        a = run_suite(panel, default_windows())
        b = run_suite(panel, default_windows())
        for key in a["results"]:
            assert a["results"][key]["coefficients"] == b["results"][key]["coefficients"]
            assert a["results"][key]["r2"] == b["results"][key]["r2"]
        assert a == b


class TestCorrelationPrecheck:
    def test_duplicated_regressor_flags_pair(self):
        panel = synthetic_panel(seed=6, n=300)
        panel = Panel({**panel.columns, "fx_pct": panel["sentiment"]})
        result = correlation_precheck(panel, model_specs()[-1])
        assert not result["weakly_correlated"]
        assert ("fx_pct", "sentiment", pytest.approx(1.0)) in [
            (a, b, r) for a, b, r in result["offending_pairs"]] or \
            ("sentiment", "fx_pct") in [(a, b) for a, b, _ in result["offending_pairs"]]

    def test_independent_regressors_flag_true(self):
        panel = synthetic_panel(seed=7, n=2000)
        result = correlation_precheck(panel, model_specs()[-1])
        assert result["weakly_correlated"]
        assert result["offending_pairs"] == []

    def test_threshold_configurable(self):
        panel = synthetic_panel(seed=8, n=2000)
        strict = correlation_precheck(panel, model_specs()[-1], threshold=0.0001)
        assert not strict["weakly_correlated"]


class TestStructuralChange:
    def test_identical_fits_no_changes(self):
        panel = synthetic_panel(seed=9, n=600)
        suite = run_suite(panel, default_windows())
        fit = suite["results"]["2017-2022.4"]
        report = structural_change(fit, fit)
        for change in report.values():
            assert not change["sign_flipped"]
            assert not change["significance_lost"]
            assert change["stars_before"] == change["stars_after"]

    def test_constructed_sign_flip(self):
        before_coeffs = dict(TRUE_COEFFS)
        after_coeffs = dict(TRUE_COEFFS, x_male=+0.3)
        before = run_suite(synthetic_panel(seed=10, coeffs=before_coeffs, noise=0.2),
                           default_windows())["results"]["2017-2022.4"]
        after = run_suite(synthetic_panel(seed=11, coeffs=after_coeffs, noise=0.2),
                          default_windows())["results"]["2017-2022.4"]
        report = structural_change(before, after)
        flips = [n for n, c in report.items() if c["sign_flipped"]]
        assert flips == ["x_male"]

    def test_mismatched_regressors_error(self):
        panel = synthetic_panel(seed=12, n=500)
        suite = run_suite(panel, default_windows())
        with pytest.raises(AlignmentError):
            structural_change(suite["results"]["2017-2022.3"],
                              suite["results"]["2017-2022.4"])

    def test_sign_flip_definition(self):
        panel = synthetic_panel(seed=13, n=500)
        suite = run_suite(panel, default_windows())
        report = structural_change(suite["results"]["2017-2021.4"],
                                   suite["results"]["2021-2022.4"])
        for change in report.values():
            assert change["sign_flipped"] == (change["coef_before"] * change["coef_after"] < 0)


class TestSuiteSerialization:
    def test_schema_and_keys(self):
        panel = synthetic_panel(seed=14, n=600)
        doc = run_suite(panel, default_windows())
        assert doc["schema_version"] == 1
        assert set(doc["results"]) == {f"{w}.{m}" for w in
                                       ("2017-2021", "2021-2022", "2017-2022")
                                       for m in (1, 2, 3, 4)}
        cell = doc["results"]["2017-2021.4"]
        assert len(cell["coefficients"]) == cell["n_params"] == 12
        assert "structural_change" in doc
        assert doc["structural_change"]["x_male"]["sign_flipped"] in (True, False)

    def test_design_for_intercept_first(self):
        panel = synthetic_panel(seed=15, n=50)
        X, y, names = design_for(panel, model_specs()[0])
        assert names[0] == "intercept"
        assert np.all(X[:, 0] == 1.0)
        assert X.shape == (50, 7)
