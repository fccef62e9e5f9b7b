import datetime as dt

import numpy as np
import pytest

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
