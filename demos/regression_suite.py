"""
Walkthrough: the hedonic regression grid
========================================

Generates a synthetic sale-level panel from the model structure with
known coefficients, then runs the four nested models over the three
study windows and prints what each window's widest model recovered.

Run with: python3 demos/regression_suite.py
"""

import datetime as dt

import numpy as np

from punk_hedonics import Panel, default_windows, run_suite
from punk_hedonics.panel import PANEL_COLUMNS
from punk_hedonics.study import REGRESSOR_LABELS, model_specs

TRUTH = {
    "intercept": 6.0, "x_dark": -0.3, "x_light": -0.2, "x_medium": -0.25,
    "x_nonhuman": 1.4, "x_male": -0.3, "rarity": 0.002,
    "active_wallet_pct": -0.05, "sales_volume_pct": 0.004,
    "gas_price_gwei": 0.001, "fx_pct": -0.01, "sentiment": 2.0,
}

rng = np.random.default_rng(42)
columns = {name: [] for name in PANEL_COLUMNS}
for _ in range(6000):
    date = dt.date(2019, 1, 1) + dt.timedelta(days=int(rng.integers(0, 1400)))
    roll = rng.random()
    fields = {
        "x_dark": int(roll < 0.3),
        "x_light": int(0.3 <= roll < 0.6),
        "x_medium": int(0.6 <= roll < 0.85),
        "x_nonhuman": int(roll >= 0.95),
        "x_male": int(rng.random() < 0.65),
        "rarity": float(rng.uniform(1, 200)),
        "active_wallet_pct": float(rng.normal(0, 1)),
        "sales_volume_pct": float(rng.normal(0, 2)),
        "gas_price_gwei": float(rng.uniform(20, 300)),
        "fx_pct": float(rng.normal(0, 0.8)),
        "sentiment": float(rng.uniform(-0.5, 0.5)),
    }
    y = TRUTH["intercept"] + sum(TRUTH[k] * v for k, v in fields.items())
    fields.update(date=date, log_usd_price=y + float(rng.normal()))
    for name, value in fields.items():
        columns[name].append(value)

# One numpy column per panel field; each window is a date mask over them.
# The result is the fits' part of suite.json: each fit is keyed
# "<window>.<model>" under "results".
suite = run_suite(Panel(columns), default_windows())
results = suite["results"]

# r-squared climbs as each nested model adds regressors.
print("R^2 by window and model:")
for window in ("2017-2021", "2021-2022", "2017-2022"):
    r2s = "  ".join(f"({m}) {results[f'{window}.{m}']['r2']:.4f}" for m in (1, 2, 3, 4))
    print(f"  {window}: {r2s}")

print("\nFull-span Model 4 estimates vs truth:")
fit = results["2017-2022.4"]
for name, coef, se, stars in zip(fit["names"], fit["coefficients"],
                                 fit["standard_errors"], fit["stars"]):
    label = REGRESSOR_LABELS[name]
    print(f"  {label:<42} {coef:9.4f}{'*' * stars:<3} (se {se:.4f}, truth {TRUTH[name]:g})")

# The same grid runs over real CSV inputs through the CLI:
#   punk-hedonics --config config.txt --output-dir out regress
assert [s.id for s in model_specs()] == [1, 2, 3, 4]
