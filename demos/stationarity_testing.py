"""
Walkthrough: unit-root testing
==============================

The regression suite requires roughly stationary inputs; the log-price
transform is screened with an augmented Dickey-Fuller test.  This script
contrasts a stationary AR(1) process with a random walk.

Run with: python3 demos/stationarity_testing.py
"""

import numpy as np

from punk_hedonics import adf_test

rng = np.random.default_rng(0)
noise = rng.normal(size=500)

# Stationary AR(1): y_t = 0.5 y_{t-1} + e_t
ar1 = np.empty(500)
ar1[0] = noise[0]
for t in range(1, 500):
    ar1[t] = 0.5 * ar1[t - 1] + noise[t]

# Random walk: y_t = y_{t-1} + e_t (a unit root; not stationary)
walk = np.cumsum(rng.normal(size=500))

for label, series in [("AR(1), phi=0.5", ar1), ("random walk", walk)]:
    result = adf_test(series)
    verdict = "stationary" if result["stationary_at_5pct"] else "unit root not rejected"
    print(f"{label:<16} statistic={result['statistic']:8.3f}  "
          f"lags={result['lags']}  5% cv={result['critical_values']['5%']:.3f}  "
          f"-> {verdict}")

# Rejection means the statistic falls below the critical value: the more
# negative the statistic, the stronger the evidence against a unit root.
