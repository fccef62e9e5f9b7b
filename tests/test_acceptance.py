"""Acceptance criteria, one test per criterion.

Criteria 1-5 are property-based and always run.  Criteria 6-9 need the
released dataset ingested as CSV fixtures; point PUNK_HEDONICS_FIXTURES
at a directory containing tweets.csv, keyword_tweets.csv, sales.csv,
gas.csv, fx.csv, and lexicon.txt to enable them (see README).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import write_synthetic_dataset
from punk_hedonics.cli import main as cli_main
from punk_hedonics.econometrics import adf_test, ols_fit
from punk_hedonics.sentiment import compound_only, load_lexicon
from punk_hedonics.study import default_windows, run_suite
from test_econometrics import normal_equations_oracle
from test_study import TRUE_COEFFS, synthetic_panel

FIXTURE_ENV = "PUNK_HEDONICS_FIXTURES"

fixture_dir = os.environ.get(FIXTURE_ENV)
needs_fixtures = pytest.mark.skipif(
    not fixture_dir, reason=f"{FIXTURE_ENV} not set; released-dataset criteria skipped")


def report(criterion: str, passed: bool = True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def test_criterion_1_ols_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(30, 201))
        k = int(rng.integers(2, 13))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        fit = ols_fit(X, y)
        beta, se, r2 = normal_equations_oracle(X, y)
        assert fit.coefficients == pytest.approx(beta, rel=1e-8), trial
        assert fit.standard_errors == pytest.approx(se, rel=1e-8), trial
        assert fit.r2 == pytest.approx(r2, rel=1e-8), trial
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1 (OLS oracle equivalence)")


def test_criterion_2_ols_recovery_and_nesting():
    start = time.perf_counter()
    panel = synthetic_panel(n=10_000, seed=2002, noise=1.0)
    assert TRUE_COEFFS["sentiment"] == 2.0 and TRUE_COEFFS["x_male"] == -0.3
    suite = run_suite(panel, default_windows())
    assert suite["skipped_windows"] == {}
    for window in ("2017-2021", "2021-2022", "2017-2022"):
        fit = suite["results"][f"{window}.4"]
        by_name = dict(zip(fit["names"], fit["coefficients"]))
        se = dict(zip(fit["names"], fit["standard_errors"]))
        for name, truth in TRUE_COEFFS.items():
            assert abs(by_name[name] - truth) <= 3 * se[name], (window, name)
        r2s = [suite["results"][f"{window}.{m}"]["r2"] for m in (1, 2, 3, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(r2s, r2s[1:])), window
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("2 (OLS recovery + nesting monotonicity)")


def test_criterion_3_adf_discrimination():
    start = time.perf_counter()
    stationary_rejections = 0
    walk_non_rejections = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        noise = rng.normal(size=500)
        ar1 = np.empty(500)
        ar1[0] = noise[0]
        for t in range(1, 500):
            ar1[t] = 0.5 * ar1[t - 1] + noise[t]
        if adf_test(ar1).reject_at["5%"]:
            stationary_rejections += 1
        walk = np.cumsum(rng.normal(size=500))
        if not adf_test(walk).reject_at["5%"]:
            walk_non_rejections += 1
    elapsed = time.perf_counter() - start
    assert stationary_rejections >= 95, stationary_rejections
    assert walk_non_rejections >= 90, walk_non_rejections
    assert elapsed < 30.0
    report("3 (ADF discrimination)")


def test_criterion_4_sentiment_formula_and_invariants():
    start = time.perf_counter()
    grid = [round(-4.0 + 0.1 * i, 10) for i in range(81)]
    lex_text = "".join(f"tok{i}\t{v}\n" for i, v in enumerate(grid))
    lexicon = load_lexicon(lex_text)
    mirrored = load_lexicon("".join(f"tok{i}\t{-v}\n" for i, v in enumerate(grid)))
    for i, v in enumerate(grid):
        expected = v / math.sqrt(v * v + 15.0)
        assert compound_only(lexicon, f"tok{i}") == pytest.approx(expected, abs=1e-9)

    rng = np.random.default_rng(4004)
    vocab = [f"tok{i}" for i in range(81)] + ["very", "not", "but", "plain", "words"]
    punct = ["", "!", "!!", "?", "??", "..."]
    for _ in range(1000):
        words = [str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 9)))]
        text = " ".join(words) + str(rng.choice(punct))
        compound = compound_only(lexicon, text)
        assert -1.0 <= compound <= 1.0
        # Odd symmetry: negating every lexicon valence negates the compound.
        assert compound_only(mirrored, text) == pytest.approx(-compound, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("4 (sentiment formula + invariants)")


def test_criterion_5_pipeline_determinism(tmp_path):
    config = write_synthetic_dataset(tmp_path, seed=55, n_days=150)
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(["--config", str(config), "--output-dir", str(out_a), "all"]) == 0
    assert cli_main(["--config", str(config), "--output-dir", str(out_b), "all"]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a and files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    report("5 (pipeline determinism)")


@pytest.fixture(scope="module")
def released_suite(tmp_path_factory):
    """Regression suite over the released dataset fixtures."""
    root = Path(fixture_dir)
    config = tmp_path_factory.mktemp("released") / "config.txt"
    config.write_text(
        "tweet_corpus = tweets.csv\n"
        "keyword_corpus = keyword_tweets.csv\n"
        "sales = sales.csv\n"
        "gas = gas.csv\n"
        "fx = fx.csv\n"
        "lexicon = lexicon.txt\n", encoding="utf-8")
    out = tmp_path_factory.mktemp("released_out")
    rc = cli_main(["--config", str(config), "--data-dir", str(root),
                   "--output-dir", str(out), "all"])
    assert rc == 0
    return out


@needs_fixtures
def test_criterion_6_attribute_distribution():
    from punk_hedonics.market import (Gender, SkinTone, attribute_distribution,
                                      ingest_sales)
    with open(Path(fixture_dir) / "sales.csv", "rb") as fh:
        sales, _ = ingest_sales(fh)
    dist = attribute_distribution(sales)
    assert dist.total == 6275

    def percent(genders, skins):
        return 100 * sum(dist.count(g, s) for g in genders for s in skins) / dist.total

    assert percent([Gender.MALE], SkinTone) == pytest.approx(64.9, abs=0.1)
    assert percent([Gender.FEMALE], SkinTone) == pytest.approx(35.1, abs=0.1)
    assert percent(Gender, [SkinTone.ALBINO]) == pytest.approx(9.2, abs=0.1)
    report("6 (attribute distribution)")


@needs_fixtures
def test_criterion_7_table1_model4(released_suite):
    doc = json.loads((released_suite / "suite.json").read_text())
    cell = doc["results"]["2017-2021.4"]
    by_name = dict(zip(cell["names"], cell["coefficients"]))
    se = dict(zip(cell["names"], cell["standard_errors"]))
    assert by_name["sentiment"] == pytest.approx(2.0334, abs=0.02)
    assert se["sentiment"] == pytest.approx(0.1348, abs=0.005)
    assert cell["r2"] == pytest.approx(0.4581, abs=0.005)
    assert by_name["x_male"] == pytest.approx(-0.3059, abs=0.01)
    report("7 (Table 1 Model 4, 2017-2021)")


@needs_fixtures
def test_criterion_8_table2_model4_and_structural_change(released_suite):
    doc = json.loads((released_suite / "suite.json").read_text())
    cell = doc["results"]["2021-2022.4"]
    by_name = dict(zip(cell["names"], cell["coefficients"]))
    stars = dict(zip(cell["names"], cell["stars"]))
    assert by_name["sentiment"] == pytest.approx(0.3885, abs=0.02)
    assert by_name["x_male"] == pytest.approx(0.0532, abs=0.01)
    assert by_name["x_nonhuman"] == pytest.approx(3.1484, abs=0.05)
    assert stars["x_light"] == 0
    change = doc["structural_change"]
    assert change["x_male"]["sign_flipped"] is True
    assert change["x_light"]["significance_lost"] is True
    report("8 (Table 2 Model 4 + structural change)")


@needs_fixtures
def test_criterion_9_keyword_frequencies(released_suite):
    import csv
    with open(released_suite / "keyword_frequency.csv", newline="") as fh:
        freq = {row["keyword"]: int(row["count"]) for row in csv.DictReader(fh)}
    assert freq["male"] == 131
    assert freq["female"] == 6
    with open(released_suite / "keyword_sentiment.csv", newline="") as fh:
        sentiments = {row["keyword"]: row["mean_compound"]
                      for row in csv.DictReader(fh)}
    assert all(value and float(value) > 0 for value in sentiments.values())
    report("9 (keyword frequencies + positive sentiments)")
