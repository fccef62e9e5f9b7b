"""Checks of one ``punk-hedonics all`` output directory against the ground truth.

No frozen digests: every expected value comes from the generator, so a later
fix that changes output bytes still passes as long as the counts, the signs
of the planted sentiment days and the planted coefficients come out right.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

OUTPUTS = ("daily_sentiment.csv", "sentiment_distribution.csv", "tweet_rejects.csv",
           "keyword_frequency.csv", "keyword_sentiment.csv", "keyword_rejects.csv",
           "panel.csv", "suite.json", "tables.txt", "lollipop.csv",
           "sales_rejects.csv", "heatmap.csv")

# |estimate - planted| may be this many standard errors, plus a share of the
# planted value: daily sales volume is built from the prices themselves, so
# the full model is slightly endogenous and the estimates carry a small bias.
COEF_SE_TOLERANCE = 5.0
COEF_REL_TOLERANCE = 0.1


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUTS}


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(out: Path, truth: dict) -> list[str]:
    """Every way the outputs in ``out`` disagree with ``truth``; empty if none."""
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    tweets, keyword, sales = truth["tweets"], truth["keyword"], truth["sales"]
    expect("tweet_rejects.csv rows", len(_rows(out / "tweet_rejects.csv")), tweets["rejects"])
    expect("keyword_rejects.csv rows", len(_rows(out / "keyword_rejects.csv")),
           keyword["rejects"])
    expect("sales_rejects.csv rows", len(_rows(out / "sales_rejects.csv")), sales["rejects"])
    expect("daily_sentiment.csv days", len(_rows(out / "daily_sentiment.csv")), tweets["days"])
    daily = {day: float(value) for day, value in _rows(out / "daily_sentiment.csv")}
    for day in tweets["sign_days"]["positive"]:
        if not daily.get(day, 0.0) > 0:
            problems.append(f"daily_sentiment.csv {day}: got {daily.get(day)!r}, "
                            "expected > 0 (only positive words)")
    for day in tweets["sign_days"]["zero"]:
        if daily.get(day) != 0:
            problems.append(f"daily_sentiment.csv {day}: got {daily.get(day)!r}, "
                            "expected 0 (no scored words)")
    expect("sentiment_distribution.csv day total",
           sum(int(n) for _, n in _rows(out / "sentiment_distribution.csv")), tweets["days"])
    expect("keyword_frequency.csv",
           {kw: int(n) for kw, n in _rows(out / "keyword_frequency.csv")},
           keyword["keyword_occurrences"])
    expect("keyword_sentiment.csv keywords without a mean",
           sorted(kw for kw, mean in _rows(out / "keyword_sentiment.csv") if not mean),
           sorted(kw for kw, n in keyword["keyword_occurrences"].items() if not n))
    expect("heatmap.csv counts",
           {f"{g}/{s}": int(n) for g, s, n, _ in _rows(out / "heatmap.csv")},
           sales["heatmap"])
    expect("panel.csv rows", len(_rows(out / "panel.csv")), sales["panel_rows"])
    for name in ("tables.txt", "lollipop.csv"):
        if not (out / name).stat().st_size:
            problems.append(f"{name} is empty")

    suite = json.loads((out / "suite.json").read_text(encoding="utf-8"))
    full = suite["windows"][2]["label"]          # pre-split, post-split, full span
    fit = suite["results"].get(f"{full}.4")
    if fit is None:
        problems.append(f"suite.json has no model 4 fit for the full window {full!r}")
        return problems
    expect("full-window model 4 n_obs", fit["n_obs"], sales["panel_rows"])
    for name, planted in truth["planted"].items():
        if name == "intercept":
            continue
        i = fit["names"].index(name)
        coef, se = fit["coefficients"][i], fit["standard_errors"][i]
        if abs(coef - planted) > COEF_SE_TOLERANCE * se + COEF_REL_TOLERANCE * abs(planted):
            problems.append(f"{name}: estimate {coef:.4g} (se {se:.2g}) "
                            f"does not recover planted {planted:g}")
    return problems
