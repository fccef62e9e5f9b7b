"""Experiment grid: four nested hedonic models over three time windows,
plus the before/after structural-change comparison."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .econometrics import (ConstantColumnError, InsufficientDataError, NonFiniteFitError,
                           SingularDesignError, ols_fit, pearson_matrix, reflect_design)
from .panel import DUMMY_COLUMNS, Panel
from .tweets import STUDY_WINDOW_END, STUDY_WINDOW_START

INTERCEPT = "intercept"

DEFAULT_SPLIT_DATE = dt.date(2021, 1, 1)
DEFAULT_CORRELATION_THRESHOLD = 0.5

# Human-readable labels for report output.
REGRESSOR_LABELS = {
    INTERCEPT: "(Intercept)",
    "x_dark": "Skin Tone: Dark",
    "x_light": "Skin Tone: Light",
    "x_medium": "Skin Tone: Medium",
    "x_nonhuman": "Skin Tone: Nonhuman",
    "x_male": "Male",
    "rarity": "Rarity",
    "active_wallet_pct": "Active Market Wallet (% change, daily)",
    "sales_volume_pct": "Sales Volume (USD, % change, daily)",
    "gas_price_gwei": "Gas Price (Gwei, average, daily)",
    "fx_pct": "ETH/USD (% change, daily)",
    "sentiment": "Sentiment Score",
}


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    id: int
    regressors: tuple[str, ...]


def model_specs() -> tuple[ModelSpec, ...]:
    """The four strictly nested regressor sets."""
    base = DUMMY_COLUMNS + ("rarity",)
    demand = base + ("active_wallet_pct", "sales_volume_pct", "gas_price_gwei")
    with_fx = demand + ("fx_pct",)
    with_sentiment = with_fx + ("sentiment",)
    return (ModelSpec(1, base), ModelSpec(2, demand),
            ModelSpec(3, with_fx), ModelSpec(4, with_sentiment))


@dataclass(frozen=True)
class WindowSpec:
    label: str
    start: dt.date
    end: dt.date          # inclusive

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window {self.label}: start must precede end")


def default_windows(study_start: dt.date = STUDY_WINDOW_START,
                    study_end: dt.date = STUDY_WINDOW_END,
                    split_date: dt.date = DEFAULT_SPLIT_DATE) -> tuple[WindowSpec, ...]:
    """The three study periods, in this order: pre-split, post-split, full span.

    Each is labelled by the years it runs from and up to, e.g. 2017-2021
    for 2017-06-23 to 2020-12-31.  Labels key the results, so when two
    coincide every window is labelled by its ISO start and end dates.
    """
    one_day = dt.timedelta(days=1)
    bounds = ((study_start, split_date - one_day), (split_date, study_end),
              (study_start, study_end))
    labels = [f"{start.year}-{(end + one_day).year}" for start, end in bounds]
    if len(set(labels)) < len(labels):
        labels = [f"{start.isoformat()}_{end.isoformat()}" for start, end in bounds]
    return tuple(WindowSpec(label, start, end)
                 for label, (start, end) in zip(labels, bounds))


def design_for(panel: Panel, model: ModelSpec) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Design matrix (intercept first, Fortran-ordered, so that each column
    a fit reads is contiguous), response, and column names.

    The models are nested, so each model's design is, column for column, a
    prefix of the widest model's, which is what lets run_suite fit all four
    from one reflection of model 4's (ols_fit's ``reflection``)."""
    names = (INTERCEPT,) + model.regressors
    X = np.vstack([np.ones(len(panel)), *(panel[reg] for reg in model.regressors)]).T
    return X, panel["log_usd_price"], names


def run_suite(panel: Panel, windows: tuple[WindowSpec, ...]) -> dict:
    """Fit every (window, model) cell; windows that cannot support the
    widest model are skipped with a reason, the rest still run.

    Each window's model 4 design is reflected once, in place
    (reflect_design), and each model is fitted by ``ols_fit`` on its own
    design from that reflection's leading block, which gives the bits of
    a fit that reflects the model's design itself; at most one model
    design and the window's reflection are held at a time.  A window is
    skipped with the error of the first model, in order, that fails the
    rank rule or leaves the double range, naming only that model's columns.

    Returns the fits' part of ``suite.json``: ``schema_version``,
    ``windows``, ``skipped_windows``, ``results`` (``<window>.<model>`` →
    what ``ols_fit`` returns, sorted by window label and model id) and
    ``structural_change``, which compares model 4 of the first two windows
    (pre-split and post-split) or gives the ``skip_reason``.  A window
    label given twice is a ValueError.
    """
    labels = [w.label for w in windows]
    if len(set(labels)) < len(labels):
        raise ValueError(f"window label {max(labels, key=labels.count)!r} is given twice")
    specs = model_specs()
    max_params = 1 + len(specs[-1].regressors)
    fits: dict[tuple[str, int], dict] = {}
    skipped: dict[str, str] = {}
    dates = panel["date"]
    for window in windows:
        mask = (dates >= np.datetime64(window.start)) & (dates <= np.datetime64(window.end))
        in_window = panel if mask.all() else panel.select(mask)
        if len(in_window) <= max_params:
            skipped[window.label] = f"only {len(in_window)} rows for {max_params} parameters"
            continue
        try:
            reflection = reflect_design(*design_for(in_window, specs[-1])[:2])
            fits.update({(window.label, spec.id): ols_fit(*design_for(in_window, spec),
                                                          reflection=reflection)
                         for spec in specs})
        except (InsufficientDataError, ConstantColumnError, SingularDesignError,
                NonFiniteFitError) as exc:
            skipped[window.label] = str(exc)
    results = {f"{label}.{model_id}": fit for (label, model_id), fit in sorted(fits.items())}
    pair_skipped = [f"window {w.label} skipped: {skipped[w.label]}"
                    for w in windows[:2] if w.label in skipped]
    if len(windows) < 2:
        pair_skipped = [f"two windows needed, {len(windows)} given"]
    return {
        "schema_version": 1,
        "windows": [{"label": w.label, "start": w.start.isoformat(),
                     "end": w.end.isoformat()} for w in windows],
        "skipped_windows": dict(sorted(skipped.items())),
        "results": results,
        "structural_change": ({"skip_reason": "; ".join(pair_skipped)} if pair_skipped
                              else structural_change(results[f"{windows[0].label}.4"],
                                                     results[f"{windows[1].label}.4"])),
    }


def correlation_precheck(panel: Panel, model: ModelSpec,
                         threshold: float = DEFAULT_CORRELATION_THRESHOLD) -> dict:
    """Pairwise correlations among the model's regressors, as the
    ``suite.json`` block: ``threshold``, ``weakly_correlated``, ``names``,
    ``matrix`` (rows of floats) and ``offending_pairs`` (``[a, b, r]``).

    The weak-correlation flag is set only when every off-diagonal entry
    stays below the threshold in magnitude; otherwise the offending
    pairs are named.
    """
    if not panel:
        raise ValueError("panel is empty")
    names, matrix = pearson_matrix([(reg, panel[reg]) for reg in model.regressors])
    rows = matrix.tolist()
    offending = [[names[i], names[j], rows[i][j]]
                 for i in range(len(names)) for j in range(i + 1, len(names))
                 if abs(rows[i][j]) >= threshold]
    return {"threshold": float(threshold), "weakly_correlated": not offending,
            "names": list(names), "matrix": rows, "offending_pairs": offending}


def structural_change(before: dict, after: dict) -> dict[str, dict]:
    """Per-regressor sign and significance transitions between two
    ``results`` entries, keyed by regressor: ``coef_before``,
    ``coef_after``, ``sign_flipped``, ``stars_before``, ``stars_after`` and
    ``significance_lost``."""
    if before["names"] != after["names"]:
        raise AlignmentError(
            f"regressor sets differ: {before['names']} vs {after['names']}")
    changes = {}
    for name, coef_before, coef_after, stars_before, stars_after in zip(
            before["names"], before["coefficients"], after["coefficients"],
            before["stars"], after["stars"]):
        changes[name] = {"coef_before": coef_before, "coef_after": coef_after,
                         "sign_flipped": coef_before * coef_after < 0,
                         "stars_before": stars_before, "stars_after": stars_after,
                         "significance_lost": stars_before > 0 and stars_after == 0}
    return changes

