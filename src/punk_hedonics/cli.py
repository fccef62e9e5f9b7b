"""Command-line pipeline: ``score``, ``keywords``, ``regress``, ``heatmap``, ``all``.

Each subcommand reads CSV inputs named in a key-value config file, each
at most once per run, and emits plot-ready CSV/JSON into the output
directory.  No charts are rendered here; the outputs are the data behind them.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import market, panel, study, tweets
from .econometrics import ConstantColumnError, InsufficientDataError
from .ingest import IngestReport, iso_date, numbered_lines
from .sentiment import SentimentLexicon, load_lexicon
from .series import DailySeries, pct_change

DATA_DIR_ENV = "PUNK_HEDONICS_DATA_DIR"


class ConfigError(ValueError):
    pass


def _keyword_filter(text: str) -> tweets.KeywordFilter:
    return tweets.KeywordFilter(tuple(k.strip().lower() for k in text.split(",") if k.strip()))


def _setting(default, parse, *, flag: bool = False, input_path: bool = False):
    """A run setting: ``parse`` turns its config text, and its flag's value
    when it has a flag, into the value; an input path resolves against the
    data directory."""
    return field(default=default,
                 metadata={"parse": parse, "flag": flag, "input_path": input_path})


@dataclass
class RunConfig:
    """The run settings.  Each field is a config key of the same name, and
    ``--<key with dashes>`` overrides it where its setting has a flag."""
    tweet_corpus: Path | None = _setting(None, Path, input_path=True)
    keyword_corpus: Path | None = _setting(None, Path, input_path=True)
    sales: Path | None = _setting(None, Path, input_path=True)
    gas: Path | None = _setting(None, Path, input_path=True)
    fx: Path | None = _setting(None, Path, input_path=True)
    lexicon: Path | None = _setting(None, Path, input_path=True)
    output_dir: Path = _setting(Path("out"), Path, flag=True)
    split_date: dt.date = _setting(study.DEFAULT_SPLIT_DATE, iso_date, flag=True)
    window_start: dt.date = _setting(tweets.STUDY_WINDOW_START, iso_date, flag=True)
    window_end: dt.date = _setting(tweets.STUDY_WINDOW_END, iso_date, flag=True)
    correlation_threshold: float = _setting(study.DEFAULT_CORRELATION_THRESHOLD, float,
                                            flag=True)
    max_adf_lag: int | None = _setting(None, int, flag=True)
    language: str = _setting("en", str, flag=True)
    keywords: tweets.KeywordFilter = _setting(tweets.KeywordFilter(tweets.DEFAULT_KEYWORDS),
                                              _keyword_filter)

    def check_settings(self) -> None:
        """Reject a setting no run can use, before any output is written."""
        if not 0 < self.correlation_threshold <= 1:
            raise ConfigError("correlation_threshold must be in (0, 1], "
                              f"got {self.correlation_threshold}")
        if self.max_adf_lag is not None and self.max_adf_lag < 0:
            raise ConfigError(f"max_adf_lag must be >= 0, got {self.max_adf_lag}")
        try:
            study.default_windows(self.window_start, self.window_end, self.split_date)
        except OverflowError:   # a window bound's next or previous day leaves date's range
            raise ConfigError("window_end and split_date must lie within "
                              "0001-01-02..9999-12-30") from None

    def require(self, *names: str) -> None:
        for name in names:
            path = getattr(self, name)
            if path is None:
                raise ConfigError(f"config key {name!r} is required for this command")
            if not Path(path).is_file():
                raise ConfigError(f"{name} file not found: {path}")


_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}
_FLAG_KEYS = [name for name, setting in _SETTINGS.items() if setting.metadata["flag"]]


def parse_config_file(path: Path, data_dir: Path | None = None) -> RunConfig:
    """Parse ``key = value`` lines, each ended by ``"\\n"`` alone; '#'
    starts a comment.

    Relative input paths are resolved against --data-dir, else the
    PUNK_HEDONICS_DATA_DIR environment variable, else the config file's
    own directory.
    """
    if data_dir is None:
        env = os.environ.get(DATA_DIR_ENV)
        data_dir = Path(env) if env else path.parent
    config = RunConfig()
    with open(path, "rb") as fh:
        for lineno, raw in numbered_lines(
                fh, lambda number, reason: ConfigError(f"{path}:{number}: {reason}")):
            raw = raw.rstrip("\n\r")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            setting = _SETTINGS.get(key)
            if setting is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                parsed = setting.metadata["parse"](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            setattr(config, key,
                    data_dir / parsed if setting.metadata["input_path"] else parsed)
    return config


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_rejects(path: Path, report: IngestReport) -> None:
    _write_csv(path, ["row_number", "reason"],
               [[str(n), reason] for n, reason in report.rejects])


class RunInputs:
    """One run's inputs, each read at most once, when first used; reading
    one writes its rejects file and records its warnings for the run."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.warnings: list[str] = []

    def read(self, key: str, reader, **options):
        """``reader(file, **options)`` on the file at config key ``key``,
        opened as a buffered binary file that the reader streams and
        consumes; a ValueError it raises is prefixed with the file's path."""
        path = getattr(self.config, key)
        with open(path, "rb") as fh:
            try:
                return reader(fh, **options)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None

    def read_tweets(self, which: str, rejects_name: str) -> tweets.Tweets:
        """The corpus at config key ``which``; its rejects go to ``rejects_name``."""
        config = self.config
        path = getattr(config, which)
        corpus, report = self.read(
            which, tweets.ingest_tweets, language_filter=config.language,
            window_start=config.window_start, window_end=config.window_end)
        _write_rejects(config.output_dir / rejects_name, report)
        if report.out_of_window:
            self.warnings.append(
                f"{path}: {report.out_of_window} rows outside the study window dropped")
        return corpus

    @cached_property
    def lexicon(self) -> SentimentLexicon:
        return self.read("lexicon", load_lexicon)

    @cached_property
    def sentiment(self) -> DailySeries:
        """Daily mean compound of the tweet corpus, which is not kept."""
        corpus = self.read_tweets("tweet_corpus", "tweet_rejects.csv")
        return tweets.daily_mean_sentiment(corpus, self.lexicon)

    @cached_property
    def sales(self) -> market.Sales:
        sales, report = self.read("sales", market.ingest_sales)
        _write_rejects(self.config.output_dir / "sales_rejects.csv", report)
        return sales


def cmd_score(inputs: RunInputs) -> None:
    """Daily mean sentiment plus the sign distribution over observed days."""
    inputs.config.require("tweet_corpus", "lexicon")
    out = inputs.config.output_dir
    daily = inputs.sentiment
    _write_csv(out / "daily_sentiment.csv", ["date", "value"],
               [[d.isoformat(), _fmt(v)]
                for d, v in zip(daily.days.tolist(), daily.values.tolist())])
    values = daily.values
    distribution = [("positive", np.count_nonzero(values > 0)),
                    ("negative", np.count_nonzero(values < 0)),
                    ("neutral", np.count_nonzero(values == 0))]
    _write_csv(out / "sentiment_distribution.csv", ["sign", "day_count"],
               [[sign, str(count)] for sign, count in distribution])
    if not daily:
        inputs.warnings.append("no data: tweet corpus is empty after filtering")


def cmd_keywords(inputs: RunInputs) -> None:
    """Keyword frequencies and per-keyword mean sentiment."""
    config = inputs.config
    config.require("keyword_corpus", "lexicon")
    out = config.output_dir
    corpus = inputs.read_tweets("keyword_corpus", "keyword_rejects.csv")
    freq, hits = tweets.keyword_frequency(corpus, config.keywords)
    _write_csv(out / "keyword_frequency.csv", ["keyword", "count"],
               [[kw, str(freq[kw])] for kw in config.keywords.keywords])
    sentiments = tweets.keyword_sentiment(hits, config.keywords, inputs.lexicon)
    _write_csv(out / "keyword_sentiment.csv", ["keyword", "mean_compound"],
               [[kw, "" if sentiments[kw] is None else _fmt(sentiments[kw])]
                for kw in config.keywords.keywords])


def cmd_regress(inputs: RunInputs) -> None:
    """Panel build, stationarity screen, 3 x 4 regression grid, reports."""
    config = inputs.config
    config.require("tweet_corpus", "lexicon", "sales", "gas", "fx")
    out = config.output_dir
    sentiment = inputs.sentiment
    day = inputs.sales["day"]
    in_window = ((day >= np.datetime64(config.window_start))
                 & (day <= np.datetime64(config.window_end)))
    sales = inputs.sales if in_window.all() else inputs.sales.select(in_window)
    gas = inputs.read("gas", market.ingest_gas)
    fx = inputs.read("fx", market.ingest_fx)
    for key, series in (("gas", gas), ("fx", fx)):
        inputs.warnings += [f"{getattr(config, key)}: implausible value {value!r} on {day}: "
                            "over 10 times or under 1/10 of each neighbouring day's"
                            for day, value in market.implausible_days(series)]
    active, volume = market.daily_aggregates(sales, fx)
    changes = {}        # series name -> (relative changes, gap days)
    for name, series in (("active_wallets", active), ("sales_volume", volume), ("fx", fx)):
        try:
            changes[name] = pct_change(series)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    (active_pct, _), (volume_pct, _), (fx_pct, _) = changes.values()
    sale_panel, coverage = panel.build_panel(sales, sentiment, active_pct, volume_pct, gas,
                                             fx_pct, fx, market.rarity_score(sales))
    with open(out / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        panel.write_panel_csv(sale_panel, fh)

    screen = panel.stationarity_screen(sale_panel, max_lag=config.max_adf_lag)
    for variable, entry in screen.items():
        if "skip_reason" in entry:
            inputs.warnings.append(
                f"stationarity screen of {variable} skipped: {entry['skip_reason']}")
    windows = study.default_windows(config.window_start, config.window_end,
                                    config.split_date)
    doc = study.run_suite(sale_panel, windows)
    skipped = doc["skipped_windows"]
    inputs.warnings += [f"window {w.label} skipped: {skipped[w.label]}"
                        for w in windows if w.label in skipped]
    doc["panel_coverage"] = {
        "total_sales": coverage.total_sales,
        "rows_emitted": coverage.rows_emitted,
        "drop_counts": dict(sorted(coverage.drop_counts.items())),
        "pct_change_gaps": {name: len(gaps) for name, (_, gaps) in changes.items()},
    }
    doc["stationarity"] = screen
    try:
        doc["correlation_precheck"] = study.correlation_precheck(
            sale_panel, study.model_specs()[-1], threshold=config.correlation_threshold)
    except (ConstantColumnError, InsufficientDataError) as exc:
        doc["correlation_precheck"] = {"skip_reason": str(exc)}
        inputs.warnings.append(f"correlation precheck skipped: {exc}")
    with open(out / "suite.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    with open(out / "tables.txt", "w", encoding="utf-8") as fh:
        for window in windows:
            if window.label in skipped:
                fh.write(f"Window {window.label}: skipped ({skipped[window.label]})\n\n")
                continue
            fh.write(_format_window_table(doc["results"], window.label))
            fh.write("\n")

    _write_csv(out / "lollipop.csv",
               ["regressor", "coefficient", "stars", "model_tag"],
               _lollipop_rows(doc["results"], windows))


def _format_window_table(results: dict[str, dict], label: str) -> str:
    """Text table in the four-column nested-model layout: coefficient with
    stars, standard error in parentheses beneath, fit statistics below."""
    fits = {mid: results[f"{label}.{mid}"] for mid in (1, 2, 3, 4)}
    order = fits[4]["names"]
    name_width = max(len(study.REGRESSOR_LABELS[n]) for n in order) + 2
    col = 14
    lines = [f"Window {label}    Dependent Variable: log(USD Price)"]
    header = " " * name_width + "".join(f"({mid})".rjust(col) for mid in (1, 2, 3, 4))
    lines.append(header)
    for name in order:
        coef_cells, se_cells = [], []
        for mid in (1, 2, 3, 4):
            fit = fits[mid]
            if name in fit["names"]:
                i = fit["names"].index(name)
                stars = "*" * fit["stars"][i]
                coef_cells.append(f"{fit['coefficients'][i]:.4f}{stars}".rjust(col))
                se_cells.append(f"({fit['standard_errors'][i]:.4f})".rjust(col))
            else:
                coef_cells.append(" " * col)
                se_cells.append(" " * col)
        lines.append(study.REGRESSOR_LABELS[name].ljust(name_width) + "".join(coef_cells))
        lines.append(" " * name_width + "".join(se_cells))
    lines.append("R^2".ljust(name_width)
                 + "".join(f"{fits[mid]['r2']:.4f}".rjust(col) for mid in (1, 2, 3, 4)))
    lines.append("Adjusted R^2".ljust(name_width)
                 + "".join(f"{fits[mid]['adj_r2']:.4f}".rjust(col) for mid in (1, 2, 3, 4)))
    lines.append("N".ljust(name_width)
                 + "".join(str(fits[mid]["n_obs"]).rjust(col) for mid in (1, 2, 3, 4)))
    lines.append("Standard errors in parentheses. * p<0.1, ** p<0.05, *** p<0.01.")
    return "\n".join(lines) + "\n"


def _lollipop_rows(results: dict[str, dict],
                   windows: tuple[study.WindowSpec, ...]) -> list[list[str]]:
    """Coefficient/stars rows for the two comparison charts: with vs
    without sentiment (models 3 and 4, pre-split window) and model 4
    before vs after the split.  The split is named by its ISO date, or
    by its year alone when it falls on 1 January."""
    before, after = windows[0].label, windows[1].label
    split_name = windows[1].start.isoformat().removesuffix("-01-01")
    comparisons = [
        (f"{before}.3", f"{before}.without_sentiment"),
        (f"{before}.4", f"{before}.with_sentiment"),
        (f"{before}.4", f"before_{split_name}"),
        (f"{after}.4", f"after_{split_name}"),
    ]
    rows = []
    for key, tag in comparisons:
        fit = results.get(key)
        if fit is None:
            continue
        for name, coefficient, stars in zip(fit["names"], fit["coefficients"], fit["stars"]):
            if name != study.INTERCEPT:
                rows.append([name, _fmt(coefficient), str(stars), tag])
    return rows


def cmd_heatmap(inputs: RunInputs) -> None:
    """Gender x skin-tone counts and shares over the accepted sales."""
    inputs.config.require("sales")
    counts = market.attribute_distribution(inputs.sales).tolist()
    total = len(inputs.sales)
    rows = [[gender.value, skin.value, str(n), f"{100 * (n / total if total else 0.0):.1f}"]
            for gender, row in zip(market.GENDERS, counts)
            for skin, n in zip(market.SKIN_TONES, row)]
    _write_csv(inputs.config.output_dir / "heatmap.csv",
               ["gender", "skin_tone", "count", "share_pct"], rows)


COMMANDS = {
    "score": cmd_score,
    "keywords": cmd_keywords,
    "regress": cmd_regress,
    "heatmap": cmd_heatmap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punk-hedonics",
        description="Sentiment scoring, market panel construction, and the "
                    "hedonic regression suite, emitting plot-ready data files.")
    parser.add_argument("--config", required=True, type=Path, help="key = value config file")
    parser.add_argument("--data-dir", type=Path, default=None,
                        help=f"prefix for relative input paths (default ${DATA_DIR_ENV} "
                             "or the config file directory)")
    for name in _FLAG_KEYS:
        parser.add_argument("--" + name.replace("_", "-"),
                            type=_SETTINGS[name].metadata["parse"], default=None)
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    inputs = None
    try:
        if not args.config.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        config = parse_config_file(args.config, data_dir=args.data_dir)
        for name in _FLAG_KEYS:
            value = getattr(args, name)
            if value is not None:
                setattr(config, name, value)
        config.check_settings()
        config.output_dir.mkdir(parents=True, exist_ok=True)
        inputs = RunInputs(config)
        for name in COMMANDS if args.command == "all" else [args.command]:
            COMMANDS[name](inputs)
        code = 0
    except (OSError, ValueError) as exc:      # every input and config error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    for warning in inputs.warnings if inputs is not None else ():  # a failed run's too
        print(f"warning: {warning}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
