import csv
import datetime as dt
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import builtin_only, write_synthetic_dataset
from panel_csv import read_panel_csv
from punk_hedonics import cli, market, panel, study, tweets
from punk_hedonics.cli import (ConfigError, main, parse_config_file)

HEADER = "id,timestamp,text,lang"


def write_config(tmp_path, **extra):
    lines = ["lexicon = lexicon.txt"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


NONHUMAN = ("Alien", "Ape", "Zombie")


def drop_sales(root, predicate):
    """Remove the sales rows for which predicate(date, skin_tone) holds."""
    path = root / "sales.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    kept = [r for r in rows if not predicate(r.split(",")[1], r.split(",")[3])]
    path.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")


def keep_first_sales(root, days):
    """Keep only the first sale of each of the first ``days`` sale days."""
    path = root / "sales.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    first = {}
    for row in rows:
        first.setdefault(row.split(",")[1], row)
    kept = [first[day] for day in sorted(first)[:days]]
    path.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_regress(root, edit=None):
    """Write the synthetic dataset under ``root``, apply ``edit`` to it,
    run ``regress`` and return the output directory."""
    config = write_synthetic_dataset(root)
    if edit is not None:
        edit(root)
    out = root / "out"
    assert main(["--config", str(config), "--output-dir", str(out), "regress"]) == 0
    return out


@pytest.fixture(scope="module")
def regress_out(tmp_path_factory):
    return run_regress(tmp_path_factory.mktemp("regress"))


@pytest.fixture(scope="module")
def one_row_out(tmp_path_factory):
    return run_regress(tmp_path_factory.mktemp("one_row"),
                       lambda root: keep_first_sales(root, 2))


def test_runs_as_python_dash_m():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "punk_hedonics", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: punk-hedonics")


class TestConfig:
    def test_parse_and_path_resolution(self, tmp_path):
        (tmp_path / "lexicon.txt").write_text("good\t1.0\n")
        cfg = parse_config_file(write_config(tmp_path, split_date="2021-06-01",
                                             correlation_threshold="0.4",
                                             keywords="ape, zombie"))
        assert cfg.lexicon == tmp_path / "lexicon.txt"
        assert cfg.split_date == dt.date(2021, 6, 1)
        assert cfg.correlation_threshold == 0.4
        assert cfg.keywords.keywords == ("ape", "zombie")

    def test_env_var_prefix(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        monkeypatch.setenv("PUNK_HEDONICS_DATA_DIR", str(data))
        cfg = parse_config_file(write_config(tmp_path))
        assert cfg.lexicon == data / "lexicon.txt"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    @pytest.mark.parametrize("data, line", [
        (b"\xff = 1\n", 1), (b"language = en\n# caf\xc3\xa9\r\nkeywords = ape,\xe9\n", 3),
        (b"language = en\xc2\x85language = \xc3", 1),   # U+0085 does not end a line
    ])
    def test_config_that_is_not_utf8_names_its_file_and_line(self, tmp_path, capsys,
                                                            data, line):
        config = tmp_path / "config.txt"
        config.write_bytes(data)
        assert main(["--config", str(config), "score"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:{line}: not valid UTF-8 (byte 0x"), err

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\f", "\v", "\x1c",
                                           "\x1d", "\x1e", "\r"])
    def test_comment_holding_a_line_separator_is_ignored(self, synthetic_dataset, tmp_path,
                                                         capsys, separator):
        # Only "\n" ends a config line, as in every other input.
        with open(synthetic_dataset, "a", encoding="utf-8", newline="") as fh:
            fh.write(f"# window note{separator}see ticket\nlanguage = es # {separator} page\n")
        assert parse_config_file(synthetic_dataset).language == "es"
        assert main(["--config", str(synthetic_dataset), "--output-dir",
                     str(tmp_path / "out"), "heatmap"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_required_input_is_fatal(self, tmp_path, capsys):
        config = write_config(tmp_path)  # lexicon.txt never written
        rc = main(["--config", str(config), "--output-dir",
                   str(tmp_path / "out"), "score"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_is_fatal(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.txt"), "score"]) == 1

    def test_readme_config_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Keys:", 1)[1].split("\n\n", 2)[1]
        documented = {key for line in table.splitlines()[2:]
                      for key in re.findall(r"`(\w+)`", line.split("|")[1])}
        assert documented == {setting.name for setting in fields(cli.RunConfig)}
        flag_list = re.search(r"which overrides the\s+config value:(.*?)\.", readme, re.S)[1]
        documented_flags = set(re.findall(r"`(--[\w-]+)`", flag_list))
        setting_flags = set(re.findall(r"--[\w-]+", cli.build_parser().format_usage()))
        assert documented_flags == setting_flags - {"--config", "--data-dir"}
        assert documented_flags == {"--" + setting.name.replace("_", "-")
                                    for setting in fields(cli.RunConfig)
                                    if setting.metadata["flag"]}

    @pytest.mark.parametrize("key", ["split_date", "window_start", "window_end"])
    @pytest.mark.parametrize("value", ["20210601", "2021-W22-2"])
    def test_date_setting_not_yyyy_mm_dd_is_an_error(self, synthetic_dataset, tmp_path,
                                                     capsys, key, value):
        # Python 3.11's date.fromisoformat reads both; 3.10's reads neither.
        lines = len(synthetic_dataset.read_text(encoding="utf-8").splitlines())
        with open(synthetic_dataset, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]) == 1
        assert capsys.readouterr().err == (f"error: {synthetic_dataset}:{lines + 1}: "
                                           f"Invalid isoformat string: {value!r}\n")
        with pytest.raises(SystemExit) as info:
            main(["--config", str(synthetic_dataset), "--" + key.replace("_", "-"), value,
                  "all"])
        assert info.value.code == 2
        assert f"invalid iso_date value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    FLAG_VALUES = {"output_dir": "runs/a", "split_date": "2021-06-01",
                   "window_start": "2018-02-01", "window_end": "2022-03-31",
                   "correlation_threshold": "0.25", "max_adf_lag": "3", "language": "es"}

    @pytest.mark.parametrize("key", [setting.name for setting in fields(cli.RunConfig)
                                     if setting.metadata["flag"]])
    def test_flag_parses_as_its_config_key(self, tmp_path, key):
        text = self.FLAG_VALUES[key]
        config = tmp_path / "config.txt"
        config.write_text(f"{key} = {text}\n", encoding="utf-8")
        args = cli.build_parser().parse_args(
            ["--config", str(config), "--" + key.replace("_", "-"), text, "all"])
        value = getattr(parse_config_file(config), key)
        assert getattr(args, key) == value != getattr(cli.RunConfig(), key)
        assert type(getattr(args, key)) is type(value)


    @pytest.mark.parametrize("key, value, message", [
        ("correlation_threshold", "nan", "correlation_threshold must be in (0, 1], got nan"),
        ("correlation_threshold", "0", "correlation_threshold must be in (0, 1], got 0.0"),
        ("correlation_threshold", "1.5", "correlation_threshold must be in (0, 1], got 1.5"),
        ("max_adf_lag", "-3", "max_adf_lag must be >= 0, got -3"),
    ])
    @pytest.mark.parametrize("form", ["config", "flag"])
    def test_bad_numeric_setting_is_an_error_before_any_output(
            self, synthetic_dataset, tmp_path, capsys, key, value, message, form):
        out = tmp_path / "out"
        args = ["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]
        if form == "config":
            with open(synthetic_dataset, "a", encoding="utf-8") as fh:
                fh.write(f"{key} = {value}\n")
        else:
            args[:0] = ["--" + key.replace("_", "-"), value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"split_date": "2030-01-01"}, "window 2030-2022: start must precede end"),
        ({"split_date": "2022-10-31"},
         "window 2022-10-31_2022-10-31: start must precede end"),
        ({"window_start": "2021-06-01", "window_end": "2021-01-01"},
         "window 2021-06-01_2020-12-31: start must precede end"),
        ({"window_end": "9999-12-31"},
         "window_end and split_date must lie within 0001-01-02..9999-12-30"),
        ({"split_date": "0001-01-01"},
         "window_end and split_date must lie within 0001-01-02..9999-12-30"),
    ])
    @pytest.mark.parametrize("form", ["config", "flag"])
    def test_bad_window_setting_is_an_error_before_any_output(
            self, synthetic_dataset, tmp_path, capsys, overrides, message, form):
        out = tmp_path / "out"
        args = ["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]
        for key, value in overrides.items():
            if form == "config":
                with open(synthetic_dataset, "a", encoding="utf-8") as fh:
                    fh.write(f"{key} = {value}\n")
            else:
                args[:0] = ["--" + key.replace("_", "-"), value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestScore:
    def write_inputs(self, tmp_path, tweet_rows):
        (tmp_path / "lexicon.txt").write_text("good\t2.0\nbad\t-2.0\n")
        (tmp_path / "tweets.csv").write_text("\n".join([HEADER] + tweet_rows) + "\n")
        return write_config(tmp_path, tweet_corpus="tweets.csv")

    def test_distribution_counts_days(self, tmp_path):
        rows = ["1,2021-05-01T10:00:00+00:00,good,en",
                "2,2021-05-02T10:00:00+00:00,bad,en",
                "3,2021-05-03T10:00:00+00:00,good good,en"]
        config = self.write_inputs(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out), "score"]) == 0
        daily = read_csv(out / "daily_sentiment.csv")
        assert daily[0] == ["date", "value"]
        assert len(daily) == 4
        dist = dict((r[0], int(r[1])) for r in read_csv(out / "sentiment_distribution.csv")[1:])
        assert dist == {"positive": 2, "negative": 1, "neutral": 0}
        assert sum(dist.values()) == len(daily) - 1

    def test_empty_corpus_headers_only_warning_exit_zero(self, tmp_path, capsys):
        config = self.write_inputs(tmp_path, [])
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out), "score"]) == 0
        assert read_csv(out / "daily_sentiment.csv") == [["date", "value"]]
        assert "no data" in capsys.readouterr().err

    def test_round_trip_precision(self, tmp_path):
        rows = ["1,2021-05-01T10:00:00+00:00,good bad good,en"]
        config = self.write_inputs(tmp_path, rows)
        out = tmp_path / "out"
        main(["--config", str(config), "--output-dir", str(out), "score"])
        from punk_hedonics.sentiment import compound_only, load_lexicon
        lex = load_lexicon((tmp_path / "lexicon.txt").read_text())
        value = float(read_csv(out / "daily_sentiment.csv")[1][1])
        assert value == compound_only(lex, "good bad good")


class TestKeywords:
    def test_frequency_and_absent_sentiment(self, tmp_path):
        (tmp_path / "lexicon.txt").write_text("good\t2.0\n")
        rows = ["1,2021-05-01T10:00:00+00:00,male punk,en",
                "2,2021-05-01T11:00:00+00:00,Male! good,en"]
        (tmp_path / "kw.csv").write_text("\n".join([HEADER] + rows) + "\n")
        config = write_config(tmp_path, keyword_corpus="kw.csv",
                              keywords="male,female")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out),
                     "keywords"]) == 0
        freq = read_csv(out / "keyword_frequency.csv")
        assert freq == [["keyword", "count"], ["male", "2"], ["female", "0"]]
        sent = read_csv(out / "keyword_sentiment.csv")
        assert sent[2] == ["female", ""]  # absent marker, never 0
        assert float(sent[1][1]) > 0


    @pytest.mark.parametrize("keywords, message", [
        ("dark-skinned", "keyword 'dark-skinned' must be one lowercase word"),
        ("punk looks", "keyword 'punk looks' must be one lowercase word"),
        ("s,ſ", "keyword 's' also matches keyword 'ſ'"),
    ])
    def test_keyword_the_screen_cannot_match_exactly_is_an_error_before_any_output(
            self, tmp_path, capsys, keywords, message):
        (tmp_path / "lexicon.txt").write_text("good\t2.0\n")
        (tmp_path / "kw.csv").write_text(HEADER + "\n1,2021-05-01T10:00:00Z,punk,en\n")
        config = write_config(tmp_path, keyword_corpus="kw.csv", keywords=keywords)
        assert main(["--config", str(config), "--output-dir", str(tmp_path / "out"),
                     "keywords"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}:3: {message}")
        assert not (tmp_path / "out").exists()


class TestHeatmap:
    def test_counts_and_shares(self, tmp_path):
        sales = ["punk_id,date,price_eth,skin_tone,gender,buyer,seller",
                 "1,2021-05-01,1.0,Dark,Male,a,b",
                 "2,2021-05-01,1.0,Dark,Male,a,b",
                 "3,2021-05-01,1.0,Albino,Female,a,b",
                 "4,2021-05-01,1.0,Ape,Male,a,b"]
        (tmp_path / "sales.csv").write_text("\n".join(sales) + "\n")
        (tmp_path / "lexicon.txt").write_text("good\t1.0\n")
        config = write_config(tmp_path, sales="sales.csv")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out),
                     "heatmap"]) == 0
        rows = read_csv(out / "heatmap.csv")
        assert rows[0] == ["gender", "skin_tone", "count", "share_pct"]
        assert len(rows) == 1 + 14  # 2 genders x 7 skins
        grid = {(r[0], r[1]): (int(r[2]), r[3]) for r in rows[1:]}
        assert grid[("Male", "Dark")] == (2, "50.0")
        assert grid[("Female", "Albino")] == (1, "25.0")
        assert sum(count for count, _ in grid.values()) == 4

    def test_empty_sales_zero_grid(self, tmp_path):
        (tmp_path / "sales.csv").write_text(
            "punk_id,date,price_eth,skin_tone,gender,buyer,seller\n")
        (tmp_path / "lexicon.txt").write_text("good\t1.0\n")
        config = write_config(tmp_path, sales="sales.csv")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out),
                     "heatmap"]) == 0
        rows = read_csv(out / "heatmap.csv")
        assert len(rows) == 1 + 14
        assert all(r[2:] == ["0", "0.0"] for r in rows[1:])


def table_stars(text):
    """{(window, model id, regressor): stars} read off the coefficient rows
    of tables.txt, whose four model cells are 14 characters wide each."""
    names = {label: name for name, label in study.REGRESSOR_LABELS.items()}
    stars, window = {}, None
    for line in text.splitlines():
        if line.startswith("Window "):
            window = line.split()[1]
            continue
        cells_at = len(line) - 4 * 14
        label = line[:cells_at].strip()
        if label not in names:
            continue
        for model_id, start in enumerate(range(cells_at, len(line), 14), start=1):
            cell = line[start:start + 14].strip()
            if cell:
                stars[(window, model_id, names[label])] = len(cell) - len(cell.rstrip("*"))
    return stars


class TestRegress:
    def test_full_pipeline_outputs(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset),
                     "--output-dir", str(out), "regress"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["results"]) == 12
        coverage = doc["panel_coverage"]
        assert coverage["rows_emitted"] <= coverage["total_sales"]
        assert "stationarity" in doc and "correlation_precheck" in doc
        # Stars in the text tables must match the JSON p-values.
        tables = (out / "tables.txt").read_text()
        assert "Dependent Variable: log(USD Price)" in tables
        want = {(key.rsplit(".", 1)[0], int(key.rsplit(".", 1)[1]), name): stars
                for key, fit in doc["results"].items()
                for name, stars in zip(fit["names"], fit["stars"])}
        assert table_stars(tables) == want
        assert table_stars(tables.replace("*", "", 1)) != want
        lollipop = read_csv(out / "lollipop.csv")
        assert lollipop[0] == ["regressor", "coefficient", "stars", "model_tag"]
        tags = {r[3] for r in lollipop[1:]}
        assert tags == {"2017-2021.without_sentiment", "2017-2021.with_sentiment",
                        "before_2021", "after_2021"}

    def test_stars_consistent_with_p_values(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        main(["--config", str(synthetic_dataset), "--output-dir", str(out),
              "regress"])
        from punk_hedonics.econometrics import significance_stars
        doc = json.loads((out / "suite.json").read_text())
        for cell in doc["results"].values():
            assert cell["stars"] == [significance_stars(p) for p in cell["p_values"]]

    def test_suite_json_floats_are_the_repr_of_the_fits(self, synthetic_dataset, tmp_path,
                                                        monkeypatch):
        fits = []
        ols_fit = study.ols_fit

        def kept(*args, **kwargs):
            fits.append(ols_fit(*args, **kwargs))
            return fits[-1]
        monkeypatch.setattr(study, "ols_fit", kept)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "regress"]) == 0
        text = (out / "suite.json").read_text()
        suite = json.loads(text)
        results = suite["results"]
        # run_suite fits each window's models in turn, none skipped here.
        keys = [f"{window['label']}.{model_id}" for window in suite["windows"]
                for model_id in (1, 2, 3, 4)]
        assert len(fits) == len(keys) == len(results)
        for key, fit in zip(keys, fits):
            doc = results[key]
            for name in ("r2", "adj_r2"):
                assert f'"{name}": {float(fit[name])!r},' in text
                assert doc[name] == fit[name]
            assert doc["coefficients"] == fit["coefficients"]

    def test_panel_csv_round_trips(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        main(["--config", str(synthetic_dataset), "--output-dir", str(out),
              "regress"])
        rows = read_panel_csv((out / "panel.csv").read_text())
        doc = json.loads((out / "suite.json").read_text())
        assert len(rows) == doc["panel_coverage"]["rows_emitted"]

    def test_non_default_split_date_names_windows_and_tags(self, synthetic_dataset,
                                                            tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "--split-date", "2020-11-01", "regress"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert [w["label"] for w in doc["windows"]] == ["2017-2020", "2020-2022",
                                                        "2017-2022"]
        assert doc["windows"][0]["end"] == "2020-10-31"
        assert {key.split(".")[0] for key in doc["results"]} == {
            "2017-2020", "2020-2022", "2017-2022"}
        assert "skip_reason" not in doc["structural_change"]
        tags = {r[3] for r in read_csv(out / "lollipop.csv")[1:]}
        assert tags == {"2017-2020.without_sentiment", "2017-2020.with_sentiment",
                        "before_2020-11-01", "after_2020-11-01"}

    def test_skipped_pre_split_window_gives_structural_change_reason(
            self, synthetic_dataset, tmp_path, capsys):
        drop_sales(synthetic_dataset.parent,
                   lambda date, skin: date < "2021-01-01" and skin in NONHUMAN)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert list(doc["skipped_windows"]) == ["2017-2021"]
        reason = doc["structural_change"]["skip_reason"]
        assert reason.startswith("window 2017-2021 skipped: ")
        assert "warning: window 2017-2021 skipped" in capsys.readouterr().err

    def test_no_nonhuman_sale_skips_precheck_and_exits_zero(self, synthetic_dataset,
                                                            tmp_path, capsys):
        drop_sales(synthetic_dataset.parent, lambda date, skin: skin in NONHUMAN)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["correlation_precheck"] == {
            "skip_reason": "column 'x_nonhuman' is constant"}
        assert len(doc["skipped_windows"]) == 3
        assert "warning: correlation precheck skipped" in capsys.readouterr().err
        for name in ("tables.txt", "lollipop.csv", "heatmap.csv"):
            assert (out / name).is_file(), name


    def test_singular_adf_design_is_a_stationarity_skip(self, synthetic_dataset, tmp_path,
                                                        capsys):
        """Gas constant but on its last day: the ADF lag search picks a lag
        whose refit is singular, a skip reason rather than an abort."""
        gas = synthetic_dataset.parent / "gas.csv"
        header, *rows = gas.read_text(encoding="utf-8").splitlines()
        days = [row.split(",")[0] for row in rows]
        gas.write_text("\n".join([header, *(f"{d},50.0" for d in days[:-1]),
                                  f"{days[-1]},60.0"]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        reason = doc["stationarity"]["gas_price_gwei"]["skip_reason"]
        assert reason.startswith("design matrix is rank deficient in columns: ")
        assert (f"warning: stationarity screen of gas_price_gwei skipped: {reason}"
                in capsys.readouterr().err)
        assert all("statistic" in doc["stationarity"][name]
                   for name in doc["stationarity"] if name != "gas_price_gwei")
        for name in ("tables.txt", "lollipop.csv", "heatmap.csv"):
            assert (out / name).is_file(), name

    def test_gas_units_skip_no_window(self, synthetic_dataset, tmp_path, capsys):
        """Gas in units 1e12 times larger: no window and no ADF is rank
        deficient, and nothing warns, as a column's units decide no rank."""
        gas = synthetic_dataset.parent / "gas.csv"
        header, *rows = gas.read_text(encoding="utf-8").splitlines()
        gas.write_text("\n".join([header, *(f"{d},{float(v) * 1e12!r}" for d, v in
                                            (row.split(",") for row in rows))]) + "\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["skipped_windows"] == {}
        assert len(doc["results"]) == 12
        assert all("statistic" in entry for entry in doc["stationarity"].values())
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gas_value_whose_adf_fit_overflows_is_a_stationarity_skip(
            self, synthetic_dataset, tmp_path, capsys):
        """One gas day at 1e200: the ADF refit's RSS leaves the double range,
        a stated skip and a warning, not a statistic from an infinite RSS,
        and no numpy RuntimeWarning, which this test turns into an error."""
        gas = synthetic_dataset.parent / "gas.csv"
        text, edits = re.subn(r"(?m)^2020-09-05,.*$", "2020-09-05,1e200",
                              gas.read_text(encoding="utf-8"))
        assert edits == 1
        gas.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        reason = doc["stationarity"]["gas_price_gwei"]["skip_reason"]
        assert reason.startswith("non-finite fit in columns: level")
        assert capsys.readouterr().err == (
            implausible_warning(gas, "1e+200", "2020-09-05")
            + f"warning: stationarity screen of gas_price_gwei skipped: {reason}\n")
        assert doc["skipped_windows"] == {}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gas_day_whose_daily_sum_overflows_is_a_stationarity_skip(
            self, synthetic_dataset, tmp_path, capsys):
        """One gas day at 1e308, a day of four sales: the screen's sum of
        that day leaves the double range, a stated skip naming the day, and
        the two windows holding it, whose gas column of R overflows, are
        skipped; no numpy RuntimeWarning, and no NaN in suite.json."""
        sales = (synthetic_dataset.parent / "sales.csv").read_text(encoding="utf-8")
        assert sales.count(",2020-09-05,") == 4
        gas = synthetic_dataset.parent / "gas.csv"
        text, edits = re.subn(r"(?m)^2020-09-05,.*$", "2020-09-05,1e308",
                              gas.read_text(encoding="utf-8"))
        assert edits == 1
        gas.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        suite = (out / "suite.json").read_text()
        assert "NaN" not in suite and "Infinity" not in suite
        doc = json.loads(suite)
        reason = "daily sum overflows on 2020-09-05"
        assert doc["stationarity"]["gas_price_gwei"] == {"skip_reason": reason}
        skipped = "non-finite fit in columns: gas_price_gwei"
        assert doc["skipped_windows"] == {"2017-2021": skipped, "2017-2022": skipped}
        assert capsys.readouterr().err == (
            implausible_warning(gas, "1e+308", "2020-09-05")
            + f"warning: stationarity screen of gas_price_gwei skipped: {reason}\n"
            f"warning: window 2017-2021 skipped: {skipped}\n"
            f"warning: window 2017-2022 skipped: {skipped}\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rarity_whose_factor_overflows_skips_its_windows(
            self, synthetic_dataset, tmp_path, capsys):
        """A precomputed rarity of 1e308 on two sales: rarity's column of R
        leaves the double range, a non-finite fit and not a rank deficiency,
        and the correlation precheck stays finite."""
        sales = synthetic_dataset.parent / "sales.csv"
        header, *rows = sales.read_text(encoding="utf-8").splitlines()
        rows = [row + (",1e308" if i in (5, 6) else ",") for i, row in enumerate(rows)]
        sales.write_text("\n".join([header + ",rarity", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        suite = (out / "suite.json").read_text()
        assert "NaN" not in suite and "Infinity" not in suite
        doc = json.loads(suite)
        skipped = "non-finite fit in columns: rarity"
        assert doc["skipped_windows"] == {"2017-2021": skipped, "2017-2022": skipped}
        assert np.isfinite(doc["correlation_precheck"]["matrix"]).all()
        assert capsys.readouterr().err == (f"warning: window 2017-2021 skipped: {skipped}\n"
                                           f"warning: window 2017-2022 skipped: {skipped}\n")

    def test_one_row_panel_skips_precheck_and_exits_zero(self, synthetic_dataset, tmp_path,
                                                         capsys):
        """One sale on each of the first two days: pct_change drops the first
        day, which leaves a one-row panel, too short to correlate."""
        keep_first_sales(synthetic_dataset.parent, 2)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["panel_coverage"]["rows_emitted"] == 1
        assert doc["correlation_precheck"] == {
            "skip_reason": "columns must have length >= 2"}
        assert ("warning: correlation precheck skipped: columns must have length >= 2"
                in capsys.readouterr().err)
        for name in ("panel.csv", "tables.txt", "lollipop.csv", "heatmap.csv"):
            assert (out / name).is_file(), name

    @pytest.mark.parametrize("days", [0, 1])
    def test_fewer_than_two_sale_days_is_an_error_naming_the_series(
            self, synthetic_dataset, tmp_path, capsys, days):
        keep_first_sales(synthetic_dataset.parent, days)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out),
                     "all"]) == 1
        assert capsys.readouterr().err == (
            "error: active_wallets: pct_change needs at least 2 observations\n")
        assert not (out / "suite.json").exists()


def structural_change_of(sale_panel):
    suite = study.run_suite(sale_panel, study.default_windows())
    before, after = (suite["results"][f"{window['label']}.4"]
                     for window in suite["windows"][:2])
    return study.structural_change(before, after)


SUITE_BLOCKS = {
    "stationarity": panel.stationarity_screen,
    "correlation_precheck": lambda sale_panel: study.correlation_precheck(
        sale_panel, study.model_specs()[-1]),
    "structural_change": structural_change_of,
}


class TestSuiteBlocks:
    """Each block of suite.json is what its producer returns, as is."""

    @pytest.mark.parametrize("block", SUITE_BLOCKS)
    def test_block_is_its_producers_result(self, regress_out, block):
        sale_panel = read_panel_csv((regress_out / "panel.csv").read_text())
        result = SUITE_BLOCKS[block](sale_panel)
        assert result == json.loads((regress_out / "suite.json").read_text())[block]
        assert builtin_only(result)
        json.dumps(result, allow_nan=False)

    def test_fits_are_run_suites_result(self, regress_out):
        sale_panel = read_panel_csv((regress_out / "panel.csv").read_text())
        result = study.run_suite(sale_panel, study.default_windows())
        doc = json.loads((regress_out / "suite.json").read_text())
        assert list(result) == ["schema_version", "windows", "skipped_windows", "results",
                                "structural_change"] == list(doc)[:5]
        assert result == {key: doc[key] for key in result}
        assert builtin_only(result)
        json.dumps(result, allow_nan=False)

    def test_builtin_only_refuses_numpy_and_tuples(self):
        assert builtin_only({"a": [1, 2.5, True, "x", {"b": []}]})
        for value in (np.float64(1.0), np.bool_(True), np.int64(1), np.zeros(2), (1.0,),
                      {1: 1.0}, None):
            assert not builtin_only({"a": [value]}), value

    def test_readme_lists_the_keys_of_each_block(self, regress_out, one_row_out):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | holds | keys of each entry |\n", 1)[1].split("\n\n")[0]
        rows = [line.split("|")[1:4] for line in table.splitlines()[1:]]
        documented = {re.search(r"`(\w+)`", key)[1]: (holds, re.findall(r"`(\w+)`", keys))
                      for key, holds, keys in rows}
        for out in (regress_out, one_row_out):
            doc = json.loads((out / "suite.json").read_text())
            assert list(doc) == list(documented)
            for key, (holds, keys) in documented.items():
                block = doc[key]
                skip_allowed = "skip_reason" in holds
                if not keys or skip_allowed and list(block) == ["skip_reason"]:
                    continue
                entries = (block if type(block) is list
                           else block.values() if "→" in holds else [block])
                for entry in entries:
                    assert list(entry) == keys or (skip_allowed
                                                   and list(entry) == ["skip_reason"]), key
        # The one-row run shows each skip form the table names.
        doc = json.loads((one_row_out / "suite.json").read_text())
        assert "skip_reason" in doc["structural_change"]
        assert "skip_reason" in doc["correlation_precheck"]
        assert all(list(entry) == ["skip_reason"] for entry in doc["stationarity"].values())


def implausible_warning(path, value, day):
    """The stderr line of a gas or FX day far from each of its neighbours."""
    return (f"warning: {path}: implausible value {value} on {day}: "
            "over 10 times or under 1/10 of each neighbouring day's\n")


def replace_line(path, number, text):
    """Replace line ``number`` (1 is the header) of a CSV file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[number - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestBadMarketValues:
    """Non-finite or missing market values end in a reject with exit 0 or
    in error: with exit 1, never in a traceback."""

    def run_all(self, config, tmp_path):
        return main(["--config", str(config), "--output-dir", str(tmp_path / "out"), "all"])

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf"])
    def test_non_finite_price_is_a_reject(self, synthetic_dataset, tmp_path, price):
        sales = synthetic_dataset.parent / "sales.csv"
        header, first, *_ = sales.read_text(encoding="utf-8").splitlines()
        fields = first.split(",")
        fields[2] = price
        replace_line(sales, 2, ",".join(fields))
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        assert read_csv(tmp_path / "out" / "sales_rejects.csv") == [
            ["row_number", "reason"], ["2", "non-finite price_eth"]]

    def test_non_finite_rarity_is_a_reject(self, synthetic_dataset, tmp_path):
        sales = synthetic_dataset.parent / "sales.csv"
        header, *rows = sales.read_text(encoding="utf-8").splitlines()
        rows = [row + ("," if i != 3 else ",inf") for i, row in enumerate(rows)]
        sales.write_text("\n".join([header + ",rarity", *rows]) + "\n", encoding="utf-8")
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        assert read_csv(tmp_path / "out" / "sales_rejects.csv")[1:] == [
            ["5", "non-finite rarity"]]

    def test_non_positive_rarity_is_a_reject(self, synthetic_dataset, tmp_path):
        sales = synthetic_dataset.parent / "sales.csv"
        header, *rows = sales.read_text(encoding="utf-8").splitlines()
        given = {3: ",0", 5: ",-3", 6: ",0.5"}
        rows = [row + given.get(i, ",") for i, row in enumerate(rows)]
        sales.write_text("\n".join([header + ",rarity", *rows]) + "\n", encoding="utf-8")
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        assert read_csv(tmp_path / "out" / "sales_rejects.csv")[1:] == [
            ["5", "non-positive rarity"], ["7", "non-positive rarity"]]

    def test_usd_price_that_overflows_is_a_panel_drop(self, synthetic_dataset, tmp_path,
                                                      capsys):
        sales = synthetic_dataset.parent / "sales.csv"
        rows = sales.read_text(encoding="utf-8").splitlines()
        fields = rows[-1].split(",")
        fields[2] = "1e306"                 # times that day's close (~1,000 USD) is over 1.8e308
        replace_line(sales, len(rows), ",".join(fields))
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        coverage = json.loads((tmp_path / "out" / "suite.json").read_text())["panel_coverage"]
        assert coverage["drop_counts"]["finite usd price"] == 1
        assert "Warning" not in capsys.readouterr().err

    def test_usd_price_that_underflows_is_a_panel_drop(self, synthetic_dataset, tmp_path):
        sales = synthetic_dataset.parent / "sales.csv"
        rows = sales.read_text(encoding="utf-8").splitlines()
        fields = rows[-1].split(",")
        fields[2] = "5e-324"                # times a 0.4 USD close rounds to 0.0
        replace_line(sales, len(rows), ",".join(fields))
        fx = synthetic_dataset.parent / "fx.csv"
        fx_rows = fx.read_text(encoding="utf-8").splitlines()
        number = next(i for i, row in enumerate(fx_rows, start=1)
                      if row.startswith(fields[1] + ","))
        replace_line(fx, number, f"{fields[1]},0.4")
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        coverage = json.loads((tmp_path / "out" / "suite.json").read_text())["panel_coverage"]
        assert coverage["drop_counts"]["positive usd price"] == 1

    def test_fx_close_whose_change_overflows_is_a_counted_gap(self, synthetic_dataset,
                                                              tmp_path, capsys):
        """A close of 1e-307, which ingest accepts: the next day's FX change,
        from 1e-307 to about 1,000 USD, overflows, and so does its USD
        volume change.  Each is a pct_change gap, not an infinity in the
        panel, and the run ends with exit 0, the close's implausibility
        warning and no numpy warning."""
        fx = synthetic_dataset.parent / "fx.csv"
        day = fx.read_text(encoding="utf-8").splitlines()[100].split(",")[0]
        replace_line(fx, 101, f"{day},1e-307")
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        assert capsys.readouterr().err == implausible_warning(fx, "1e-307", day)
        doc = json.loads((tmp_path / "out" / "suite.json").read_text())
        assert doc["panel_coverage"]["pct_change_gaps"] == {
            "active_wallets": 0, "sales_volume": 1, "fx": 1}
        assert doc["skipped_windows"] == {}
        assert all("statistic" in entry for entry in doc["stationarity"].values())
        assert "inf" not in (tmp_path / "out" / "panel.csv").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fx_close_far_from_both_neighbours_warns_and_is_kept(self, synthetic_dataset,
                                                                 tmp_path, capsys):
        """A close of 1e-307 among closes near 1,000 USD: a warning naming
        the file, the day and the value, exit 0, and the row kept, so its
        sales' USD prices use it."""
        fx = synthetic_dataset.parent / "fx.csv"
        rows = fx.read_text(encoding="utf-8").splitlines()[1:]
        sale_days = {row[1] for row in read_csv(synthetic_dataset.parent / "sales.csv")}
        number, day = next((n, row.split(",")[0]) for n, row in enumerate(rows, start=2)
                           if 3 < n < len(rows) and row.split(",")[0] in sale_days)
        replace_line(fx, number, f"{day},1e-307")
        assert self.run_all(synthetic_dataset, tmp_path) == 0
        assert capsys.readouterr().err == implausible_warning(fx, "1e-307", day)
        with open(tmp_path / "out" / "panel.csv", encoding="utf-8", newline="") as fh:
            kept = [row for row in csv.DictReader(fh) if row["date"] == day]
        assert kept and all(float(row["log_usd_price"]) < -700 for row in kept)

    def test_sale_day_missing_from_fx_is_a_counted_drop(self, synthetic_dataset, tmp_path):
        """The day's sales lack fx_close, fx_pct and, since the day has no
        volume, sales_volume_pct; every other count stays as it was."""
        def drop_counts(run):
            assert self.run_all(synthetic_dataset, tmp_path / run) == 0
            doc = json.loads((tmp_path / run / "out" / "suite.json").read_text())
            return doc["panel_coverage"]["drop_counts"]
        before = drop_counts("before")
        days = [row[1] for row in read_csv(synthetic_dataset.parent / "sales.csv")]
        day, n_sales = days[-1], days.count(days[-1])
        fx = synthetic_dataset.parent / "fx.csv"
        fx.write_text("".join(line for line in fx.read_text(encoding="utf-8").splitlines(True)
                              if not line.startswith(day + ",")), encoding="utf-8")
        after = drop_counts("after")
        dropped = ("fx_close", "fx_pct", "sales_volume_pct")
        assert {name: after[name] - before.get(name, 0) for name in dropped} == dict.fromkeys(
            dropped, n_sales)
        assert {k: v for k, v in after.items() if k not in dropped} == {
            k: v for k, v in before.items() if k not in dropped}

    @pytest.mark.parametrize("name, line, message", [
        ("gas.csv", "2020-09-02", "row 3: bad gwei_avg None"),
        ("gas.csv", "2020-09-02,", "row 3: bad gwei_avg ''"),
        ("gas.csv", "2020-09-02,nan", "row 3: gwei_avg must be finite, got nan"),
        ("gas.csv", "2020-09-02,-inf", "row 3: gwei_avg must be finite, got -inf"),
        ("fx.csv", "2020-09-02,inf", "row 3: eth_usd_close must be finite, got inf"),
        ("fx.csv", "2020-09-02,1e999", "row 3: eth_usd_close must be finite, got inf"),
        ("fx.csv", ",412.5", "row 3: bad date ''"),
        ("fx.csv", "2020-09-31,412.5", "row 3: bad date '2020-09-31'"),
        ("fx.csv", "20200902,412.5", "row 3: bad date '20200902'"),
        ("gas.csv", "2020-W36-3,55", "row 3: bad date '2020-W36-3'"),
        # Lines 3, 4, 5, ...: the first bad row is the error, and within a
        # row a bad date comes before a bad value.
        ("gas.csv", "2020-09-02,fast\n2020-09-03,50\n2020-09-31,50",
         "row 3: bad gwei_avg 'fast'"),
        ("fx.csv", "2020-09-02,inf\n2020-09-02,412.5",
         "row 3: eth_usd_close must be finite, got inf"),
        ("gas.csv", "2020-09-31,fast", "row 3: bad date '2020-09-31'"),
    ])
    def test_bad_gas_or_fx_row_is_an_error(self, synthetic_dataset, tmp_path, capsys,
                                           name, line, message):
        for number, text in enumerate(line.split("\n"), start=3):
            replace_line(synthetic_dataset.parent / name, number, text)
        assert self.run_all(synthetic_dataset, tmp_path) == 1
        what = name.removesuffix(".csv")
        path = synthetic_dataset.parent / name
        assert capsys.readouterr().err == f"error: {path}: {what} CSV {message}\n"


class TestBadInputText:
    """An out-of-range timestamp is a reject with exit 0; an over-long CSV
    field or a byte that is not UTF-8 is error: with exit 1 naming its row;
    none is a traceback."""

    @pytest.mark.parametrize("name, row, rejects", [
        ("tweets.csv", "zz,0001-01-01T00:00:00+01:00,good,en", "tweet_rejects.csv"),
        ("keyword_tweets.csv", "zz,9999-12-31T23:00:00-05:00,the ape,en",
         "keyword_rejects.csv"),
    ])
    def test_timestamp_whose_utc_day_leaves_the_calendar_is_a_reject(
            self, synthetic_dataset, tmp_path, name, row, rejects):
        path = synthetic_dataset.parent / name
        row_number = len(path.read_text(encoding="utf-8").splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]) == 0
        assert read_csv(out / rejects)[1:] == [[str(row_number), "unparseable timestamp"]]

    @pytest.mark.parametrize("name, what", [("tweets.csv", "tweet"), ("sales.csv", "sales"),
                                            ("gas.csv", "gas"), ("fx.csv", "fx")])
    def test_over_long_field_is_an_error_naming_its_row(self, synthetic_dataset, tmp_path,
                                                         capsys, name, what):
        replace_line(synthetic_dataset.parent / name, 3, "1," + "x" * 140_000)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]) == 1
        assert capsys.readouterr().err == (f"error: {synthetic_dataset.parent / name}: "
                                           f"{what} CSV row 3: field larger than field "
                                           "limit (131072)\n")

    @pytest.mark.parametrize("name, where", [
        ("tweets.csv", "tweet CSV row 3"), ("keyword_tweets.csv", "tweet CSV row 3"),
        ("sales.csv", "sales CSV row 3"), ("gas.csv", "gas CSV row 3"),
        ("fx.csv", "fx CSV row 3"), ("lexicon.txt", "line 4"),
    ])
    def test_invalid_utf8_past_the_first_8_kb_is_an_error_naming_its_row(
            self, synthetic_dataset, tmp_path, capsys, name, where):
        # 9,000 blank lines, not counted as CSV rows, or a 9,000-byte lexicon
        # comment line put the bad byte past the first 8 KB of the file.
        pad = b"#" + b" " * 9_000 + b"\n" if name == "lexicon.txt" else b"\n" * 9_000
        path = synthetic_dataset.parent / name
        first, second, third, *rest = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([first, second, pad + third + b"\xff", *rest]))
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {where}: not valid UTF-8 (byte 0xff: invalid start byte)\n")


class TestAll:
    def test_imports_neither_scipy_nor_numpy_ma(self, synthetic_dataset, tmp_path):
        # A fresh interpreter, as this one has loaded both for the tests.
        # numpy before 2.0 imports numpy.ma itself; the program must not.
        code = textwrap.dedent("""\
            import sys
            import numpy
            ma_with_numpy = "numpy.ma" in sys.modules
            from punk_hedonics import cli
            imported = "scipy" in sys.modules
            code = cli.main(["--config", sys.argv[1], "--output-dir", sys.argv[2], "all"])
            print(code, imported, "scipy" in sys.modules,
                  ("numpy.ma" in sys.modules) - ma_with_numpy)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code, str(synthetic_dataset),
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False", "0"]

    def test_emits_every_output(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset),
                     "--output-dir", str(out), "all"]) == 0
        for name in ("daily_sentiment.csv", "sentiment_distribution.csv",
                     "keyword_frequency.csv", "keyword_sentiment.csv",
                     "suite.json", "tables.txt", "lollipop.csv", "panel.csv",
                     "heatmap.csv"):
            assert (out / name).is_file(), name

    def test_byte_identical_reruns(self, tmp_path):
        config = write_synthetic_dataset(tmp_path, seed=3, n_days=120)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(config), "--output-dir", str(out_a), "all"]) == 0
        assert main(["--config", str(config), "--output-dir", str(out_b), "all"]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_well_conditioned_run_calls_no_lapack(self, synthetic_dataset, tmp_path,
                                                  monkeypatch):
        """No fit calls LAPACK, so with the SVD and lstsq refused the
        outputs are byte for byte the same."""
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out_a),
                     "all"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out_b),
                     "all"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_warnings_gathered_before_an_error_follow_it(self, synthetic_dataset, tmp_path,
                                                         capsys):
        with open(synthetic_dataset, "a", encoding="utf-8") as fh:
            fh.write("language = es\n")
        assert main(["--config", str(synthetic_dataset), "--output-dir",
                     str(tmp_path / "out"), "all"]) == 1
        assert capsys.readouterr().err == (
            "error: no sale date is covered by every daily input series\n"
            "warning: no data: tweet corpus is empty after filtering\n")

    def test_each_input_read_and_each_tweet_scored_once(self, synthetic_dataset, tmp_path,
                                                       monkeypatch, capsys):
        tweet_csv = synthetic_dataset.parent / "tweets.csv"
        with open(tweet_csv, "a", encoding="utf-8") as fh:
            fh.write("early,2016-01-01T00:00:00+00:00,good,en\n")
        calls, corpora = Counter(), []

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if name == "ingest_tweets":
                    corpora.append(result[0])
                return result
            monkeypatch.setattr(module, name, counted)

        for module, name in ((tweets, "ingest_tweets"), (market, "ingest_sales"),
                             (cli, "load_lexicon"), (tweets, "compound_only")):
            count(module, name)
        assert main(["--config", str(synthetic_dataset), "--output-dir",
                     str(tmp_path / "out"), "all"]) == 0
        corpus, keyword_corpus = corpora
        hit = re.compile(r"\b(" + "|".join(tweets.DEFAULT_KEYWORDS) + r")\b", re.IGNORECASE)
        # Each distinct text is scored once per corpus it is scored in.
        texts = set(corpus["text"].tolist())
        keyword_hits = {text for text in keyword_corpus["text"].tolist() if hit.search(text)}
        assert calls == {"ingest_tweets": 2, "ingest_sales": 1, "load_lexicon": 1,
                         "compound_only": len(texts) + len(keyword_hits)}
        err = capsys.readouterr().err
        assert err.count(f"{tweet_csv}: 1 rows outside the study window dropped") == 1


class TestStreamedInputs:
    def test_no_file_is_read_whole(self, synthetic_dataset, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"{path} read whole")
        monkeypatch.setattr(Path, "read_bytes", refuse)
        assert main(["--config", str(synthetic_dataset), "--output-dir",
                     str(tmp_path / "out"), "all"]) == 0

    def test_reading_a_file_holds_neither_its_bytes_nor_its_text(self, tmp_path):
        """RunInputs.read on a ~2 MB tweet CSV whose rows are all filtered
        allocates far less than the file: its lines are read one at a time."""
        path = tmp_path / "tweets.csv"
        row = "{},2021-05-01T12:00:00+00:00,\"the ape looks good, très bien\",fr\n"
        path.write_text("id,timestamp,text,lang\n"
                        + "".join(row.format(i) for i in range(40_000)), encoding="utf-8")
        size = path.stat().st_size
        assert size > 2_000_000
        inputs = cli.RunInputs(cli.RunConfig(tweet_corpus=path))
        tracemalloc.start()
        try:
            corpus, report = inputs.read("tweet_corpus", tweets.ingest_tweets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 0 and report.filtered_language == 40_000
        assert peak < size / 4
