import csv
import datetime as dt
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from conftest import write_synthetic_dataset
from punk_hedonics import cli, market, tweets
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


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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
        assert cfg.keywords == ("ape", "zombie")

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
        assert documented == set(cli._CONFIG_KEYS)


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
        assert capsys.readouterr().err.startswith(f"error: {message}")
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
        assert all(r[2] == "0" for r in rows[1:])


class TestRegress:
    def test_full_pipeline_outputs(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset),
                     "--output-dir", str(out), "regress"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["results"]) == 12
        coverage = doc["panel_coverage"]
        assert coverage["rows_emitted"] + sum(
            1 for _ in []) <= coverage["total_sales"]
        assert "stationarity" in doc and "correlation_precheck" in doc
        # Stars in the text tables must match the JSON p-values.
        tables = (out / "tables.txt").read_text()
        assert "Dependent Variable: log(USD Price)" in tables
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

    def test_panel_csv_round_trips(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        main(["--config", str(synthetic_dataset), "--output-dir", str(out),
              "regress"])
        from punk_hedonics.panel import read_panel_csv
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

    @pytest.mark.parametrize("name, line, message", [
        ("gas.csv", "2020-09-02", "row 3: bad gwei_avg None"),
        ("gas.csv", "2020-09-02,", "row 3: bad gwei_avg ''"),
        ("gas.csv", "2020-09-02,nan", "row 3: gwei_avg must be finite, got nan"),
        ("gas.csv", "2020-09-02,-inf", "row 3: gwei_avg must be finite, got -inf"),
        ("fx.csv", "2020-09-02,inf", "row 3: eth_usd_close must be finite, got inf"),
        ("fx.csv", "2020-09-02,1e999", "row 3: eth_usd_close must be finite, got inf"),
        ("fx.csv", ",412.5", "row 3: bad date ''"),
        ("fx.csv", "2020-09-31,412.5", "row 3: bad date '2020-09-31'"),
    ])
    def test_bad_gas_or_fx_row_is_an_error(self, synthetic_dataset, tmp_path, capsys,
                                           name, line, message):
        replace_line(synthetic_dataset.parent / name, 3, line)
        assert self.run_all(synthetic_dataset, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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
                                            ("gas.csv", "series")])
    def test_over_long_field_is_an_error_naming_its_row(self, synthetic_dataset, tmp_path,
                                                         capsys, name, what):
        replace_line(synthetic_dataset.parent / name, 3, "1," + "x" * 140_000)
        out = tmp_path / "out"
        assert main(["--config", str(synthetic_dataset), "--output-dir", str(out), "all"]) == 1
        assert capsys.readouterr().err == (
            f"error: {what} CSV row 3: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("name, where", [
        ("tweets.csv", "tweet CSV row 3"), ("keyword_tweets.csv", "tweet CSV row 3"),
        ("sales.csv", "sales CSV row 3"), ("gas.csv", "series CSV row 3"),
        ("fx.csv", "series CSV row 3"), ("lexicon.txt", "line 4"),
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
            f"error: {where}: not valid UTF-8 (byte 0xff: invalid start byte)\n")


class TestAll:
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
        keyword_hits = sum(1 for _, text in keyword_corpus if hit.search(text))
        assert calls == {"ingest_tweets": 2, "ingest_sales": 1, "load_lexicon": 1,
                         "compound_only": len(corpus) + keyword_hits}
        err = capsys.readouterr().err
        assert err.count(f"{tweet_csv}: 1 rows outside the study window dropped") == 1
