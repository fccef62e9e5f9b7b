"""``punk-hedonics all`` on the conftest dataset with one input corrupted,
or with a fuzzed config file and flags.

Each input example corrupts one field, row, header or column of one input,
or truncates it, with empty, non-finite, over-long and out-of-range values,
bad UTF-8 and a NUL byte.  Each config example adds settings lines (bad and
extreme dates, non-finite thresholds, huge lags, unknown and repeated keys,
NUL bytes, bad UTF-8) and setting flags.  The run must end in exit 0, or in
exit 1 with an ``error:`` line, and no exception may escape ``cli.main``.
The one exception is argparse's own usage error for a flag value its type
rejects, which exits 2 with a usage line.  (On Python 3.10, ``csv`` rejects
a NUL byte, so that draw takes the ``csv.Error`` path there.)
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_synthetic_dataset
from punk_hedonics.cli import main

CONFIG_KEYS = {"tweets.csv": "tweet_corpus", "keyword_tweets.csv": "keyword_corpus",
               "sales.csv": "sales", "gas.csv": "gas", "fx.csv": "fx",
               "lexicon.txt": "lexicon"}
BAD_TEXT = [b"", b"nan", b"inf", b"-inf", b"1e999", b"9" * 5000, b"-" + b"9" * 5000,
            b"0001-01-01T00:00:00+01:00", b"9999-12-31T23:00:00-05:00",
            b"\xff\xfe", b"ok\xc3(", b"x" * 140_000, b"a\x00b"]
KINDS = ("field", "row", "drop field", "drop column", "truncate")

DATES = [b"2020-10-01", b"2021-01-01", b"2021-03-15", b"2017-06-23", b"2022-10-31",
         b"0001-01-01", b"0001-01-02", b"9999-12-30", b"9999-12-31", b"2021-02-30",
         b"2021-13-01", b"20210101", b"", b"2021-01-01\x00"]
NUMBERS = [b"0.5", b"1", b"0", b"-1", b"nan", b"inf", b"-inf", b"1e999", b"1e-320",
           b"9" * 30, b"9" * 5000, b"2.5", b"0x10", b""]
CONFIG_VALUES = {       # None: whole lines
    b"window_start": DATES, b"window_end": DATES, b"split_date": DATES,
    b"correlation_threshold": NUMBERS, b"max_adf_lag": NUMBERS,
    b"keywords": [b"ape, zombie", b"ape, Ape", b"", b",", b"male, female", b"a\x00b",
                  b"dark-skinned", b"\xc3\xa9"],
    b"language": [b"en", b"es", b"", b"e\x00n"],
    b"output_dir": [b"out2", b"o\x00ut"],
    b"gas": [b"missing.csv", b"g\x00as.csv", b""],
    b"mystery": [b"1"],
    None: [b"no equals sign", b"\xff\xfe = 1", b"language = \xe9n", b"# comment \xff",
           b"\x00", b"= 1", b"language"],
}
CONFIG_LINES = st.sampled_from(list(CONFIG_VALUES)).flatmap(
    lambda key: st.sampled_from(CONFIG_VALUES[key]).map(
        lambda value: value if key is None else key + b" = " + value))
FLAGS = {"--window-start": DATES, "--window-end": DATES, "--split-date": DATES,
         "--correlation-threshold": NUMBERS, "--max-adf-lag": NUMBERS,
         "--language": [b"en", b"es"]}
FLAG_ARGS = st.sampled_from(sorted(FLAGS)).flatmap(      # argv cannot hold a NUL byte
    lambda flag: st.sampled_from(FLAGS[flag]).map(
        lambda v: [flag, v.decode("utf-8").replace("\x00", "")]))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    write_synthetic_dataset(root)
    return root


def corrupt(data: bytes, sep: bytes, kind: str, line: int, column: int, text: bytes,
            keep: float) -> bytes:
    """``data`` with one line's field or whole text replaced by ``text``,
    one line's field dropped, one column dropped from every line, or the
    bytes cut to the share ``keep``.  Line 0 is the header."""
    if kind == "truncate":
        return data[:int(len(data) * keep)]
    lines = data.split(b"\n")
    i = line % len(lines)
    targets = range(len(lines)) if kind == "drop column" else [i]
    for j in targets:
        fields = lines[j].split(sep)
        if kind == "field":
            fields[column % len(fields)] = text
        elif kind == "row":
            fields = [text]
        elif len(fields) > 1:
            del fields[column % len(fields)]
        lines[j] = sep.join(fields)
    return b"\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CONFIG_KEYS)), kind=st.sampled_from(KINDS),
       line=st.just(0) | st.integers(0, 2_000), column=st.integers(0, 9),
       text=st.sampled_from(BAD_TEXT), keep=st.floats(0, 1))
def test_corrupted_input_ends_in_exit_0_or_an_error_line(dataset, name, kind, line,
                                                        column, text, keep):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        sep = b"\t" if name == "lexicon.txt" else b","
        (scratch / name).write_bytes(
            corrupt((dataset / name).read_bytes(), sep, kind, line, column, text, keep))
        config = scratch / "config.txt"
        config.write_text("".join(
            f"{key} = {(scratch if input_name == name else dataset) / input_name}\n"
            for input_name, key in CONFIG_KEYS.items()), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["--config", str(config), "--output-dir", str(scratch / "out"), "all"])
    err = stderr.getvalue()
    assert (code, err.startswith("error: ")) in ((0, False), (1, True)), err[:300]
    assert err.count("error:") == code


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=4), flags=st.lists(FLAG_ARGS, max_size=2))
def test_fuzzed_config_and_flags_end_in_exit_0_or_an_error_line(dataset, lines, flags):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        config = scratch / "config.txt"
        inputs = "".join(f"{key} = {dataset / name}\n" for name, key in CONFIG_KEYS.items())
        out = f"output_dir = {scratch}/"    # a relative output_dir is kept in scratch
        config.write_bytes((inputs + out + "out\n").encode("utf-8") + b"".join(
            line.replace(b"output_dir = ", out.encode("utf-8")) + b"\n" for line in lines))
        argv = ["--config", str(config), *(arg for flag in flags for arg in flag), "all"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:           # argparse rejected a flag's value
                code = exc.code
    err = stderr.getvalue()
    if code == 2:
        assert err.startswith("usage: "), err[:300]
        return
    assert (code, err.startswith("error: ")) in ((0, False), (1, True)), err[:300]
    assert err.count("error:") == code
