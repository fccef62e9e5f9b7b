"""``punk-hedonics all`` on the conftest dataset with one input corrupted.

Each example corrupts one field, row, header or column of one input, or
truncates it, with empty, non-finite, over-long and out-of-range values,
bad UTF-8 and a NUL byte.  The run must end in exit 0, or in exit 1 with
an ``error:`` line, and no exception may escape ``cli.main``.  (On Python
3.10, ``csv`` rejects a NUL byte, so that draw takes the ``csv.Error``
path there.)
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
