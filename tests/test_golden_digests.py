"""The SHA-256 of ``conftest.write_synthetic_dataset``'s inputs and of the
12 outputs of ``all`` on them, pinned.

Every float total of the package is a running sum in row order, so no
output depends on builtin ``sum``, which Python 3.12 made compensated
(Neumaier).  So the run is made twice: as it is, and with builtin ``sum``
replaced by ``compensated_sum``, which gives 3.12's float totals on any
interpreter.  Both must write the pinned bytes.

A Python or numpy on which a digest differs is a finding: state it, with
its cause, in README's paragraph on determinism.  Do not update a digest
to make a cell pass.  The inputs are pinned apart from the outputs, so a
failure says whether the generator or the program moved.
"""

import builtins
import hashlib
import math

import pytest

from conftest import write_synthetic_dataset
from punk_hedonics.cli import main

INPUTS = {
    "config.txt": "3f76f1beaf3d99e53ba173abf5995ddb9a5f2415476b31b3cb544b370b49b04c",
    "fx.csv": "b34f87aa178b4d5371fcb0a461f837ede23730ef4c40baccf53ce9aa5ee6efb4",
    "gas.csv": "7c6e3d4378cdedcd421ff19575c12d6ae03061ca67e5a733e93bb5e6bea1071e",
    "keyword_tweets.csv": "dc0aa62141f75d9ecfacd94023783859a6008ddfe04b4d4117d11c18ad764f44",
    "lexicon.txt": "d16741b92d9f8f28fbf8f04216cf33016fa5c517012307935639e63cb89b76c3",
    "sales.csv": "73bb5be99e7c18904919e57df2aabe2bcea81ecf123ecb71f074d1de9d8d5e13",
    "tweets.csv": "848a4502c823dc8b728d13117814536dad0fb7b5e9d4c280ccb03a1bf837cbfe",
}

OUTPUTS = {
    "daily_sentiment.csv": "755478f0fcca3c70fdfff5faec500753e8cac7720ee436f21df4f2417863443c",
    "heatmap.csv": "5d53dbb73905c8cf6fa32eaa6c3cfca04003c587cc069bb516b4a28ddf2af6ff",
    "keyword_frequency.csv": "17d79deaac05390350565c0ff61f4b19669e45cc24cb7c37eca5e3e2e3d2362b",
    "keyword_rejects.csv": "673db58e2ddd7499ed0e782a25aedf72dcec546418f39bb8466a4acee19b62ac",
    "keyword_sentiment.csv": "94c5c395ded8ae8f5dc51a23375130521271fa321ce190f29188cc14c8762c91",
    "lollipop.csv": "4bd78252fefe7dca3dc3b1ffcd62aa46effecef1534c39add3d2ae7576f197a1",
    "panel.csv": "f641647ea4563f4c6033720f5fe85e209b53025b71c88c53641cc7fea2f23f48",
    "sales_rejects.csv": "673db58e2ddd7499ed0e782a25aedf72dcec546418f39bb8466a4acee19b62ac",
    "sentiment_distribution.csv": "15a18fcf2d274f08ce1a873cecd816291e34b443331fd0ef6645cfc455fa85af",
    "suite.json": "bf46b22c4bad9b590108a549a95825c0eb4febf6c159da792e5a7565f29779a5",
    "tables.txt": "8c042dad8ee97491b4e6f64acf5c9d1f2dbacb5abfc4504987f5e96099cb8f8d",
    "tweet_rejects.csv": "673db58e2ddd7499ed0e782a25aedf72dcec546418f39bb8466a4acee19b62ac",
}

BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` with Python 3.12's rule for floats: a Neumaier
    running compensation, added once at the end where it is finite and
    nonzero.  Any other operands take the builtin path."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(x) is not float
                                                           for x in items):
        return BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total



def digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if path.is_file()}


def test_compensated_sum_differs_from_a_running_sum():
    """The stand-in is not a running sum: 0.1 + 0.2 + 0.3 rounds twice
    from left to right, once when compensated."""
    values = [0.1, 0.2, 0.3]
    assert compensated_sum(values) == 0.6 != (0.1 + 0.2) + 0.3
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, 2]) == 3 and compensated_sum([], 0.5) == 0.5


@pytest.mark.parametrize("sum_rule", ["builtin", "compensated"])
def test_all_writes_the_pinned_bytes(tmp_path, monkeypatch, sum_rule):
    data = tmp_path / "data"
    data.mkdir()
    config = write_synthetic_dataset(data)
    assert digests(data) == INPUTS
    if sum_rule == "compensated":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--output-dir", str(out), "all"]) == 0
    assert digests(out) == OUTPUTS
