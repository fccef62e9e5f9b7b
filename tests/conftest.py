import datetime as dt
import math
import textwrap
from typing import NamedTuple

import numpy as np
import pytest

from punk_hedonics.market import GENDERS, SKIN_TONES, Gender, Sales, SkinTone
from punk_hedonics.sentiment import load_lexicon
from punk_hedonics.series import DailySeries
from punk_hedonics.tweets import Tweets

BASIC_LEXICON_TEXT = (
    "# token<TAB>valence\n"
    "good\t1.9\n"
    "great\t3.1\n"
    "awesome\t3.0\n"
    "love\t3.2\n"
    "nice\t1.8\n"
    "bad\t-2.5\n"
    "terrible\t-3.4\n"
    "horrible\t-2.8\n"
    "hate\t-2.7\n"
    "ugly\t-1.9\n"
)


def builtin_only(value):
    """Whether ``value`` is made of dicts with str keys, lists, str, int,
    float and bool alone: no numpy scalar, array or tuple."""
    if type(value) is dict:
        return all(type(k) is str and builtin_only(v) for k, v in value.items())
    if type(value) is list:
        return all(builtin_only(v) for v in value)
    return type(value) in (str, int, float, bool)


def hexed(value):
    """``value`` with each float, in dicts and lists, as its ``float.hex``,
    so that == compares every bit (0.0 and -0.0 differ)."""
    if type(value) is dict:
        return {k: hexed(v) for k, v in value.items()}
    if type(value) is list:
        return [hexed(v) for v in value]
    return value.hex() if type(value) is float else value


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(BASIC_LEXICON_TEXT)


class Sale(NamedTuple):
    """One sale, written out for a test; make_sales turns a list into Sales."""

    punk_id: int
    date: dt.date
    price_eth: float = 1.0
    skin_tone: SkinTone = SkinTone.DARK
    gender: Gender = Gender.MALE
    buyer_wallet: str = "A"
    seller_wallet: str = "B"
    rarity: float | None = None


def make_sales(sales):
    """Sales columns of a list of Sale; wallets get ids in order of first use."""
    wallet_ids = {}
    return Sales({
        "punk_id": [s.punk_id for s in sales],
        "day": np.array([s.date for s in sales], dtype="datetime64[D]"),
        "price_eth": [s.price_eth for s in sales],
        "rarity": [math.nan if s.rarity is None else s.rarity for s in sales],
        "skin": [SKIN_TONES.index(s.skin_tone) for s in sales],
        "gender": [GENDERS.index(s.gender) for s in sales],
        "buyer": [wallet_ids.setdefault(s.buyer_wallet, len(wallet_ids)) for s in sales],
        "seller": [wallet_ids.setdefault(s.seller_wallet, len(wallet_ids)) for s in sales],
    })


def make_tweets(pairs):
    """The Tweets of a list of (date, text) pairs, in order."""
    return Tweets({"day": np.array([day for day, _ in pairs], dtype="datetime64[D]"),
                   "text": [text for _, text in pairs]})


def pairs_of(tweets):
    """The (date, text) pairs of Tweets, in order."""
    return list(zip(tweets["day"].tolist(), tweets["text"].tolist()))


def series_of(mapping):
    """The DailySeries of a {date: value} mapping."""
    return DailySeries(list(mapping), list(mapping.values()))


def mapping_of(series):
    """The {date: value} dict of a DailySeries, in day order."""
    return dict(zip(series.days.tolist(), series.values.tolist()))


def make_lexicon(valences):
    lines = "".join(f"{tok}\t{val}\n" for tok, val in valences.items())
    return load_lexicon(lines)


def write_synthetic_dataset(root, seed=0, n_days=240,
                            first_day=dt.date(2020, 9, 1), sales_per_day=(2, 7)):
    """Write a small self-consistent CSV dataset + config under `root`.

    Spans the 2021-01-01 split so all three study windows have data.  Each
    day has ``rng.integers(*sales_per_day)`` sales.  Returns the config
    file path.
    """
    rng = np.random.default_rng(seed)
    days = [first_day + dt.timedelta(days=i) for i in range(n_days)]

    (root / "lexicon.txt").write_text(BASIC_LEXICON_TEXT, encoding="utf-8")

    pos_words = ["good", "great", "awesome", "love", "nice"]
    neg_words = ["bad", "terrible", "horrible", "hate", "ugly"]
    neutral = ["punk floor swept today", "new listing on the market",
               "checking the charts again", "another punk changed hands"]
    tweet_rows = ["id,timestamp,text,lang"]
    tid = 0
    for day in days:
        for _ in range(int(rng.integers(2, 6))):
            roll = rng.random()
            if roll < 0.45:
                text = f"this punk is {rng.choice(pos_words)}"
            elif roll < 0.7:
                text = f"that sale was {rng.choice(neg_words)}"
            else:
                text = str(rng.choice(neutral))
            hour = int(rng.integers(0, 24))
            tweet_rows.append(f"t{tid},{day.isoformat()}T{hour:02d}:00:00+00:00,\"{text}\",en")
            tid += 1
    (root / "tweets.csv").write_text("\n".join(tweet_rows) + "\n", encoding="utf-8")

    keywords = ["female", "male", "dark", "light", "medium", "albino",
                "alien", "ape", "zombie"]
    kw_rows = ["id,timestamp,text,lang"]
    for i in range(300):
        kw = keywords[int(rng.integers(0, len(keywords)))]
        mood = rng.choice(pos_words if rng.random() < 0.8 else neg_words)
        day = days[int(rng.integers(0, n_days))]
        kw_rows.append(f"k{i},{day.isoformat()}T12:00:00+00:00,"
                       f"\"the {kw} punk looks {mood}\",en")
    (root / "keyword_tweets.csv").write_text("\n".join(kw_rows) + "\n", encoding="utf-8")

    skins = ["Dark", "Light", "Medium", "Albino", "Alien", "Ape", "Zombie"]
    skin_probs = [0.3, 0.3, 0.25, 0.09, 0.02, 0.02, 0.02]
    punk_attrs = {}
    for punk_id in range(300):
        punk_attrs[punk_id] = (skins[int(rng.choice(len(skins), p=skin_probs))],
                               "Male" if rng.random() < 0.65 else "Female")
    sale_rows = ["punk_id,date,price_eth,skin_tone,gender,buyer,seller"]
    for day in days:
        for _ in range(int(rng.integers(*sales_per_day))):
            punk_id = int(rng.integers(0, 300))
            skin, gender = punk_attrs[punk_id]
            price = float(np.exp(rng.normal(1.5, 0.8)))
            buyer = f"0x{int(rng.integers(0, 120)):040x}"
            seller = f"0x{int(rng.integers(0, 120)):040x}"
            sale_rows.append(f"{punk_id},{day.isoformat()},{price:.6f},"
                             f"{skin},{gender},{buyer},{seller}")
    (root / "sales.csv").write_text("\n".join(sale_rows) + "\n", encoding="utf-8")

    gas_rows = ["date,gwei_avg"]
    fx_rows = ["date,eth_usd_close"]
    fx = 400.0
    for day in days:
        gas_rows.append(f"{day.isoformat()},{float(rng.uniform(20, 200)):.4f}")
        fx *= float(np.exp(rng.normal(0.001, 0.04)))
        fx_rows.append(f"{day.isoformat()},{fx:.6f}")
    (root / "gas.csv").write_text("\n".join(gas_rows) + "\n", encoding="utf-8")
    (root / "fx.csv").write_text("\n".join(fx_rows) + "\n", encoding="utf-8")

    config = textwrap.dedent("""\
        tweet_corpus = tweets.csv
        keyword_corpus = keyword_tweets.csv
        sales = sales.csv
        gas = gas.csv
        fx = fx.csv
        lexicon = lexicon.txt
    """)
    config_path = root / "config.txt"
    config_path.write_text(config, encoding="utf-8")
    return config_path


@pytest.fixture
def synthetic_dataset(tmp_path):
    return write_synthetic_dataset(tmp_path)
