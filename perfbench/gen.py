"""Seeded synthetic inputs for ``punk-hedonics all``, with their ground truth.

This module does not import ``punk_hedonics``: two commits of the program
get byte-identical inputs from the same workload, seed and scale.  Every
column is drawn with numpy in one vectorised pass; no step loops over rows
in Python.

The generator decides each row's fate (accepted, filtered by language,
outside the study window, rejected and why) before rendering it, so the
counts the program must report are known exactly and returned as ground
truth alongside the files.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType

WINDOW_START = dt.date(2017, 6, 23)
WINDOW_END = dt.date(2022, 10, 31)
N_DAYS = (WINDOW_END - WINDOW_START).days + 1          # 1,957
_DAY0 = (WINDOW_START - dt.date(1970, 1, 1)).days      # epoch day of WINDOW_START

# The program's default keyword list, in its order.
KEYWORDS = ("female", "male", "dark", "light", "medium",
            "albino", "alien", "ape", "zombie")
SKINS = ("Dark", "Light", "Medium", "Albino", "Alien", "Ape", "Zombie")
SKIN_P = (0.28, 0.28, 0.28, 0.10, 0.02, 0.02, 0.02)
GENDERS = ("Male", "Female")

# Modifier words the scorer reacts to (VADER rule words).
BOOSTERS = ("very", "really", "extremely", "so", "totally", "incredibly",
            "hardly", "barely", "slightly", "kinda")
NEGATIONS = ("not", "never", "no", "don't", "isn't", "without", "cannot")
# VADER's full booster, dampener and negation lists.  No random word may be
# one of them, so a text made only of positive lexicon words scores > 0.
_VADER_RULE_WORDS = (
    "absolutely", "amazingly", "awfully", "completely", "considerably", "decidedly",
    "deeply", "enormously", "entirely", "especially", "exceptionally", "fabulously",
    "fully", "greatly", "highly", "hugely", "intensely", "majorly", "purely", "quite",
    "remarkably", "substantially", "thoroughly", "tremendously", "unbelievably",
    "unusually", "utterly", "almost", "less", "little", "marginally", "occasionally",
    "partly", "scarcely", "somewhat", "sorta", "aint", "arent", "cant", "couldnt",
    "darent", "didnt", "doesnt", "dont", "hadnt", "hasnt", "havent", "isnt", "mightnt",
    "mustnt", "neither", "nothing", "nowhere", "shouldnt", "wasnt", "werent", "wont",
    "wouldnt")
_RESERVED = frozenset(KEYWORDS + BOOSTERS + NEGATIONS + _VADER_RULE_WORDS
                      + ("but", "none", "nope", "nor"))

VOCAB_SIZE = 20_000          # Zipf vocabulary of random words
LEXICON_SIZE = 7_500         # VADER-sized lexicon over that vocabulary
PUNKS = 10_000
SIGN_DAYS = 6                # days planted with only positive / only unscored texts

# Planted hedonic model: log(USD price) = sum(coef * regressor) + noise.
# The dummy effects lie 0.4 or more apart, so swapped columns do not pass.
PLANTED = {"intercept": 8.0, "x_dark": -0.6, "x_light": 0.3,
           "x_medium": -0.2, "x_nonhuman": 1.5, "x_male": 0.8,
           "gas_price_gwei": 0.004}
NOISE_SD = 0.6

# Row fates in a tweet CSV.
ACCEPT, LANG, OUT, BAD_TS, DUP, NO_ID = range(6)


@dataclass(frozen=True)
class Workload:
    """Unscaled sizes; ``scale`` multiplies every per-day count and corpus size."""

    tweet_rows_per_day: float
    tweet_fates: tuple[float, ...]          # P(ACCEPT, LANG, OUT, BAD_TS, DUP, NO_ID)
    keyword_rows: int
    keyword_fates: tuple[float, ...]
    keyword_hits: tuple[float, ...]         # P(0, 1, 2, 3 keyword hits) per tweet
    sales_per_day: float
    sales_reject_share: float
    sales_outside_share: float
    wallets: int
    retweet_share: float = 0.0              # accepted tweets copying an earlier text
    mixed_timestamps: bool = False


_CLEAN = (0.996, 0.002, 0.0, 0.001, 0.001, 0.0)
WORKLOADS = {
    "study": Workload(
        tweet_rows_per_day=100, tweet_fates=_CLEAN,
        keyword_rows=20_000, keyword_fates=_CLEAN,
        keyword_hits=(0.2, 0.6, 0.15, 0.05),
        sales_per_day=10, sales_reject_share=0.002, sales_outside_share=0.0,
        wallets=10_000),
    "market": Workload(
        tweet_rows_per_day=10, tweet_fates=_CLEAN,
        keyword_rows=2_000, keyword_fates=_CLEAN,
        keyword_hits=(0.2, 0.6, 0.15, 0.05),
        sales_per_day=100, sales_reject_share=0.002, sales_outside_share=0.0,
        wallets=50_000),
    "raw_scrape": Workload(
        tweet_rows_per_day=204, tweet_fates=(0.40, 0.30, 0.12, 0.08, 0.08, 0.02),
        keyword_rows=60_000, keyword_fates=(0.55, 0.25, 0.08, 0.05, 0.05, 0.02),
        keyword_hits=(0.1, 0.4, 0.3, 0.2),
        sales_per_day=10, sales_reject_share=0.05, sales_outside_share=0.01,
        wallets=10_000,
        retweet_share=0.15, mixed_timestamps=True),
}

_S = StringDType()


def _day_weights(rng: np.random.Generator) -> np.ndarray:
    """Activity per study day: a 2021 boom over a slow rise, with daily noise."""
    t = np.arange(N_DAYS) / N_DAYS
    boom = np.exp(-((t - 0.75) / 0.08) ** 2)
    w = (0.4 + t + 2.0 * boom) * rng.lognormal(0.0, 0.3, N_DAYS)
    return w / w.sum()


def _words(rng: np.random.Generator, n: int, alphabet: str, lo: int, hi: int,
           exclude=frozenset()) -> np.ndarray:
    """``n`` distinct random words over ``alphabet``, ``lo``..``hi`` letters."""
    letters = np.array(list(alphabet), dtype=_S)
    found = np.array(sorted(exclude), dtype=_S)
    while len(found) < n + len(exclude):
        m = 2 * n + 64
        chars = letters[rng.integers(0, len(letters), (m, hi))]
        chars[np.arange(hi) >= rng.integers(lo, hi + 1, m)[:, None]] = ""
        found = np.concatenate([found, _join(chars, "")])
        _, first = np.unique(found, return_index=True)
        found = found[np.sort(first)]            # distinct, in draw order
    return found[len(exclude):len(exclude) + n]


def _join(tokens: np.ndarray, sep: str = " ") -> np.ndarray:
    """Join each row of a 2-D string array, skipping empty cells (pairwise tree)."""
    cols = [tokens[:, j] for j in range(tokens.shape[1])]
    while len(cols) > 1:
        merged = []
        for a, b in zip(cols[::2], cols[1::2]):
            both = np.strings.add(np.strings.add(a, sep), b) if sep else np.strings.add(a, b)
            merged.append(np.where(b == "", a, np.where(a == "", b, both)))
        if len(cols) % 2:
            merged.append(cols[-1])
        cols = merged
    return cols[0]


def _pick(rng: np.random.Generator, choices, n: int) -> np.ndarray:
    return np.array(choices, dtype=_S)[rng.integers(0, len(choices), n)]


def _where(mask: np.ndarray, a, b) -> np.ndarray:
    return np.where(mask, a, b).astype(_S)


class _Vocabulary:
    """Zipf-ranked English-like words (keywords excluded) plus a foreign word pool."""

    def __init__(self, rng: np.random.Generator, size: int):
        words = _words(rng, size, "abcdefghijklmnoprstuvwy", 3, 9, _RESERVED)
        # Frequent words are short, as in real text.  Ranking by length also
        # fixes the bytes per tweet, which would otherwise vary with the seed.
        self.words = words[np.argsort(np.strings.str_len(words), kind="stable")]
        weights = 1.0 / np.arange(1, size + 1) ** 1.05
        self.cdf = np.cumsum(weights) / weights.sum()
        self.foreign = _words(rng, 3000, "áéíóúñçãõàèüöäßабвгдежзиклмнопрстуあいうえおかきくけこさしすせそたちつてと日本語市場", 2, 8)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.words[np.searchsorted(self.cdf, rng.random(shape))]


def _tweet_texts(rng: np.random.Generator, vocab: _Vocabulary, n: int,
                 hits: tuple[float, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """English tweet texts and, per keyword, its whole-word occurrences per row.

    Texts carry the scorer's rule triggers: boosters, negations, "but",
    ALL-CAPS words and "!"/"?" runs, plus commas and double quotes so that
    CSV quoting is exercised.  With ``hits`` each row also carries 0-3
    keyword tokens at distinct positions.
    """
    width = 18
    lengths = rng.integers(6, width + 1, n)
    tok = vocab.sample(rng, (n, width))
    u = rng.random((n, width))
    tok = _where(u < 0.03, np.strings.upper(tok), tok)
    tok = _where((u >= 0.03) & (u < 0.07), _pick(rng, BOOSTERS, (n, width)), tok)
    tok = _where((u >= 0.07) & (u < 0.10), _pick(rng, NEGATIONS, (n, width)), tok)
    but_at = rng.integers(1, 6, n)
    has_but = rng.random(n) < 0.08
    tok[np.flatnonzero(has_but), but_at[has_but]] = "but"
    v = rng.random((n, width))
    tok = _where(v < 0.04, np.strings.add(tok, ","), tok)
    tok = _where((v >= 0.04) & (v < 0.06),
                 np.strings.add(np.strings.add('"', tok), '"'), tok)

    occurrences = np.zeros((n, len(KEYWORDS)), dtype=np.int64)
    if hits is not None:
        k = rng.choice(len(hits), n, p=hits)
        order = rng.random((n, width))
        order[np.arange(width) >= lengths[:, None]] = 2.0    # keep hits inside the text
        slots = np.argsort(order, axis=1)[:, :len(hits) - 1]
        kw = rng.integers(0, len(KEYWORDS), (n, len(hits) - 1))
        style = rng.choice(4, (n, len(hits) - 1), p=(0.7, 0.1, 0.1, 0.1))
        names = np.array(KEYWORDS, dtype=_S)[kw]
        rendered = np.select(
            [style == 0, style == 1, style == 2],
            [names, np.strings.upper(names), np.strings.add(names, "!")],
            np.strings.add(np.strings.add("(", names), ")")).astype(_S)
        rows = np.arange(n)
        for h in range(len(hits) - 1):
            live = k > h
            tok[rows[live], slots[live, h]] = rendered[live, h]
            np.add.at(occurrences, (rows[live], kw[live, h]), 1)

    tok[np.arange(width) >= lengths[:, None]] = ""
    text = _join(tok)
    tail = _pick(rng, ("", "", "", "", "!", "!!", "!!!!", "?", "??", "???", "?!"), n)
    return np.strings.add(text, tail), occurrences


def _plain_texts(rng: np.random.Generator, pool: np.ndarray, n: int) -> np.ndarray:
    """Lowercase texts of 3-8 words from ``pool``, without punctuation or rule words."""
    width = 8
    tok = pool[rng.integers(0, len(pool), (n, width))]
    tok[np.arange(width) >= rng.integers(3, width + 1, n)[:, None]] = ""
    return _join(tok)


def _foreign_texts(rng: np.random.Generator, vocab: _Vocabulary, n: int) -> np.ndarray:
    width = 12
    tok = vocab.foreign[rng.integers(0, len(vocab.foreign), (n, width))]
    tok[np.arange(width) >= rng.integers(3, width + 1, n)[:, None]] = ""
    return _join(tok)


def _timestamps(rng: np.random.Generator, utc_seconds: np.ndarray, mixed: bool) -> np.ndarray:
    """ISO-8601 renderings of UTC instants: ``Z`` only, or mixed Z/offset/naive."""
    n = len(utc_seconds)
    if not mixed:
        stamps = np.datetime_as_string(utc_seconds.astype("datetime64[s]"), unit="s")
        return np.strings.add(stamps.astype(_S), "Z")
    offsets = np.array([0, 0, 330, -240, 540, -420, 0], dtype=np.int64)  # minutes
    suffixes = np.array(["Z", "+00:00", "+05:30", "-04:00", "+09:00", "-07:00", ""],
                        dtype=_S)
    form = rng.choice(len(offsets), n, p=(0.35, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1))
    local = (utc_seconds + 60 * offsets[form]).astype("datetime64[s]")
    stamps = np.datetime_as_string(local, unit="s").astype(_S)
    spaced = rng.random(n) < 0.2
    stamps = _where(spaced, np.strings.replace(stamps, "T", " "), stamps)
    return np.strings.add(stamps, suffixes[form])


_BAD_TIMESTAMPS = ("", "yesterday", "2019-02-30T10:00:00Z", "n/a",
                   "2020-13-01T00:00:00", "12/05/2021 10:00", "2021-06-31")
_LANGS = ("es", "ja", "pt", "ru", "fr", "de", "ko", "und")


def _tweet_csv(rng: np.random.Generator, vocab: _Vocabulary, rows: int,
               fates: tuple[float, ...], day_p: np.ndarray, prefix: str,
               mixed: bool, hits=None, retweet_share: float = 0.0,
               signed: dict[str, np.ndarray] | None = None) -> tuple[str, dict]:
    """One tweet CSV (``id,timestamp,text,lang``) and its ground truth.

    With ``signed``, SIGN_DAYS days per word pool get texts drawn only from
    that pool, so their daily mean sentiment has a known sign.
    """
    fate = rng.choice(len(fates), rows, p=fates)
    fate[0] = ACCEPT
    accepted = np.flatnonzero(fate == ACCEPT)

    day = rng.choice(N_DAYS, rows, p=day_p).astype(np.int64)
    early = rng.integers(-400, 0, rows)
    late = rng.integers(N_DAYS, N_DAYS + 300, rows)
    day = np.where(fate == OUT, np.where(rng.random(rows) < 0.5, early, late), day)
    utc = (day + _DAY0) * 86400 + rng.integers(0, 86400, rows)
    stamp = _timestamps(rng, utc, mixed)
    stamp = _where(fate == BAD_TS, _pick(rng, _BAD_TIMESTAMPS, rows), stamp)

    ids = np.strings.add(prefix, np.arange(rows).astype(_S))
    # A duplicate repeats the id of an earlier accepted row.
    earlier = np.searchsorted(accepted, np.arange(rows))
    source = accepted[(rng.random(rows) * earlier).astype(np.int64)]
    ids = _where(fate == DUP, ids[source], ids)
    ids = _where(fate == NO_ID, _pick(rng, ("", " "), rows), ids)

    text, occurrences = _tweet_texts(rng, vocab, rows, hits)
    if retweet_share:
        copy = (fate == ACCEPT) & (rng.random(rows) < retweet_share) & (earlier > 0)
        text = _where(copy, text[source], text)
        occurrences = np.where(copy[:, None], occurrences[source], occurrences)
    sign_days = {}
    if signed:
        live = np.unique(day[fate == ACCEPT])
        picked = rng.choice(live, len(signed) * SIGN_DAYS, replace=False)
        for i, (sign, pool) in enumerate(signed.items()):
            days = np.sort(picked[i * SIGN_DAYS:(i + 1) * SIGN_DAYS])
            on = np.flatnonzero(np.isin(day, days))
            text[on] = _plain_texts(rng, pool, len(on))
            sign_days[sign] = np.datetime_as_string(
                (days + _DAY0).astype("datetime64[D]")).tolist()
    text = _where(fate == LANG, _foreign_texts(rng, vocab, rows), text)
    lang = _where(fate == LANG, _pick(rng, _LANGS, rows), "en")

    quoted = np.strings.add(np.strings.add('"', np.strings.replace(text, '"', '""')), '"')
    line = ids
    for column in (stamp, quoted, lang):
        line = np.strings.add(np.strings.add(line, ","), column)
    body = "id,timestamp,text,lang\n" + "\n".join(line.tolist()) + "\n"

    ok = fate == ACCEPT
    truth = {
        "rows": rows,
        "accepted": int(ok.sum()),
        "filtered_language": int((fate == LANG).sum()),
        "out_of_window": int((fate == OUT).sum()),
        "rejects": int(np.isin(fate, (BAD_TS, DUP, NO_ID)).sum()),
        "days": np.unique(day[ok]),
        "keyword_occurrences": dict(zip(KEYWORDS, occurrences[ok].sum(axis=0).tolist())),
        "keyword_tweets": int((occurrences[ok].sum(axis=1) > 0).sum()),
        "sign_days": sign_days,
    }
    return body, truth


_SALES_DEFECTS = (
    ("punk_id", ("", "punk#7", "1.5")),
    ("date", ("2019-02-30", "n/a", "")),
    ("price_eth", ("", "abc", "1.5.2")),
    ("price_eth", ("-0.5", "-12")),
    ("skin_tone", ("Blue", "")),
    ("gender", ("Robot", "")),
)


def _sales_csv(rng: np.random.Generator, w: Workload, scale: float,
               day_p: np.ndarray, gas: np.ndarray, fx: np.ndarray) -> tuple[str, dict]:
    n = max(int(round(w.sales_per_day * N_DAYS * scale)), 200)
    day = np.sort(rng.choice(N_DAYS, n, p=day_p))
    outside = rng.random(n) < w.sales_outside_share
    day = np.where(outside, rng.integers(-20, 0, n), day)
    skin_of = rng.choice(len(SKINS), PUNKS, p=SKIN_P)
    male_of = rng.random(PUNKS) < 0.6
    punk = rng.integers(0, PUNKS, n)
    skin, male = skin_of[punk], male_of[punk]

    log_usd = (PLANTED["intercept"]
               + PLANTED["x_dark"] * (skin == 0) + PLANTED["x_light"] * (skin == 1)
               + PLANTED["x_medium"] * (skin == 2) + PLANTED["x_nonhuman"] * (skin >= 4)
               + PLANTED["x_male"] * male
               + PLANTED["gas_price_gwei"] * gas[day.clip(min=0)]
               + rng.normal(0.0, NOISE_SD, n))
    price = np.exp(log_usd) / fx[day.clip(min=0)]

    hexes = np.frombuffer(rng.bytes(20 * w.wallets).hex().encode(), dtype="S40")
    wallets = np.strings.add("0x", hexes.astype(_S))
    dates = np.datetime_as_string((day + _DAY0).astype("datetime64[D]")).astype(_S)
    cols = {
        "punk_id": punk.astype(_S),
        "date": dates,
        "price_eth": price.astype(_S),
        "skin_tone": np.array(SKINS, dtype=_S)[skin],
        "gender": _where(male, "Male", "Female"),
        "buyer": wallets[rng.integers(0, w.wallets, n)],
        "seller": wallets[rng.integers(0, w.wallets, n)],
    }
    if w.sales_reject_share >= 0.01:         # dirty export: vary label casing
        shout = rng.random(n) < 0.1
        for name in ("skin_tone", "gender"):
            cols[name] = _where(shout, np.strings.upper(cols[name]), cols[name])

    bad = rng.random(n) < w.sales_reject_share
    defect = rng.integers(0, len(_SALES_DEFECTS), n)
    for d, (column, values) in enumerate(_SALES_DEFECTS):
        hit = bad & (defect == d)
        cols[column] = _where(hit, _pick(rng, values, n), cols[column])

    line = cols["punk_id"]
    for name in ("date", "price_eth", "skin_tone", "gender", "buyer", "seller"):
        line = np.strings.add(np.strings.add(line, ","), cols[name])
    body = ("punk_id,date,price_eth,skin_tone,gender,buyer,seller\n"
            + "\n".join(line.tolist()) + "\n")

    ok = ~bad
    cells = {f"{g}/{s}": 0 for g in GENDERS for s in SKINS}
    gender_ok = np.where(male[ok], 0, 1)
    pairs, counts = np.unique(gender_ok * len(SKINS) + skin[ok], return_counts=True)
    for p, c in zip(pairs.tolist(), counts.tolist()):
        cells[f"{GENDERS[p // len(SKINS)]}/{SKINS[p % len(SKINS)]}"] = c
    inside = ok & ~outside
    truth = {"rows": n, "accepted": int(ok.sum()), "rejects": int(bad.sum()),
             "in_window": int(inside.sum()), "sale_days": day[inside],
             "heatmap": cells}
    return body, truth


def generate(workload: str, seed: int, root: Path, scale: float) -> dict:
    """Write the inputs and ``config.txt`` under ``root``; return the ground truth."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    root.mkdir(parents=True, exist_ok=True)
    vocab = _Vocabulary(rng, VOCAB_SIZE)
    day_p = _day_weights(rng)

    # Evenly spaced ranks, skipping the 50 most frequent words: the share of
    # tokens the lexicon covers is then the same for every seed.
    lex_words = vocab.words[np.linspace(50, VOCAB_SIZE - 1, LEXICON_SIZE).astype(np.int64)]
    valence = np.round(rng.normal(0.0, 1.6, LEXICON_SIZE).clip(-3.9, 3.9), 1)
    valence[rng.random(LEXICON_SIZE) < 0.05] = 0.0
    spread = np.round(rng.uniform(0.3, 1.2, LEXICON_SIZE), 5)
    lex = np.strings.add(np.strings.add(lex_words, "\t"), valence.astype(_S))
    lex = np.strings.add(np.strings.add(lex, "\t"), spread.astype(_S))
    (root / "lexicon.txt").write_text(
        "# token\tvalence\tstd\n" + "\n".join(lex.tolist()) + "\n", encoding="utf-8")

    # Word pools whose texts have a known sign: every word positive, or no
    # word with a nonzero valence (such a text scores exactly 0).
    signed = {"positive": lex_words[valence > 0],
              "zero": vocab.words[~np.isin(vocab.words, lex_words[valence != 0])]}
    tweet_rows = max(int(round(w.tweet_rows_per_day * N_DAYS * scale)), 200)
    body, tweets = _tweet_csv(rng, vocab, tweet_rows, w.tweet_fates, day_p, "t",
                              w.mixed_timestamps, retweet_share=w.retweet_share,
                              signed=signed)
    (root / "tweets.csv").write_text(body, encoding="utf-8")
    body, keyword = _tweet_csv(rng, vocab, max(int(round(w.keyword_rows * scale)), 100),
                               w.keyword_fates, day_p, "k", w.mixed_timestamps,
                               hits=w.keyword_hits)
    (root / "keyword_tweets.csv").write_text(body, encoding="utf-8")

    gas = np.round(rng.uniform(20.0, 200.0, N_DAYS), 4)
    fx = np.round(300.0 * np.exp(np.cumsum(rng.normal(0.0008, 0.04, N_DAYS))), 6)
    dates = np.datetime_as_string((np.arange(N_DAYS) + _DAY0).astype("datetime64[D]")).astype(_S)
    for name, header, values in (("gas.csv", "date,gwei_avg", gas),
                                 ("fx.csv", "date,eth_usd_close", fx)):
        line = np.strings.add(np.strings.add(dates, ","), values.astype(_S))
        (root / name).write_text(header + "\n" + "\n".join(line.tolist()) + "\n",
                                 encoding="utf-8")

    body, sales = _sales_csv(rng, w, scale, day_p, gas, fx)
    (root / "sales.csv").write_text(body, encoding="utf-8")

    (root / "config.txt").write_text(
        "tweet_corpus = tweets.csv\nkeyword_corpus = keyword_tweets.csv\n"
        "sales = sales.csv\ngas = gas.csv\nfx = fx.csv\nlexicon = lexicon.txt\n",
        encoding="utf-8")

    # A sale joins the panel when its day has tweets, is not the first
    # sale day (no previous day for the % changes) and is not the first
    # FX day (no FX % change).
    tweet_day = np.zeros(N_DAYS, dtype=bool)
    tweet_day[tweets["days"]] = True
    sale_days = sales.pop("sale_days")
    first = sale_days.min()
    panel_rows = int((tweet_day[sale_days] & (sale_days != first) & (sale_days != 0)).sum())
    sales["panel_rows"] = panel_rows
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "tweets": {**{k: v for k, v in tweets.items() if k != "days"},
                   "days": len(tweets["days"])},
        "keyword": {**{k: v for k, v in keyword.items() if k != "days"},
                    "days": len(keyword["days"])},
        "sales": sales,
        "score_calls": 2 * tweets["accepted"] + keyword["keyword_tweets"],
        "planted": PLANTED,
    }
