"""Rule-based lexicon sentiment scorer.

Scores a text by summing token valences from a lexicon, adjusting for
intensifiers, negation, capitalization, punctuation emphasis, and
contrastive "but" clauses, then squashing the sum into [-1, 1].

All rule constants live in this module so tests can pin them.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

from .ingest import numbered_lines

# Rule constants.  Kept in one table; changing any of these changes the
# compound scores of every text.
NORMALIZATION_ALPHA = 15.0
BOOSTER_INCREMENT = 0.293
DAMPENER_INCREMENT = -0.293
CAPS_INCREMENT = 0.733
NEGATION_FACTOR = -0.74
NEGATION_SCOPE = 3          # preceding tokens examined for a negator
BOOSTER_SCOPE = 3           # preceding tokens examined for a booster
BOOSTER_DISTANCE_SCALE = (1.0, 0.95, 0.9)
EXCLAIM_INCREMENT = 0.292
MAX_EXCLAIM = 3
QUESTION_INCREMENT = 0.18
QUESTION_CAP = 0.96
BUT_BEFORE_FACTOR = 0.5
BUT_AFTER_FACTOR = 1.5

VALENCE_MIN = -4.0
VALENCE_MAX = 4.0

BOOSTERS = {
    "absolutely": BOOSTER_INCREMENT, "amazingly": BOOSTER_INCREMENT,
    "awfully": BOOSTER_INCREMENT, "completely": BOOSTER_INCREMENT,
    "considerably": BOOSTER_INCREMENT, "decidedly": BOOSTER_INCREMENT,
    "deeply": BOOSTER_INCREMENT, "enormously": BOOSTER_INCREMENT,
    "entirely": BOOSTER_INCREMENT, "especially": BOOSTER_INCREMENT,
    "exceptionally": BOOSTER_INCREMENT, "extremely": BOOSTER_INCREMENT,
    "fabulously": BOOSTER_INCREMENT, "fully": BOOSTER_INCREMENT,
    "greatly": BOOSTER_INCREMENT, "highly": BOOSTER_INCREMENT,
    "hugely": BOOSTER_INCREMENT, "incredibly": BOOSTER_INCREMENT,
    "intensely": BOOSTER_INCREMENT, "majorly": BOOSTER_INCREMENT,
    "purely": BOOSTER_INCREMENT, "quite": BOOSTER_INCREMENT,
    "really": BOOSTER_INCREMENT, "remarkably": BOOSTER_INCREMENT,
    "so": BOOSTER_INCREMENT, "substantially": BOOSTER_INCREMENT,
    "thoroughly": BOOSTER_INCREMENT, "totally": BOOSTER_INCREMENT,
    "tremendously": BOOSTER_INCREMENT, "unbelievably": BOOSTER_INCREMENT,
    "unusually": BOOSTER_INCREMENT, "utterly": BOOSTER_INCREMENT,
    "very": BOOSTER_INCREMENT,
    "almost": DAMPENER_INCREMENT, "barely": DAMPENER_INCREMENT,
    "hardly": DAMPENER_INCREMENT, "kinda": DAMPENER_INCREMENT,
    "less": DAMPENER_INCREMENT, "little": DAMPENER_INCREMENT,
    "marginally": DAMPENER_INCREMENT, "occasionally": DAMPENER_INCREMENT,
    "partly": DAMPENER_INCREMENT, "scarcely": DAMPENER_INCREMENT,
    "slightly": DAMPENER_INCREMENT, "somewhat": DAMPENER_INCREMENT,
    "sorta": DAMPENER_INCREMENT,
}

NEGATIONS = frozenset([
    "aint", "ain't", "arent", "aren't", "cannot", "cant", "can't",
    "couldnt", "couldn't", "darent", "didnt", "didn't", "doesnt",
    "doesn't", "dont", "don't", "hadnt", "hadn't", "hasnt", "hasn't",
    "havent", "haven't", "isnt", "isn't", "mightnt", "mustnt", "neither",
    "never", "none", "nope", "nor", "not", "nothing", "nowhere",
    "shouldnt", "shouldn't", "wasnt", "wasn't", "werent", "weren't",
    "without", "wont", "won't", "wouldnt", "wouldn't", "no",
])

BUT_WORDS = frozenset(["but"])

_STRIP_CHARS = string.punctuation + "¡¿‘’“”…"

# Boosters and negation share one look-back slice, so their scopes must be
# equal (a test pins this).
_LOOK_BACK = BOOSTER_SCOPE


class LexiconError(ValueError):
    """Raised for malformed or invalid lexicon files."""


@dataclass(frozen=True)
class SentimentLexicon:
    """Token valences; the modifier word lists are the compiled-in
    BOOSTERS, NEGATIONS and BUT_WORDS, and no booster is an entry."""

    entries: dict[str, float]

    def __post_init__(self):
        for token, valence in self.entries.items():
            if not token or token != token.lower():
                raise LexiconError(f"lexicon token {token!r} must be lowercase and non-empty")
            if not VALENCE_MIN <= valence <= VALENCE_MAX:
                raise LexiconError(f"valence {valence} for {token!r} outside [{VALENCE_MIN}, {VALENCE_MAX}]")
        overlap = self.entries.keys() & BOOSTERS.keys()
        if overlap:
            raise LexiconError(f"tokens cannot be both entries and boosters: {sorted(overlap)}")


def load_lexicon(source) -> SentimentLexicon:
    """Parse a tab-separated ``token<TAB>valence`` stream into a lexicon.

    Accepts bytes, str, or a file-like object.  '#'-prefixed lines and
    blank lines are skipped; extra columns are ignored; duplicate tokens
    resolve to the last occurrence.  Tokens that collide with the
    compiled-in booster list are skipped (the modifier role wins).  A line
    that is not valid UTF-8 is a LexiconError naming it.
    """
    entries: dict[str, float] = {}
    for lineno, line in numbered_lines(
            source, lambda number, reason: LexiconError(f"line {number}: {reason}")):
        line = line.rstrip("\n\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise LexiconError(f"line {lineno}: expected token<TAB>valence, got {line!r}")
        token = parts[0].strip().lower()
        try:
            valence = float(parts[1])
        except ValueError:
            raise LexiconError(f"line {lineno}: non-numeric valence {parts[1]!r}") from None
        if not token:
            raise LexiconError(f"line {lineno}: empty token")
        if not VALENCE_MIN <= valence <= VALENCE_MAX:
            raise LexiconError(f"line {lineno}: valence {valence} outside [{VALENCE_MIN}, {VALENCE_MAX}]")
        if token in BOOSTERS:
            continue
        entries[token] = valence
    return SentimentLexicon(entries=entries)


def normalize_valence_sum(total: float) -> float:
    """Squash an unbounded valence sum into [-1, 1]."""
    score = total / math.sqrt(total * total + NORMALIZATION_ALPHA)
    return max(-1.0, min(1.0, score))


def _punctuation_emphasis(text: str) -> float:
    ep = min(text.count("!"), MAX_EXCLAIM) * EXCLAIM_INCREMENT
    qm_count = text.count("?")
    if qm_count > 1:
        qm = qm_count * QUESTION_INCREMENT if qm_count <= 3 else QUESTION_CAP
    else:
        qm = 0.0
    return ep + qm


def _shouting(token: str) -> bool:
    # Edge punctuation is neither cased nor alphabetic, so a raw token
    # shouts exactly when its stripped form does.
    return token.isupper() and any(c.isalpha() for c in token)


def _valences(lexicon: SentimentLexicon, text: str) -> list[float]:
    """In token order, the final valence of each token of ``text`` with a
    nonzero lexicon valence; every other token scores 0.

    Tokens are the whitespace-split words stripped of edge punctuation,
    unless all punctuation.  Each token costs one strip, one lowercasing,
    one lexicon lookup and one append; a text without a hit ends there.
    Each hit then tests its raw token for shouting, takes one slice of the
    tokens before it for both boosters and negation, and is weighed against
    the first "but".  That "but" is searched for only when the text holds
    one, and whether every token shouts only when a hit does.
    """
    get = lexicon.entries.get
    lowered: list[str] = []
    hits: list[tuple[int, float, str]] = []      # (index, lexicon valence, raw token)
    for raw in text.split():
        low = (raw.strip(_STRIP_CHARS) or raw).lower()
        valence = get(low)      # no booster is an entry (SentimentLexicon checks)
        if valence:
            hits.append((len(lowered), valence, raw))
        lowered.append(low)
    if not hits:
        return []

    but_at = None
    if not BUT_WORDS.isdisjoint(lowered):
        but_at = next(i for i, low in enumerate(lowered) if low in BUT_WORDS)
    # Caps emphasis applies only when the text mixes cased styles.
    cap_differential = None
    booster_words = BOOSTERS.keys()
    valences = []
    for i, v, raw in hits:
        if _shouting(raw):
            if cap_differential is None:
                cap_differential = not all(map(_shouting, text.split()))
            if cap_differential:
                v += CAPS_INCREMENT if v > 0 else -CAPS_INCREMENT
        before = lowered[i - _LOOK_BACK if i > _LOOK_BACK else 0:i]
        if not booster_words.isdisjoint(before):
            for scale, word in zip(BOOSTER_DISTANCE_SCALE, reversed(before)):
                step = BOOSTERS.get(word)
                if step is not None:
                    step *= scale
                    v += -step if v < 0 else step
        if not NEGATIONS.isdisjoint(before):
            v *= NEGATION_FACTOR
        if but_at is not None and i != but_at:
            v *= BUT_BEFORE_FACTOR if i < but_at else BUT_AFTER_FACTOR
        valences.append(v)
    return valences


def compound_only(lexicon: SentimentLexicon, text: str) -> float:
    """Compound score of one text in [-1, 1]: its valence sum pushed away
    from 0 by its ! and ? emphasis, then squashed.  Pure and total: any
    UTF-8 string is accepted."""
    # The zero valences are left out of the sum, which keeps it exact.
    total = sum(_valences(lexicon, text))
    if not total:
        return 0.0
    emphasis = _punctuation_emphasis(text)
    return normalize_valence_sum(total + emphasis if total > 0 else total - emphasis)
