"""The per-text scorer as it was before it walked each token only once.

Kept verbatim as the reference that ``sentiment._valences`` and
``sentiment.compound_only`` must match bit for bit: one walk that, for
every token, strips and lowercases it, tests it for shouting, counts it,
tests it for "but" and looks it up; then each lexicon hit takes two
look-back slices, one for boosters and one for negation.
``_punctuation_emphasis`` and ``_compound`` are copied with it, so the
reference depends on the package for its constants alone.
"""

from __future__ import annotations

import math
import string

from punk_hedonics.sentiment import (BOOSTER_DISTANCE_SCALE, BOOSTER_SCOPE, BOOSTERS,
                                     BUT_AFTER_FACTOR, BUT_BEFORE_FACTOR, BUT_WORDS,
                                     CAPS_INCREMENT, EXCLAIM_INCREMENT, MAX_EXCLAIM,
                                     NEGATION_FACTOR, NEGATION_SCOPE, NEGATIONS,
                                     NORMALIZATION_ALPHA, QUESTION_CAP, QUESTION_INCREMENT,
                                     SentimentLexicon)

_STRIP_CHARS = string.punctuation + "¡¿‘’“”…"


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


def _valences(lexicon: SentimentLexicon, text: str) -> tuple[int, list[float]]:
    """Token count of ``text`` and, in token order, the final valence of each
    token with a nonzero lexicon valence; every other token scores 0.

    Tokens are the whitespace-split words stripped of edge punctuation,
    unless all punctuation.  One walk finds the lexicon hits, the shouting
    tokens and the first "but"; only the hits look back for modifiers.
    """
    get = lexicon.entries.get
    but_words = BUT_WORDS
    lowered: list[str] = []
    hits: list[tuple[int, float, bool]] = []     # (index, lexicon valence, shouting)
    shouted = 0
    but_at = None
    for raw in text.split():
        token = raw.strip(_STRIP_CHARS) or raw
        low = token.lower()
        shouting = token.isupper() and any(c.isalpha() for c in token)
        shouted += shouting
        if but_at is None and low in but_words:
            but_at = len(lowered)
        valence = get(low)      # no booster is an entry (SentimentLexicon checks)
        if valence:
            hits.append((len(lowered), valence, shouting))
        lowered.append(low)

    # Caps emphasis applies only when the text mixes cased styles.
    cap_differential = 0 < shouted < len(lowered)
    boosters = BOOSTERS
    booster_words = boosters.keys()
    negations = NEGATIONS
    valences = []
    for i, v, shouting in hits:
        if cap_differential and shouting:
            v += CAPS_INCREMENT if v > 0 else -CAPS_INCREMENT
        before = lowered[max(i - BOOSTER_SCOPE, 0):i]
        if not booster_words.isdisjoint(before):
            for scale, word in zip(BOOSTER_DISTANCE_SCALE, reversed(before)):
                step = boosters.get(word)
                if step is not None:
                    step *= scale
                    v += -step if v < 0 else step
        if not negations.isdisjoint(lowered[max(i - NEGATION_SCOPE, 0):i]):
            v *= NEGATION_FACTOR
        if but_at is not None and i != but_at:
            v *= BUT_BEFORE_FACTOR if i < but_at else BUT_AFTER_FACTOR
        valences.append(v)
    return len(lowered), valences


def _compound(total: float, text: str) -> float:
    """Squash a valence sum pushed away from 0 by the text's ! and ? emphasis."""
    if not total:
        return 0.0
    emphasis = _punctuation_emphasis(text)
    return normalize_valence_sum(total + emphasis if total > 0 else total - emphasis)


def compound_only(lexicon: SentimentLexicon, text: str) -> float:
    """Compound score of one text: its valence sum pushed away from 0 by
    its ! and ? emphasis, then squashed into [-1, 1]."""
    # The zero valences are left out of the sum, which keeps it exact.
    return _compound(sum(_valences(lexicon, text)[1]), text)
