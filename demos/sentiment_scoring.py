"""
Walkthrough: lexicon sentiment scoring
======================================

Builds a tiny lexicon, scores a handful of texts, and shows how each
heuristic (intensifiers, negation, capitalization, punctuation, "but")
moves the compound score.

Run with: python3 demos/sentiment_scoring.py
"""

from punk_hedonics import compound_only, load_lexicon

# A lexicon is just token<TAB>valence lines; valences live in [-4, 4].
lexicon = load_lexicon(
    "good\t1.9\n"
    "great\t3.1\n"
    "bad\t-2.5\n"
    "terrible\t-3.4\n"
)

texts = [
    "good",                 # plain lexicon hit
    "very good",            # intensifier boosts the valence
    "not good",             # negation flips and dampens
    "GOOD news today",      # capitalization emphasis
    "good!!!",              # exclamation emphasis (caps at three)
    "good but terrible",    # contrast clause reweights both sides
    "the floor swept",      # no lexicon tokens: exactly neutral
]

print(f"{'text':<22} {'compound':>9}")
for text in texts:
    print(f"{text:<22} {compound_only(lexicon, text):>9.4f}")

# The compound score is the adjusted valence sum squashed through
# S / sqrt(S^2 + 15), so it always stays inside [-1, 1] and single-token
# texts land exactly on that curve.
