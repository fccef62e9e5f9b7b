import dataclasses
import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_lexicon
from punk_hedonics.sentiment import (BOOSTER_DISTANCE_SCALE, BOOSTER_SCOPE,
                                     BOOSTERS, BUT_AFTER_FACTOR, BUT_BEFORE_FACTOR,
                                     CAPS_INCREMENT, EXCLAIM_INCREMENT, MAX_EXCLAIM,
                                     NEGATION_FACTOR, NEGATION_SCOPE, NEGATIONS,
                                     QUESTION_CAP, QUESTION_INCREMENT, LexiconError,
                                     SentimentScore, compound_only, load_lexicon,
                                     normalize_valence_sum, score_text)

ALPHA = 15.0


def expected_compound(total):
    return total / math.sqrt(total * total + ALPHA)


class TestLoadLexicon:
    def test_single_line(self):
        lex = load_lexicon("good\t1.9\n")
        assert lex.entries == {"good": 1.9}

    def test_empty_stream(self):
        assert load_lexicon("").entries == {}

    def test_last_occurrence_wins(self):
        # Oracle: replay the lines sequentially into a dict.
        lines = [("good", 1.9), ("good", 2.1), ("bad", -1.0), ("good", 0.5)]
        oracle = {}
        for tok, val in lines:
            oracle[tok] = val
        text = "".join(f"{t}\t{v}\n" for t, v in lines)
        assert load_lexicon(text).entries == oracle

    def test_bytes_and_stream_sources(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good\t1.9\n", encoding="utf-8")
        with open(path, "rb") as fh:
            assert load_lexicon(fh).entries == {"good": 1.9}
        assert load_lexicon(b"good\t1.9\n").entries == {"good": 1.9}

    def test_comments_and_blank_lines_skipped(self):
        lex = load_lexicon("# a comment\n\ngood\t1.0\n")
        assert lex.entries == {"good": 1.0}

    def test_extra_columns_ignored(self):
        lex = load_lexicon("good\t1.9\t0.5\t[1, 2]\n")
        assert lex.entries == {"good": 1.9}

    def test_non_numeric_valence_names_line(self):
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon("good\t1.9\nbad\toops\n")

    def test_invalid_utf8_names_line(self):
        with pytest.raises(LexiconError) as info:
            load_lexicon(b"good\t1.9\n\n# \xc3\xa9\nbad\t-2.5\xc3\n")
        assert str(info.value) == "line 4: not valid UTF-8 (byte 0xc3: invalid continuation byte)"

    def test_valence_out_of_range(self):
        with pytest.raises(LexiconError, match="outside"):
            load_lexicon("good\t4.5\n")

    def test_tokens_lowercased(self):
        assert load_lexicon("GOOD\t1.0\n").entries == {"good": 1.0}

    def test_booster_collision_keeps_sets_disjoint(self):
        lex = load_lexicon("very\t0.3\ngood\t1.0\n")
        assert "very" not in lex.entries
        assert not lex.entries.keys() & lex.boosters.keys()


class TestCompound:
    def test_empty_text(self, lexicon):
        score = score_text(lexicon, "")
        assert score == type(score)(0.0, 0.0, 0.0, 0.0)

    def test_single_token_formula(self):
        lex = make_lexicon({"tok": 2.0})
        assert compound_only(lex, "tok") == pytest.approx(expected_compound(2.0), abs=1e-12)
        assert compound_only(lex, "tok") == pytest.approx(0.4588, abs=1e-4)

    def test_single_negative_token(self):
        lex = make_lexicon({"tok": -2.0})
        assert compound_only(lex, "tok") == pytest.approx(-0.4588, abs=1e-4)

    def test_sign_symmetry(self):
        pos = make_lexicon({"tok": 2.0})
        neg = make_lexicon({"tok": -2.0})
        assert compound_only(pos, "tok") == -compound_only(neg, "tok")

    def test_compound_only_equals_score_text(self, lexicon):
        for text in ["good", "so bad!", "not great", "GOOD day but ugly night"]:
            assert compound_only(lexicon, text) == score_text(lexicon, text).compound

    def test_neutral_closure(self, lexicon):
        assert compound_only(lexicon, "the punk sold on chain") == 0.0


class TestRules:
    def test_booster_amplifies(self, lexicon):
        assert compound_only(lexicon, "very good") > compound_only(lexicon, "good")

    def test_booster_distance_decay(self, lexicon):
        near = compound_only(lexicon, "very good")
        far = compound_only(lexicon, "very so-so still good")
        assert near > far > compound_only(lexicon, "good")

    def test_dampener_reduces(self, lexicon):
        assert compound_only(lexicon, "slightly good") < compound_only(lexicon, "good")

    def test_negation_flips_and_scales(self):
        lex = make_lexicon({"good": 2.0})
        negated = compound_only(lex, "not good")
        assert negated == pytest.approx(expected_compound(2.0 * -0.74), abs=1e-12)

    def test_negation_scope_is_three_tokens(self):
        lex = make_lexicon({"good": 2.0})
        assert compound_only(lex, "not at all good") < 0
        assert compound_only(lex, "not a b c good") > 0

    def test_caps_emphasis(self, lexicon):
        assert compound_only(lexicon, "GOOD day") > compound_only(lexicon, "good day")

    def test_all_caps_text_gets_no_emphasis(self, lexicon):
        assert compound_only(lexicon, "GOOD DAY") == compound_only(lexicon, "good day")

    def test_exclamation_amplification(self, lexicon):
        texts = ["good", "so bad", "love this punk", "hate it here",
                 "not nice", "terrible and ugly", "GREAT work today"]
        for text in texts:
            base = compound_only(lexicon, text)
            assert base != 0
            assert abs(compound_only(lexicon, text + "!")) >= abs(base)

    def test_exclamation_caps_at_three(self, lexicon):
        assert (compound_only(lexicon, "good!!!") ==
                compound_only(lexicon, "good!!!!!!"))

    def test_question_marks(self, lexicon):
        single = compound_only(lexicon, "good?")
        double = compound_only(lexicon, "good??")
        assert single == compound_only(lexicon, "good")
        assert double > single

    def test_but_clause_reweights(self, lexicon):
        # "good but bad": good halved, bad amplified -> net negative.
        assert compound_only(lexicon, "good but bad") < 0
        assert compound_only(lexicon, "bad but good") > 0

    def test_punctuation_only_token_is_neutral(self, lexicon):
        assert compound_only(lexicon, "!!! ... ???") == 0.0


class TestProportions:
    def test_sum_to_one_when_tokens_present(self, lexicon):
        for text in ["good bad neutral words here", "love hate", "nothing matches"]:
            s = score_text(lexicon, text)
            assert s.positive + s.negative + s.neutral == pytest.approx(1.0, abs=1e-9)

    def test_all_neutral_text(self, lexicon):
        s = score_text(lexicon, "plain words only")
        assert (s.positive, s.negative, s.neutral) == (0.0, 0.0, 1.0)

    def test_ranges(self, lexicon):
        s = score_text(lexicon, "good good bad!")
        for value in (s.positive, s.negative, s.neutral):
            assert 0.0 <= value <= 1.0


class TestNormalization:
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 3.7, 10.0, 100.0])
    def test_odd_symmetry(self, x):
        assert normalize_valence_sum(-x) == pytest.approx(-normalize_valence_sum(x), abs=1e-12)

    def test_monotonicity(self):
        grid = [-20 + 0.5 * i for i in range(81)]
        values = [normalize_valence_sum(x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_range(self):
        for x in [-1e9, -50.0, 0.0, 50.0, 1e9]:
            assert -1.0 <= normalize_valence_sum(x) <= 1.0


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_fuzzed_invariants(text):
    lex = make_lexicon({"good": 2.0, "bad": -2.0, "great": 3.0, "awful": -3.0})
    s = score_text(lex, text)
    assert -1.0 <= s.compound <= 1.0
    for value in (s.positive, s.negative, s.neutral):
        assert 0.0 <= value <= 1.0
    # Determinism: identical input, bit-identical output.
    assert score_text(lex, text) == s


def test_booster_table_signs():
    assert all(abs(v) == 0.293 for v in BOOSTERS.values())


# Reference scorer: the rule-by-rule implementation the one-pass scorer
# replaced, kept verbatim.  It builds the token, lowered and shouting lists,
# then the valence list, then rebuilds that list for "but".
_STRIP_CHARS = string.punctuation + "¡¿‘’“”…"
_EMPTY_SCORE = SentimentScore(0.0, 0.0, 0.0, 0.0)


def _tokenize(text: str) -> list[str]:
    """Whitespace-split, strip edge punctuation unless the token is all punctuation."""
    tokens = []
    for raw in text.split():
        stripped = raw.strip(_STRIP_CHARS)
        tok = stripped if stripped else raw
        if tok:
            tokens.append(tok)
    return tokens


def _is_shouting(token: str) -> bool:
    return token.isupper() and any(c.isalpha() for c in token)


def _punctuation_emphasis(text: str) -> float:
    ep = min(text.count("!"), MAX_EXCLAIM) * EXCLAIM_INCREMENT
    qm_count = text.count("?")
    if qm_count > 1:
        qm = qm_count * QUESTION_INCREMENT if qm_count <= 3 else QUESTION_CAP
    else:
        qm = 0.0
    return ep + qm


def reference_score_text(lexicon, text: str) -> SentimentScore:
    """Score one text.  Pure and total: any UTF-8 string is accepted."""
    tokens = _tokenize(text)
    if not tokens:
        return _EMPTY_SCORE
    lowered = [t.lower() for t in tokens]

    # Caps emphasis applies only when the text mixes cased styles.
    shouting = [_is_shouting(t) for t in tokens]
    cap_differential = any(shouting) and not all(shouting)

    valences = []
    for i, low in enumerate(lowered):
        if low in lexicon.boosters or low not in lexicon.entries:
            valences.append(0.0)
            continue
        v = lexicon.entries[low]
        if v == 0.0:
            # Neutral entry: nothing for boosters/caps/negation to act on.
            valences.append(0.0)
            continue
        if cap_differential and shouting[i]:
            v += CAPS_INCREMENT if v > 0 else -CAPS_INCREMENT
        for dist in range(1, BOOSTER_SCOPE + 1):
            j = i - dist
            if j < 0:
                break
            step = lexicon.boosters.get(lowered[j])
            if step is not None:
                step *= BOOSTER_DISTANCE_SCALE[dist - 1]
                v += -step if v < 0 else step
        if any(lowered[i - d] in lexicon.negations
               for d in range(1, NEGATION_SCOPE + 1) if i - d >= 0):
            v *= NEGATION_FACTOR
        valences.append(v)

    for bi, low in enumerate(lowered):
        if low in lexicon.but_words:
            valences = [v * BUT_BEFORE_FACTOR if k < bi
                        else v * BUT_AFTER_FACTOR if k > bi else v
                        for k, v in enumerate(valences)]
            break

    emphasis = _punctuation_emphasis(text)
    total = sum(valences)
    if total > 0:
        total += emphasis
    elif total < 0:
        total -= emphasis
    compound = normalize_valence_sum(total)

    pos = sum(v + 1.0 for v in valences if v > 0)
    neg = sum(v - 1.0 for v in valences if v < 0)
    neu = float(sum(1 for v in valences if v == 0))
    if pos > abs(neg):
        pos += emphasis
    elif pos < abs(neg):
        neg -= emphasis
    mass = pos + abs(neg) + neu
    if mass == 0:
        return _EMPTY_SCORE
    return SentimentScore(positive=pos / mass, negative=abs(neg) / mass,
                          neutral=neu / mass, compound=compound)


def same_float(a: float, b: float) -> bool:
    """Equal, and equal in the sign of a zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Lexicon words whose valences each example draws: "but" and "no" also have
# the but/negation role, and a dampener right before "tiny" takes it to 0.
LEXICON_WORDS = ("good", "bad", "meh", "tiny", "but", "no")
valences = st.one_of(
    st.sampled_from([0.0, 0.293, -0.293, 0.1, 5e-324, 1.9, -2.5, 4.0]),
    st.floats(min_value=-4.0, max_value=4.0))
lexicons = st.fixed_dictionaries(
    {**{word: valences for word in LEXICON_WORDS},
     "tiny": st.sampled_from([0.293, -0.293])}).map(make_lexicon)

words = st.one_of(
    st.sampled_from(LEXICON_WORDS + ("plain", "BUT")),
    st.sampled_from(sorted(BOOSTERS)),
    st.sampled_from(sorted(NEGATIONS)),
    st.sampled_from(["slightly tiny", "kinda tiny", "very good", "not bad",
                     "good but bad"]),
    st.text(min_size=1, max_size=6))
cased = st.tuples(words, st.sampled_from([str, str.upper, str.lower, str.title,
                                          str.swapcase])).map(lambda wc: wc[1](wc[0]))
edges = st.text(alphabet=_STRIP_CHARS + "!?", max_size=3)
tokens = st.builds(lambda pre, word, post: pre + word + post, edges, cased, edges)
separators = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u3000"])
texts = st.one_of(
    st.lists(st.tuples(tokens, separators), max_size=14).map(
        lambda parts: "".join(token + sep for token, sep in parts)),
    st.text(max_size=80))


class TestMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(lexicons, texts)
    def test_score_text(self, lexicon, text):
        got, want = score_text(lexicon, text), reference_score_text(lexicon, text)
        for field in dataclasses.fields(SentimentScore):
            assert same_float(getattr(got, field.name), getattr(want, field.name)), field.name

    @settings(max_examples=600, deadline=None)
    @given(lexicons, texts)
    def test_compound_only(self, lexicon, text):
        assert same_float(compound_only(lexicon, text),
                          reference_score_text(lexicon, text).compound)

    @pytest.mark.parametrize("text", [
        "tiny slightly tiny",               # 0.293 - 0.293 == 0: a neutral token
        "good but bad but good",            # only the first "but" reweights
        "GOOD day", "GOOD DAY", "NOT very good!!", "kinda not tiny??",
        "no but no", "'but' good", "…good… ¿bad?", "Ⓐ good", ""])
    def test_fixed_cases(self, text):
        lexicon = make_lexicon({"good": 1.9, "bad": -2.5, "tiny": 0.293,
                                "no": -1.2, "but": 0.5})
        assert score_text(lexicon, text) == reference_score_text(lexicon, text)
        assert compound_only(lexicon, text) == reference_score_text(lexicon, text).compound
