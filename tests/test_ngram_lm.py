import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colordecode.ngram_lm import (
    DEFAULT_OOV_LOG10,
    EMPTY_STATE,
    DuplicateColoredToken,
    LmState,
    MalformedArpa,
    NGramModel,
    color_token,
    merge_colored,
    parse_arpa,
    serialize_arpa,
)

# ---------------------------------------------------------------------------
# Colored token helpers
# ---------------------------------------------------------------------------


def test_color_token_round_trip():
    assert color_token("fever", 1) == "1:fever"
    # A token that already looks colored is renamed again, not re-tagged.
    assert color_token("3:x", 2) == "2:3:x"


# ---------------------------------------------------------------------------
# Backoff scoring
# ---------------------------------------------------------------------------


@pytest.fixture
def backoff_model() -> NGramModel:
    entries = {
        ("a",): (-1.0, -0.2),
        ("b",): (-0.5, -0.5),
        ("a", "a"): (-0.3, None),
    }
    return NGramModel(max_order=2, entries=entries)


def test_direct_hit(backoff_model):
    lp, state = backoff_model.score_word(LmState(("a",)), "a")
    assert lp == -0.3
    assert state == LmState(("a",))


def test_backoff_path(backoff_model):
    # P(b | a) backs off: backoff(a) + P(b) = -0.2 + -0.5 = -0.7
    lp, state = backoff_model.score_word(LmState(("a",)), "b")
    assert lp == pytest.approx(-0.7, abs=1e-12)
    assert state == LmState(("b",))


def test_backoff_from_context_without_entry(backoff_model):
    # ("b", "a") missing; backoff(b) + P(a) = -0.5 + -1.0 = -1.5
    lp, _ = backoff_model.score_word(LmState(("b",)), "a")
    assert lp == pytest.approx(-1.5, abs=1e-12)


def test_empty_context_unigram(backoff_model):
    lp, state = backoff_model.score_word(EMPTY_STATE, "a")
    assert lp == -1.0
    assert state == LmState(("a",))


def test_oov_penalty(backoff_model):
    lp, state = backoff_model.score_word(LmState(("a",)), "zzz")
    assert lp == DEFAULT_OOV_LOG10
    lp2, _ = backoff_model.score_word(EMPTY_STATE, "zzz", oov_log10=-42.0)
    assert lp2 == -42.0
    # OOV words still advance the context window.
    assert state == LmState(("zzz",))


def test_context_truncated_to_order(backoff_model):
    long_state = LmState(("x", "y", "a"))
    lp, state = backoff_model.score_word(long_state, "a")
    assert lp == -0.3  # only the last (order-1) tokens matter
    assert state.context == ("a",)


def test_advance_truncates():
    model = NGramModel(max_order=3, entries={("a",): (-0.5, None)})
    state = EMPTY_STATE
    for tok in ["a", "b", "c", "d"]:
        state = model.advance(state, tok)
    assert state.context == ("c", "d")


def test_score_word_chain(backoff_model):
    lp = 0.0
    state = EMPTY_STATE
    for word in ["a", "a", "b"]:
        step, state = backoff_model.score_word(state, word)
        lp += step
    # P(a) + P(a|a) + P(b|a) = -1.0 + -0.3 + -0.7
    assert lp == pytest.approx(-2.0, abs=1e-12)


def _naive_backoff_score(model: NGramModel, history: list[str], word: str,
                         oov_log10: float = DEFAULT_OOV_LOG10) -> float:
    """Reference scorer that works from the full history list."""
    if (word,) not in model.entries:
        return oov_log10
    ctx = tuple(history[-(model.max_order - 1):]) if model.max_order > 1 else ()
    penalty = 0.0
    while ctx:
        if ctx + (word,) in model.entries:
            return penalty + model.entries[ctx + (word,)][0]
        entry = model.entries.get(ctx)
        if entry is not None and entry[1] is not None:
            penalty += entry[1]
        ctx = ctx[1:]
    return penalty + model.entries[(word,)][0]


def _random_trigram_model(rng: random.Random) -> NGramModel:
    tokens = ["x", "y", "z"]
    entries = {}
    for t in tokens:
        entries[(t,)] = (rng.uniform(-2.0, -0.1), rng.uniform(-0.8, 0.0))
    bigrams = []
    for a in tokens:
        for b in tokens:
            if rng.random() < 0.6:
                entries[(a, b)] = (rng.uniform(-2.0, -0.1),
                                   rng.uniform(-0.8, 0.0))
                bigrams.append((a, b))
    for a, b in bigrams:
        for c in tokens:
            if rng.random() < 0.5:
                entries[(a, b, c)] = (rng.uniform(-2.0, -0.1), None)
    return NGramModel(max_order=3, entries=entries)


def test_incremental_state_matches_full_history_walk():
    """Threaded LmState scoring equals scoring from the raw history, for
    every history up to depth 5 over a random trigram model."""
    rng = random.Random(7)
    for _ in range(5):
        model = _random_trigram_model(rng)
        stack = [([], EMPTY_STATE)]
        while stack:
            history, state = stack.pop()
            for word in ["x", "y", "z"]:
                lp, nxt = model.score_word(state, word)
                assert lp == _naive_backoff_score(model, history, word), (
                    history,
                    word,
                )
                if len(history) < 5:
                    stack.append((history + [word], nxt))


# ---------------------------------------------------------------------------
# ARPA parsing and serialization
# ---------------------------------------------------------------------------


def test_round_trip_bit_identical(bigram_fixture_model):
    text = serialize_arpa(bigram_fixture_model)
    again = parse_arpa(text)
    assert again == bigram_fixture_model
    # Serialization is a fixed point (byte-identical the second time).
    assert serialize_arpa(again) == text


def test_round_trip_preserves_neg_inf():
    model = NGramModel(
        max_order=1,
        entries={("a",): (float("-inf"), None), ("b",): (-0.1, None)},
    )
    again = parse_arpa(serialize_arpa(model))
    assert again.entries[("a",)][0] == float("-inf")


def test_parse_minimal_unigram():
    text = "\n\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\thello\n\n\\end\\\n"
    model = parse_arpa(text)
    assert model.max_order == 1
    assert model.entries == {("hello",): (-0.5, None)}


def test_parse_ignores_blank_lines_and_whitespace():
    text = (
        "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n"
        "-0.5 a -0.1\n-0.7 b\n\n\\2-grams:\n-0.2 a b\n\n\\end\\\n"
    )
    model = parse_arpa(text)
    assert model.entries[("a",)] == (-0.5, -0.1)
    assert model.entries[("b",)] == (-0.7, None)
    assert model.entries[("a", "b")] == (-0.2, None)


@pytest.mark.parametrize(
    "text, line",
    [
        ("ngram 1=1\n\\1-grams:\n-0.5 a\n\\end\\\n", 1),  # missing \data\
        ("\\data\\\nngram 1=bogus\n\\1-grams:\n-0.5 a\n\\end\\\n", None),
        ("\\data\\\nngram 2=1\n\\2-grams:\n-0.5 a b\n\\end\\\n", None),
        ("\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n\\end\\\n", None),  # count
        ("\\data\\\nngram 1=1\n\\1-grams:\nnope a\n\\end\\\n", 4),
        ("\\data\\\nngram 1=1\n\\1-grams:\n0.5 a\n\\end\\\n", 4),  # positive
        ("\\data\\\nngram 1=1\n\\1-grams:\nnan a\n\\end\\\n", 4),
        ("\\data\\\nngram 1=1\n\\1-grams:\ninf a\n\\end\\\n", 4),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n-0.4 a\n\\end\\\n", 5),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5\n\\end\\\n", 4),  # no token
        ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n", None),  # missing end
        (
            "\\data\\\nngram 1=1\nngram 2=1\n\\1-grams:\n-0.5 a\n"
            "\\2-grams:\n-0.5 a b -0.1\n\\end\\\n",
            7,
        ),  # backoff on highest order
        (
            "\\data\\\nngram 1=1\nngram 3=1\n\\1-grams:\n-0.5 a\n"
            "\\3-grams:\n-0.5 a a a\n\\end\\\n",
            None,
        ),  # non-contiguous orders
    ],
)
def test_parse_rejects_malformed(text, line):
    with pytest.raises(MalformedArpa) as exc:
        parse_arpa(text)
    if line is not None:
        assert exc.value.line == line


def test_parse_rejects_bigram_without_unigram_prefix():
    text = (
        "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5 a\n\n"
        "\\2-grams:\n-0.2 b a\n\n\\end\\\n"
    )
    with pytest.raises(MalformedArpa):
        parse_arpa(text)


token_st = st.text(alphabet="abc", min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_model_round_trip(data):
    tokens = data.draw(
        st.lists(token_st, min_size=1, max_size=5, unique=True)
    )
    max_order = data.draw(st.integers(min_value=1, max_value=3))
    prob = st.floats(min_value=-8.0, max_value=-0.001)
    backoff = st.floats(min_value=-2.0, max_value=0.0)
    entries = {}
    prev = [()]
    for order in range(1, max_order + 1):
        grams = []
        for ctx in prev:
            for tok in tokens:
                gram = ctx + (tok,)
                if order == 1 or data.draw(st.booleans()):
                    bo = data.draw(backoff) if order < max_order else None
                    entries[gram] = (data.draw(prob), bo)
                    grams.append(gram)
        if not grams:
            max_order = order
            break
        prev = grams
    model = NGramModel(max_order=max_order, entries=entries)
    assert parse_arpa(serialize_arpa(model)) == model


# ---------------------------------------------------------------------------
# Colored merge
# ---------------------------------------------------------------------------


def test_merge_colored_prefixes_tokens(bigram_fixture_model):
    uni = NGramModel(max_order=1, entries={("fever",): (-2.0, None)})
    merged = merge_colored([(bigram_fixture_model, 0), (uni, 1)])
    assert merged.max_order == 2
    assert merged.entries[("0:the",)] == bigram_fixture_model.entries[("the",)]
    assert merged.entries[("0:the", "0:cat")] == (
        bigram_fixture_model.entries[("the", "cat")]
    )
    assert merged.entries[("1:fever",)] == (-2.0, None)
    assert ("fever",) not in merged.entries


def test_merge_colored_duplicate_rejected():
    a = NGramModel(max_order=1, entries={("w",): (-1.0, None)})
    b = NGramModel(max_order=1, entries={("w",): (-2.0, None)})
    with pytest.raises(DuplicateColoredToken):
        merge_colored([(a, 1), (b, 1)])


def test_merge_preserves_source_scores_spot_check(bigram_fixture_model):
    jargon = NGramModel(
        max_order=1,
        entries={("fever",): (-1.5, None), ("rash",): (-0.9, None)},
    )
    merged = merge_colored([(bigram_fixture_model, 0), (jargon, 1)])
    lp_src, _ = jargon.score_word(EMPTY_STATE, "rash")
    lp_merged, _ = merged.score_word(EMPTY_STATE, "1:rash")
    assert lp_merged == lp_src
    lp_src2, st_src = bigram_fixture_model.score_word(EMPTY_STATE, "the")
    lp_src3, _ = bigram_fixture_model.score_word(st_src, "cat")
    _, st_m = merged.score_word(EMPTY_STATE, "0:the")
    lp_m3, _ = merged.score_word(st_m, "0:cat")
    assert lp_m3 == lp_src3


def test_vocabulary_property(bigram_fixture_model):
    assert bigram_fixture_model.vocabulary == {"the", "cat", "sat", "</s>"}
