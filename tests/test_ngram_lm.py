import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colordecode.ngram_lm import (
    DEFAULT_OOV_LOG10,
    EMPTY_STATE,
    DuplicateColoredToken,
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
    lp, state = backoff_model.score_word(("a",), "a")
    assert lp == -0.3
    assert state == ("a",)


def test_backoff_path(backoff_model):
    # P(b | a) backs off: backoff(a) + P(b) = -0.2 + -0.5 = -0.7
    lp, state = backoff_model.score_word(("a",), "b")
    assert lp == pytest.approx(-0.7, abs=1e-12)
    assert state == ("b",)


def test_backoff_from_context_without_entry(backoff_model):
    # ("b", "a") missing; backoff(b) + P(a) = -0.5 + -1.0 = -1.5
    lp, _ = backoff_model.score_word(("b",), "a")
    assert lp == pytest.approx(-1.5, abs=1e-12)


def test_empty_context_unigram(backoff_model):
    lp, state = backoff_model.score_word(EMPTY_STATE, "a")
    assert lp == -1.0
    assert state == ("a",)


def test_oov_penalty(backoff_model):
    lp, state = backoff_model.score_word(("a",), "zzz")
    assert lp == DEFAULT_OOV_LOG10
    lp2, _ = backoff_model.score_word(EMPTY_STATE, "zzz", oov_log10=-42.0)
    assert lp2 == -42.0
    # OOV words still advance the context window.
    assert state == ("zzz",)


def test_context_truncated_to_order(backoff_model):
    long_state = ("x", "y", "a")
    lp, state = backoff_model.score_word(long_state, "a")
    assert lp == -0.3  # only the last (order-1) tokens matter
    assert state == ("a",)


def test_advance_truncates():
    model = NGramModel(max_order=3, entries={("a",): (-0.5, None)})
    state = EMPTY_STATE
    for tok in ["a", "b", "c", "d"]:
        state = model.advance(state, tok)
    assert state == ("c", "d")


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
    """Threaded context scoring equals scoring from the raw history, for
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


BIGRAM_HEAD = "\\data\\\nngram 1=1\nngram 2=1\n\\1-grams:\n"
# malformed ARPA text -> the line and the message of its error
MALFORMED_ARPA = {
    "ngram 1=1\n\\1-grams:\n-0.5 a\n\\end\\\n": (1, "line 1: expected \\data\\ header"),
    "": (None, "expected \\data\\ header"),
    "\\data\\\nngram 1=bogus\n\\1-grams:\n-0.5 a\n\\end\\\n": (
        None, "no ngram count lines after \\data\\"
    ),
    "\\data\\\nngram 1=1\nngram 1=2\n": (3, "line 3: repeated count for order 1"),
    "\\data\\\nngram 2=1\n\\2-grams:\n-0.5 a b\n\\end\\\n": (
        None, "non-contiguous orders: missing ngram 1= line"
    ),
    "\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n\\end\\\n": (
        None, "\\1-grams: section has 1 entries, header declared 2"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\nnope a\n\\end\\\n": (
        4, "line 4: bad log probability 'nope'"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n0.5 a\n\\end\\\n": (
        4, "line 4: positive log probability 0.5"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\nnan a\n\\end\\\n": (
        4, "line 4: log probability is NaN"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\ninf a\n\\end\\\n": (
        4, "line 4: positive log probability inf"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n-0.4 a\n\\end\\\n": (
        5, "line 5: duplicate entry 'a'"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5\n\\end\\\n": (
        4, "line 4: expected 2 or 3 fields, got 1"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\nfoo\n\\end\\\n": (
        5, "line 5: expected 2 or 3 fields, got 1"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n": (None, "missing \\end\\"),
    "\\data\\\nngram 1=1\n\\2-grams:\n": (3, "line 3: section for undeclared order 2"),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n\\1-grams:\n": (
        5, "line 5: duplicate \\1-grams: section"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n\\3-grams:\n": (
        5, "line 5: section for undeclared order 3"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\nend\n": (
        5, "line 5: expected 2 or 3 fields, got 1"
    ),
    "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n\\end\\ x\n": (
        5, "line 5: unexpected content '\\\\end\\\\ x'"
    ),
    BIGRAM_HEAD + "-0.5 a\n\\end\\\n": (None, "missing \\2-grams: section"),
    BIGRAM_HEAD + "-0.5 a\n\\2-grams:\n-0.5 a b -0.1\n\\end\\\n": (
        7, "line 7: backoff weight on highest-order entry"
    ),
    BIGRAM_HEAD + "-0.5 a inf\n\\2-grams:\n-0.5 a a\n\\end\\\n": (
        5, "line 5: infinite backoff weight"
    ),
    BIGRAM_HEAD + "-0.5 a -inf\n\\2-grams:\n-0.5 a a\n\\end\\\n": (
        5, "line 5: infinite backoff weight"
    ),
    BIGRAM_HEAD + "-0.5 a nan\n\\2-grams:\n-0.5 a a\n\\end\\\n": (
        5, "line 5: backoff weight is NaN"
    ),
    BIGRAM_HEAD + "-0.5 a x1\n\\2-grams:\n-0.5 a a\n\\end\\\n": (
        5, "line 5: bad backoff weight 'x1'"
    ),
    (
        "\\data\\\nngram 1=1\nngram 2=2\n\\1-grams:\n-0.5 a -0.1\n"
        "\\2-grams:\n-0.5 a a\n-0.4 a a\n\\end\\\n"
    ): (8, "line 8: duplicate entry 'a a'"),
    (
        "\\data\\\nngram 1=1\nngram 3=1\n\\1-grams:\n-0.5 a\n"
        "\\3-grams:\n-0.5 a a a\n\\end\\\n"
    ): (None, "non-contiguous orders: missing ngram 2= line"),
    BIGRAM_HEAD + "-0.5 a\n\\2-grams:\n-0.2 b a\n\\end\\\n": (
        None, "2-gram 'b a' lacks prefix entry 'b'"
    ),
    # both prefixes missing: the shortest is named
    (
        "\\data\\\nngram 1=1\nngram 2=1\nngram 3=1\n\\1-grams:\n-0.5 a -0.1\n"
        "\\2-grams:\n-0.5 a a -0.1\n\\3-grams:\n-0.5 b c a\n\\end\\\n"
    ): (None, "3-gram 'b c a' lacks prefix entry 'b'"),
    # the 3-gram's immediate prefix is present but its unigram prefix
    # is not; the 3-gram comes first, so it is the one named
    (
        "\\data\\\nngram 1=1\nngram 2=1\nngram 3=1\n\\1-grams:\n-0.5 b -0.1\n"
        "\\3-grams:\n-0.5 a b b\n\\2-grams:\n-0.5 a b -0.1\n\\end\\\n"
    ): (None, "3-gram 'a b b' lacks prefix entry 'a'"),
}


@pytest.mark.parametrize(
    "text, line", [(text, line) for text, (line, _) in MALFORMED_ARPA.items()]
)
def test_parse_rejects_malformed(text, line):
    with pytest.raises(MalformedArpa) as exc:
        parse_arpa(text)
    assert exc.value.line == line
    assert str(exc.value) == MALFORMED_ARPA[text][1]


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


def test_merge_colored_needs_a_model():
    with pytest.raises(ValueError, match="at least one model"):
        merge_colored([])


def test_merge_colored_duplicate_rejected():
    a = NGramModel(max_order=1, entries={("w",): (-1.0, None)})
    b = NGramModel(max_order=1, entries={("w",): (-2.0, None)})
    with pytest.raises(DuplicateColoredToken):
        merge_colored([(a, 1), (b, 1)])


def _merge_per_token(models):
    """Reference merge: every token renamed where it occurs, every
    colored key looked up before it is added. Returns the entries and
    the first colored n-gram met twice (None if there is none)."""
    merged = {}
    for model, color in models:
        for key, value in model.entries.items():
            colored = tuple(color_token(tok, color) for tok in key)
            if colored in merged:
                return merged, " ".join(colored)
            merged[colored] = value
    return merged, None


def test_merge_colored_matches_per_token_reference():
    """On random models, some not prefix-closed and some sharing a
    color, the merge holds the reference's entries in the reference's
    order, or names the same first collision."""
    rng = random.Random(11)
    tokens = ["a", "b", "c", "1:a", "a:1", ""]
    collisions = 0
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            order = rng.randint(1, 3)
            entries = {}
            for _ in range(rng.randint(1, 12)):
                key = tuple(rng.choice(tokens) for _ in range(rng.randint(1, order)))
                entries[key] = (rng.uniform(-3.0, 0.0), rng.choice([None, -0.5]))
            pairs.append((NGramModel(max_order=order, entries=entries), rng.randint(0, 2)))
        expected, collision = _merge_per_token(pairs)
        if collision is not None:
            collisions += 1
            with pytest.raises(DuplicateColoredToken) as exc:
                merge_colored(iter(pairs))
            assert str(exc.value) == f"colored n-gram {collision!r} appears twice"
            continue
        merged = merge_colored(iter(pairs))
        assert merged.max_order == max(m.max_order for m, _ in pairs)
        assert list(merged.entries.items()) == list(expected.items())
        for key, value in merged.entries.items():
            assert value is expected[key]
    assert 0 < collisions < 300


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
