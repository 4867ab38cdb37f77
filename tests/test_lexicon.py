import random

import pytest

from colordecode.lexicon import (
    WORD_START,
    ColoredAlphabet,
    InvalidWordChar,
    UnknownChar,
    WordState,
    build_trie,
    finish_word,
    word_successors,
)
from conftest import trie_words

# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------


def test_alphabet_layout():
    ab = ColoredAlphabet(("a", "b", " "), 2, " ")
    assert ab.size == 3
    assert ab.blank_index == 3
    assert ab.num_columns == 4
    assert ab.char_column("b") == 1
    assert ab.separator_column == 2


def test_alphabet_without_separator():
    ab = ColoredAlphabet(("a", "b"), 1, None)
    assert ab.separator_column is None


def test_unknown_char_raises():
    ab = ColoredAlphabet(("a", "b"), 1, None)
    with pytest.raises(UnknownChar):
        ab.char_column("z")


@pytest.mark.parametrize(
    "chars, colors, sep",
    [
        ((), 1, None),
        (("ab",), 1, None),
        (("a", "a"), 1, None),
        (("a",), 0, None),
        (("a",), 1, "x"),
    ],
)
def test_alphabet_validation(chars, colors, sep):
    with pytest.raises(ValueError):
        ColoredAlphabet(chars, colors, sep)


# ---------------------------------------------------------------------------
# Trie
# ---------------------------------------------------------------------------


def test_trie_shares_prefixes():
    ab = ColoredAlphabet(("a", "b"), 1, None)
    trie = build_trie(ab, 0, ["ab", "a"])
    root = trie.root
    assert set(root.children) == {0}
    a_node = root.children[0]
    assert a_node.word == "a"
    assert set(a_node.children) == {1}
    assert a_node.children[1].word == "ab"
    assert trie_words(trie) == trie.words == {"a", "ab"}


def test_trie_lowercases():
    ab = ColoredAlphabet(("a", "b"), 1, None)
    trie = build_trie(ab, 0, ["AB"])
    assert trie_words(trie) == trie.words == {"ab"}
    assert isinstance(trie.words, frozenset)


@pytest.mark.parametrize("word", ["", "a b", "az"])
def test_trie_rejects_bad_words(word):
    ab = ColoredAlphabet(("a", "b", " "), 1, " ")
    with pytest.raises(InvalidWordChar):
        build_trie(ab, 0, [word])


def test_trie_membership_matches_set():
    rng = random.Random(11)
    ab = ColoredAlphabet(("a", "b", "c"), 1, None)
    words = {
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        for _ in range(30)
    }
    trie = build_trie(ab, 0, sorted(words))
    probes = {
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        for _ in range(200)
    }
    assert trie_words(trie) == trie.words == words
    for w in probes | words:
        node = trie.root
        for c in w:
            node = node.children.get(ab.char_column(c))
            if node is None:
                break
        assert (node is not None and node.word == w) == (w in words)


# ---------------------------------------------------------------------------
# Word grammar: constrained
# ---------------------------------------------------------------------------


def _next_set(alphabet, tries, state, allow=False):
    return {
        (alphabet.base_chars[e.col], e.color)
        for e in word_successors(alphabet, tries, state, allow)
    }


def test_boundary_opens_every_color():
    ab = ColoredAlphabet(("a", "b"), 2, None)
    tries = [build_trie(ab, 0, ["ab"]), build_trie(ab, 1, ["b"])]
    assert _next_set(ab, tries, WORD_START) == {("a", 0), ("b", 1)}


def test_midword_follows_trie():
    ab = ColoredAlphabet(("a", "b"), 2, None)
    tries = [build_trie(ab, 0, ["ab"]), build_trie(ab, 1, ["b"])]
    state = WordState(0, tries[0].root.children[0], True)
    assert _next_set(ab, tries, state) == {("b", 0)}


def test_separator_completes_word_with_inherited_color():
    ab = ColoredAlphabet(("a", "b", " "), 2, " ")
    tries = [build_trie(ab, 0, ["a"]), build_trie(ab, 1, ["b"])]
    state = WordState(1, tries[1].root.children[1], True)
    exts = word_successors(ab, tries, state)
    seps = [e for e in exts if e.col == ab.separator_column]
    assert len(seps) == 1
    assert seps[0].color == 1
    assert seps[0].completes and seps[0].word == "b"
    assert seps[0].state == WordState(1, None, False)


def test_boundary_offers_separator():
    ab = ColoredAlphabet(("a", "b", " "), 2, " ")
    tries = [build_trie(ab, 0, ["a"]), build_trie(ab, 1, ["b"])]
    # Fresh utterance start: the separator is allowed and takes color 0.
    start = _next_set(ab, tries, WORD_START)
    assert (" ", 0) in start
    # After finishing a color-1 word, a repeated separator keeps color 1.
    after = word_successors(ab, tries, WordState(1, None, False))
    seps = [e for e in after if e.col == ab.separator_column]
    assert len(seps) == 1 and seps[0].color == 1
    assert not seps[0].completes


def test_separator_not_offered_midword_unless_final():
    ab = ColoredAlphabet(("a", "b", " "), 1, " ")
    tries = [build_trie(ab, 0, ["ab"])]
    state = WordState(0, tries[0].root.children[0], True)  # "a" of "ab"
    assert _next_set(ab, tries, state) == {("b", 0)}


def test_midword_color_never_changes():
    ab = ColoredAlphabet(("a", "b", "c", " "), 3, " ")
    tries = [
        build_trie(ab, 0, ["ab", "ac"]),
        build_trie(ab, 1, ["ba"]),
        build_trie(ab, 2, ["cab", "c"]),
    ]
    stack = [WORD_START]
    visited = {WORD_START}
    seen = 0
    while stack:
        state = stack.pop()
        for ext in word_successors(ab, tries, state):
            if state.in_word:
                assert ext.color == state.color
                seen += 1
            if ext.state not in visited:
                visited.add(ext.state)
                stack.append(ext.state)
    assert seen > 0


# ---------------------------------------------------------------------------
# Word grammar: off-lexicon and unconstrained
# ---------------------------------------------------------------------------


def test_off_lexicon_midword_allows_same_color_chars():
    ab = ColoredAlphabet(("a", "b", " "), 2, " ")
    tries = [build_trie(ab, 0, ["ab"]), build_trie(ab, 1, ["b"])]
    state = WordState(0, tries[0].root.children[0], True)
    exts = word_successors(ab, tries, state, allow_off_lexicon=True)
    by_char = {(ab.base_chars[e.col], e.color) for e in exts}
    # trie edge "b", off-trie repeat "a", and the separator completing an
    # off-lexicon word ("a" alone is not in color 0), which the caller
    # spells: the state does not hold its columns
    assert by_char == {("b", 0), ("a", 0), (" ", 0)}
    sep = [e for e in exts if e.col == ab.separator_column][0]
    assert sep.completes and sep.word is None
    off = [e for e in exts if e.col == 0][0]
    assert off.state == WordState(0, None, True)


def test_boundary_never_starts_off_lexicon():
    ab = ColoredAlphabet(("a", "b", "c", " "), 2, " ")
    tries = [build_trie(ab, 0, ["a"]), build_trie(ab, 1, ["b"])]
    exts = word_successors(ab, tries, WORD_START, allow_off_lexicon=True)
    assert {(ab.base_chars[e.col], e.color) for e in exts} == {
        ("a", 0),
        ("b", 1),
        (" ", 0),
    }


def test_unconstrained_mode_allows_everything():
    ab = ColoredAlphabet(("a", "b", " "), 1, " ")
    start = word_successors(ab, None, WORD_START)
    assert {(ab.base_chars[e.col], e.color) for e in start} == {
        ("a", 0),
        ("b", 0),
        (" ", 0),
    }
    sep_at_start = [e for e in start if e.col == ab.separator_column][0]
    assert not sep_at_start.completes
    mid = word_successors(ab, None, WordState(0, None, True))
    sep = [e for e in mid if e.col == ab.separator_column][0]
    assert sep.completes and sep.word is None


def test_off_trie_partial_successors():
    ab = ColoredAlphabet(("a", "b"), 1, None)
    tries = [build_trie(ab, 0, ["ab"])]
    off_trie_b = WordState(0, None, True)
    assert _next_set(ab, tries, off_trie_b) == set()
    assert _next_set(ab, tries, off_trie_b, allow=True) == {("a", 0), ("b", 0)}


def test_get_next_chars_boundary_separator_inherits_color():
    ab = ColoredAlphabet(("a", "b", " "), 2, " ")
    tries = [build_trie(ab, 0, ["a"]), build_trie(ab, 1, ["b"])]
    assert (" ", 1) in _next_set(ab, tries, WordState(1, None, False))
    assert (" ", 0) in _next_set(ab, tries, WORD_START)


@pytest.mark.parametrize("sep", [" ", None])
@pytest.mark.parametrize("seed", range(4))
def test_off_trie_marks_exactly_the_in_word_extensions_with_no_trie_node(seed, sep):
    """Over every state reachable from the start, with tries, an
    extension is marked ``off_trie`` exactly when its state is inside a
    word and on no trie node; unconstrained, none is marked."""
    rng = random.Random(seed)
    ab = ColoredAlphabet(("a", "b", "c", " "), 2, sep)
    tries = [
        build_trie(ab, color, sorted({
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        }))
        for color in range(2)
    ]
    for grammar in (tries, None):
        for allow in (False, True):
            seen = {WORD_START}
            todo = [WORD_START]
            marked = 0
            while todo:
                for ext in word_successors(ab, grammar, todo.pop(), allow):
                    state = ext.state
                    off = grammar is not None and state.in_word and state.node is None
                    assert ext.off_trie == off
                    marked += ext.off_trie
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
            if grammar is None or not allow:
                assert marked == 0


def test_get_next_chars_unconstrained():
    ab = ColoredAlphabet(("a", "b", " "), 1, " ")
    assert _next_set(ab, None, WordState(0, None, True)) == {
        ("a", 0),
        ("b", 0),
        (" ", 0),
    }


# ---------------------------------------------------------------------------
# finish_word
# ---------------------------------------------------------------------------


def test_finish_word_variants():
    ab = ColoredAlphabet(("a", "b"), 2, None)
    tries = [build_trie(ab, 0, ["ab"]), build_trie(ab, 1, ["b"])]
    node_a = tries[0].root.children[0]
    node_ab = node_a.children[1]
    assert finish_word(tries, WordState(0, node_ab, True), "ab") == ("ab", 0)
    assert finish_word(tries, WordState(0, node_a, True), "a") is None
    assert finish_word(tries, WordState(0, node_a, True), "a", True) == ("a", 0)
    assert finish_word(tries, WordState(0, None, True), "bb", True) == ("bb", 0)
    assert finish_word(tries, WordState(1, None, False), "") is None
    assert finish_word(None, WordState(0, None, True), "ab") == ("ab", 0)
    assert finish_word(tries, WORD_START, "") is None

