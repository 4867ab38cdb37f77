"""Colored lexicons: alphabets, per-color spelling tries, and the word
grammar the decoder walks.

A "color" identifies which lexicon a word came from. Every color shares
the same base character set; the decoder distinguishes ``(character,
color)`` pairs so a finished transcript carries word provenance. The word
separator, when configured, belongs to no lexicon: it takes the color of
the character before it (color 0 at the very start of an utterance).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = [
    "UnknownChar",
    "InvalidWordChar",
    "ColoredAlphabet",
    "TrieNode",
    "LexiconTrie",
    "build_trie",
    "WordState",
    "WORD_START",
    "Extension",
    "word_successors",
    "finish_word",
]


class UnknownChar(KeyError):
    """A character outside the alphabet was looked up."""


class InvalidWordChar(ValueError):
    """A lexicon word contains a character it may not (outside the
    alphabet, or the separator itself)."""


class ColoredAlphabet:
    """Base characters shared by all colors, plus the blank.

    Acoustic model columns are laid out as the base characters in order
    followed by blank, so ``blank_index == len(base_chars)`` and a logits
    row has ``num_columns`` entries. ``word_separator`` must be one of the
    base characters, or None when word boundaries are implicit (single
    words per utterance, or unsegmented text).
    """

    __slots__ = ("base_chars", "num_colors", "word_separator", "_index")

    def __init__(
        self,
        base_chars: Sequence[str],
        num_colors: int,
        word_separator: str | None,
    ):
        chars = tuple(base_chars)
        if not chars:
            raise ValueError("alphabet needs at least one character")
        if any(len(c) != 1 for c in chars):
            raise ValueError("alphabet entries must be single characters")
        if len(set(chars)) != len(chars):
            raise ValueError("alphabet has repeated characters")
        if num_colors < 1:
            raise ValueError("need at least one color")
        if word_separator is not None and word_separator not in chars:
            raise ValueError("word separator must be in the alphabet")
        self.base_chars = chars
        self.num_colors = num_colors
        self.word_separator = word_separator
        self._index = {c: i for i, c in enumerate(chars)}

    @property
    def size(self) -> int:
        return len(self.base_chars)

    @property
    def blank_index(self) -> int:
        return len(self.base_chars)

    @property
    def num_columns(self) -> int:
        return len(self.base_chars) + 1

    @property
    def separator_column(self) -> int | None:
        if self.word_separator is None:
            return None
        return self._index[self.word_separator]

    def char_column(self, char: str) -> int:
        try:
            return self._index[char]
        except KeyError:
            raise UnknownChar(char) from None


class TrieNode:
    __slots__ = ("children", "word")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.word: str | None = None


class LexiconTrie:
    """Spellings of one color's lexicon, keyed by alphabet column, and
    ``words``, the spellings it holds."""

    __slots__ = ("color", "root", "words")

    def __init__(self, color: int):
        self.color = color
        self.root = TrieNode()
        self.words: frozenset[str] = frozenset()


def build_trie(
    alphabet: ColoredAlphabet, color: int, words: Sequence[str]
) -> LexiconTrie:
    """Build a trie from lowercase spellings.

    Words are lowercased on the way in. Empty words, words containing the
    separator, and words with out-of-alphabet characters are rejected.
    """
    trie = LexiconTrie(color)
    sep = alphabet.word_separator
    held = set()
    for raw in words:
        word = raw.lower()
        if not word:
            raise InvalidWordChar("empty word")
        if sep is not None and sep in word:
            raise InvalidWordChar(f"word {word!r} contains the separator")
        node = trie.root
        for char in word:
            col = alphabet._index.get(char)
            if col is None:
                raise InvalidWordChar(
                    f"word {word!r} contains {char!r} outside the alphabet"
                )
            node = node.children.setdefault(col, TrieNode())
        node.word = word
        held.add(word)
    trie.words = frozenset(held)
    return trie


class WordState(NamedTuple):
    """What the word grammar needs to know about a prefix.

    ``in_word`` is True while a word is being spelled and False at a word
    boundary. ``color`` is the color being spelled (at a boundary: the
    color of the previous character, for separator inheritance; None only
    at the utterance start). ``node`` is the trie position of the partial
    word, or None at a boundary, off-lexicon, or in unconstrained mode.

    The state does not hold the spelling itself, so there are at most
    ``colors * (trie nodes + 2) + 1`` states and a decoder can build each
    one's successor list once. Whoever walks the grammar keeps the
    characters of the pending word; a trie node's ``word`` equals the
    spelling of its path, so only a word that left every trie (or an
    unconstrained one) needs them.
    """

    color: int | None
    node: TrieNode | None
    in_word: bool


WORD_START = WordState(None, None, False)


class Extension(NamedTuple):
    """One legal next character from a WordState.

    ``completes`` is True when this character (always the separator)
    ends the pending word. ``word`` is that word when the trie names it;
    it is None for a word spelled off-lexicon or unconstrained, which the
    caller spells from its own record of the pending characters.
    ``off_trie`` marks the in-word characters that off-lexicon spelling
    adds, off every trie; unconstrained, no character is off-trie.
    """

    col: int
    color: int
    state: WordState
    completes: bool = False
    word: str | None = None
    off_trie: bool = False


def word_successors(
    alphabet: ColoredAlphabet,
    tries: Sequence[LexiconTrie] | None,
    state: WordState,
    allow_off_lexicon: bool = False,
) -> list[Extension]:
    """Every character extension the word grammar permits from ``state``.

    With tries, mid-word successors follow trie edges (plus the separator
    when the node spells a complete word); boundary successors open every
    color's first characters. ``allow_off_lexicon`` additionally permits
    any same-color character mid-word, with the separator then completing
    an out-of-lexicon word. Boundaries never start an off-lexicon word:
    the first character must be on some trie, which keeps the color
    assignment grounded.

    With ``tries=None`` the grammar is unconstrained: one color (0), any
    character anywhere, the separator delimiting words.
    """
    sep_col = alphabet.separator_column
    out: list[Extension] = []

    if tries is None:
        prev_color = state.color if state.color is not None else 0
        boundary = WordState(prev_color, None, False)
        spelling = WordState(0, None, True)
        for col in range(alphabet.size):
            if col == sep_col:
                # a separator completes the pending word; at a boundary it
                # is just consumed (its color inherited from the left)
                out.append(Extension(col, prev_color, boundary, state.in_word))
            else:
                out.append(Extension(col, 0, spelling))
        return out

    if not state.in_word:
        # word boundary: any lexicon may start a word, and the separator
        # may repeat (colored like the previous character, 0 at the start)
        for trie in tries:
            for col, node in trie.root.children.items():
                nxt = WordState(trie.color, node, True)
                out.append(Extension(col, trie.color, nxt))
        if sep_col is not None:
            color = state.color if state.color is not None else 0
            out.append(Extension(sep_col, color, WordState(color, None, False)))
        return out

    color = state.color
    assert color is not None
    node = state.node
    boundary = WordState(color, None, False)

    if node is not None:
        for col, child in node.children.items():
            out.append(Extension(col, color, WordState(color, child, True)))
        if sep_col is not None and node.word is not None:
            out.append(Extension(sep_col, color, boundary, True, node.word))

    if allow_off_lexicon:
        on_trie = set()
        if node is not None:
            on_trie = set(node.children)
            if sep_col is not None and node.word is not None:
                on_trie.add(sep_col)
        off_state = WordState(color, None, True)
        for col in range(alphabet.size):
            if col in on_trie:
                continue
            if col == sep_col:
                out.append(Extension(sep_col, color, boundary, True))
            else:
                out.append(Extension(col, color, off_state, off_trie=True))
    return out


def finish_word(
    tries: Sequence[LexiconTrie] | None,
    state: WordState,
    spelled: str,
    allow_off_lexicon: bool = False,
) -> tuple[str, int] | None:
    """Resolve a partial word at the end of the utterance.

    ``spelled`` is the pending word's characters. Returns (word,
    color) when the partial spells something reportable: a word-final
    trie node, an unconstrained-mode string, or (with
    ``allow_off_lexicon``) any leftover spelling. Returns None when there
    is nothing pending or the spelling must be dropped.
    """
    if not state.in_word:
        return None
    if tries is None:
        return spelled, 0
    color = state.color
    assert color is not None
    if state.node is not None and state.node.word is not None:
        return state.node.word, color
    if allow_off_lexicon:
        return spelled, color
    return None
