"""Colored CTC prefix beam search.

Hypotheses are colored character prefixes, interned as ``Prefix`` nodes
of a tree. A node holds its parent, the (column, color) label it adds and
its depth, plus the text metadata that is a pure function of the prefix:
the text score ``p_text`` accumulated from the fusion scorer at every
completed word (and per-character penalties for off-lexicon spellings),
the completed words, the grammar state and the scorer state. The
completed words are a chain shared with the ancestors: None at the root
and ``(previous chain, word, color)`` at each node that completes a
word, so a completion costs one link, not a copy of every word before
it, and ``decode`` reads the winner's words back once, at the end.
Each node memoizes its children by label, so extending a live prefix by
the same label always yields the same node. The memo holds weak
references: a node keeps its ancestors alive but not its descendants,
so the tree has no reference cycles and a branch that leaves the beam
is freed as soon as nothing points to it.

A frame scores a child that is not a beam without building it: its
score is its one acoustic mass plus its text score. Only the children
that make the next beam become nodes, or keep the node they still have;
the rest could never be ranked into it. Word deltas are memoized per
utterance by (scorer state, word, color), so a word that completes the
same history again is not rescored. A word that left every trie, or an unconstrained
one, is spelled only when it completes or the utterance ends; the
spelling is then kept on its node, built from its parent's.

The successor table belongs to the grammar, not to the scorer: an entry
is a pure function of the alphabet, the tries, the grammar state and
whether off-lexicon spelling is on. A config holds one table per
setting, fills it on first use and shares it with every utterance it
decodes; ``DecoderConfig.with_scorer`` hands both on to a config for
any other scorer, as a grid search does from point to point.

A grammar state is wide when its extensions cover at least half of the
alphabet's non-blank columns, as every in-word state does with
off-lexicon spelling on; the successor table decides this once per
state, and a node keeps its state's entry from its first expansion on,
so a beam that stays for many frames looks it up once. From the frame's
first wide beam on, a min-heap holds the largest ``beam_width`` lower
bounds found so far on the final scores of distinct candidates: each
beam's larger next mass plus its text score, and every child accepted
since. Once the heap is full its least element, the floor, is at most
the cutoff.

Every beam, narrow or wide, runs one loop over its directly scored
extensions: a child that is a beam is passed over, as it has taken the
extension's mass itself; any other child strictly below the floor is
skipped, and the rest become candidates and, once the heap is started,
bounds. A narrow beam scores all its extensions so. A wide beam scores
so its completing children (a word delta may be positive) and its
on-trie children beside off-trie ones, then walks the remaining columns
from the likeliest down. Those children share one text score, so a
child at column ``c`` scores at most ``(total + row[c]) + text``; IEEE
addition is monotone, so once that falls strictly below the floor no
child of this beam at this or a later column can reach the cutoff, and
the walk stops. A repeat of the last
column with no blank-ending mass adds nothing and is passed over. The
children skipped were below the cutoff, so transcripts and scores are
bit-identical to scoring every extension.

A child that completes a word off its color's trie is priced before it
is spelled. A scorer states the delta it gives every word it does not
know; a config records it per color when it is built, whenever every
word the scorer knows for that color is one of the words that color's
tries hold (with no tries, whenever it knows no word), since an
off-trie spelling is then unknown to it. Such a child scores
``mass + (p_text + delta)`` spelled or not, so one strictly below the
floor is skipped with no spelling and no scorer call; any other is
spelled and scored as before.

A beam is a node holding two acoustic masses in log10, the probability
of all frame paths ending in blank (``p_blank``) and in the prefix's
last character (``p_nonblank``), and its score, acoustic mass times
text score, set once the masses are final. A frame first marks its
beams with its index. Then each beam writes its next masses in two more
slots of the node (``next_b``, ``next_nb``), as the frame still reads
the current ones: its stay and, when its parent is a beam too, the
parent's extension. A prefix has one parent and a state's labels are
distinct, so that is all it takes. Only then do extensions run, and
they make only children that are not beams: one never built, or one
that left the beam and is still alive. When the frame ends each beam
takes its next masses and is scored once; a kept child takes the score
it was ranked by, on the node it still has or else on a new one.

Each frame ends in one call of ``_select``, which keeps the
``beam_width`` best candidates, beams and scored children alike, and
returns them as they are when they fit. It selects, not sorts: when
more candidates tie at the cutoff than fit, only the tied ones are
ordered (shorter, then lexicographically smaller prefix first), since
two candidates of one length compare as their parents do and then as
their labels. Only the children it keeps get nodes, and the next
frame expands exactly what it kept; after the last frame, that is the
beam finishing reads. The selected beams are expanded best first, so
that a wide beam starts the floor high, but the order changes no bit of
the result: every beam's masses are set before any extension runs, and
each child's one mass is its parent's. The cutoff is the
``beam_width``-th best of a multiset, and the floor skips only
candidates strictly below it, however the floor rose, so the same
candidates survive. Finishing takes the minimum over a strict total
order.

A decode takes the log10 view of the logits once, and a frame converts
only its own row of it to Python floats. The non-blank columns ranked
from the likeliest down are argsorted once per utterance, at its first
wide beam; a frame converts its own row of that ranking at its first
wide beam. The memory that grows with the utterance is then the numpy
arrays and the live hypotheses' ancestors, not lists of every frame.

The CTC repeat rule compares raw columns, ignoring color: extending a
prefix with the column it already ends in consumes only the blank-ending
mass, so colors never manufacture acoustic paths that plain CTC would
collapse. Because text metadata is a pure function of the prefix and
every live prefix has exactly one node, a beam's stay and its parent's
extension sum on that node.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from math import log, log1p
from operator import attrgetter
from typing import Sequence

import numpy as np

from .lexicon import (
    ColoredAlphabet,
    LexiconTrie,
    WORD_START,
    WordState,
    finish_word,
    word_successors,
)
from .logmath import LN10, NEG_INF
from .scorers import Scorer

__all__ = [
    "ShapeMismatch",
    "MalformedLogits",
    "LogitsMatrix",
    "ColoredTranscript",
    "DecoderConfig",
    "DecodeStats",
    "decode",
]

_ROW_SUM_TOL = 1e-6
# the beam width of a config, a runtime, a grid search and the CLI when
# none is given
DEFAULT_BEAM_WIDTH = 64
# the key ``decode`` expands a frame's beams by, best first
_EXPANSION_KEY = attrgetter("score")


class ShapeMismatch(ValueError):
    """Logits width disagrees with the alphabet's column count."""


class MalformedLogits(ValueError):
    """Logits rows are not probability distributions."""


class LogitsMatrix:
    """Frame-major acoustic posteriors, one column per alphabet entry
    plus blank (last).

    Stores only natural logs, the lossless serialization format;
    ``log10`` derives the search's unit from them on each call.
    """

    __slots__ = ("_natural",)

    def __init__(self, natural: np.ndarray):
        self._natural = natural

    @classmethod
    def from_linear(
        cls, rows: Sequence[Sequence[float]], columns: int | None = None
    ) -> "LogitsMatrix":
        arr = cls._as_array(rows, columns)
        cls._validate_linear(arr)
        # math.log, not np.log, whose SIMD path, and so whose last bit,
        # numpy picks per CPU
        natural = [[log(v) if v else NEG_INF for v in row] for row in arr.tolist()]
        return cls(np.array(natural, dtype=np.float64).reshape(arr.shape))

    @classmethod
    def from_natural_log(
        cls, rows: Sequence[Sequence[float]], columns: int | None = None
    ) -> "LogitsMatrix":
        arr = cls._as_array(rows, columns)
        cls._validate_linear(np.exp(arr))
        return cls(arr)

    @staticmethod
    def _as_array(
        rows: Sequence[Sequence[float]], columns: int | None
    ) -> np.ndarray:
        """``rows`` as a float64 array; ``columns`` shapes an empty one
        and must match the row width of a non-empty one."""
        try:
            arr = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            raise MalformedLogits(
                "logits rows must be equal-length lists of numbers"
            ) from None
        if arr.size == 0:
            if columns is None:
                raise MalformedLogits("empty logits need an explicit column count")
            try:
                arr = arr.reshape(0, columns)
            except (TypeError, ValueError):
                raise MalformedLogits(
                    f"column count {columns!r} is not a non-negative integer"
                ) from None
        elif columns is not None and arr.ndim == 2 and arr.shape[1] != columns:
            raise MalformedLogits(
                f"column count {columns!r} contradicts rows of width {arr.shape[1]}"
            )
        return arr

    @staticmethod
    def _validate_linear(arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise MalformedLogits(f"logits must be 2-D, got {arr.ndim}-D")
        if arr.shape[1] < 2:
            raise MalformedLogits("logits need at least two columns")
        if np.any(np.isnan(arr)) or np.any(arr < 0.0):
            raise MalformedLogits("logits rows must be probabilities")
        if arr.shape[0]:
            sums = arr.sum(axis=1)
            bad = np.where(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]
            if bad.size:
                raise MalformedLogits(
                    f"row {bad[0]} sums to {float(sums[bad[0]])}, expected 1"
                )

    @property
    def frames(self) -> int:
        return self._natural.shape[0]

    @property
    def columns(self) -> int:
        return self._natural.shape[1]

    @property
    def natural(self) -> np.ndarray:
        return self._natural

    def log10(self) -> np.ndarray:
        """The posteriors in log10, as a new array."""
        return self._natural / LN10

    def log10_rows(self) -> list[list[float]]:
        return self.log10().tolist()

    def ranked_columns(self) -> np.ndarray:
        """Per frame (row), the non-blank columns from the highest value
        to the lowest, in log10 too: dividing by ``LN10`` is monotone."""
        return np.argsort(-self._natural[:, :-1], axis=1, kind="stable")


@dataclass(frozen=True)
class ColoredTranscript:
    """Decoded words with their lexicon colors and the final log10 score."""

    words: tuple[tuple[str, int], ...]
    score: float


class Prefix:
    """One interned colored prefix: its parent plus one (column, color)
    label, and the text metadata that this prefix determines.

    The root has no parent and no label. ``words`` is the chain of
    completed words: None at the root, and ``(parent chain, word,
    color)`` at a node that completes a word; any other node shares its
    parent's. ``children`` maps a label to a weak reference to the child
    node with it, if one was made. A beam also holds its masses
    ``p_blank`` and ``p_nonblank``, their sum ``total`` and its
    ``score``, ``total`` plus ``p_text``, which ``decode`` sets; it sums
    its masses for the next frame in ``next_b`` and ``next_nb``, its stay
    first and then its parent's extension when the parent is a beam too.
    ``frame`` is the last frame the node was a beam in (-1 before any).
    ``entry`` is the successor table entry of the word state, None
    until the node is first expanded. ``spelling`` is None until
    ``_spelling`` first reads the pending word of this in-word node.
    """

    __slots__ = (
        "parent",
        "col",
        "color",
        "depth",
        "p_text",
        "words",
        "word_state",
        "scorer_state",
        "children",
        "spelling",
        "p_blank",
        "p_nonblank",
        "total",
        "score",
        "next_b",
        "next_nb",
        "frame",
        "entry",
        "__weakref__",
    )

    def __init__(
        self,
        parent: "Prefix | None",
        col: int | None,
        color: int | None,
        p_text: float,
        words: tuple | None,
        word_state: WordState,
        scorer_state: object,
    ):
        self.parent = parent
        self.col = col
        self.color = color
        self.depth = 0 if parent is None else parent.depth + 1
        self.p_text = p_text
        self.words = words
        self.word_state = word_state
        self.scorer_state = scorer_state
        self.children: dict[tuple[int, int], weakref.ref[Prefix]] = {}
        self.spelling: str | None = None
        self.frame = -1
        self.entry: tuple | None = None

    def __lt__(self, other: "Prefix") -> bool:
        """Lexicographic order of the label sequences of two nodes of
        one depth, the only nodes ``decode`` compares. Walks up only to
        the nearest common ancestor."""
        a, b = self, other
        while a.parent is not b.parent:
            a = a.parent
            b = b.parent
        return (a.col, a.color) < (b.col, b.color)


@dataclass(frozen=True)
class DecoderConfig:
    """Everything the search needs besides the logits.

    ``tries`` may be None for unconstrained decoding (any spelling, one
    color). Off-lexicon spelling is enabled by giving the scorer config a
    non-None ``unknown_subword_penalty``; that penalty is charged to
    ``p_text`` once per character that leaves every trie.

    The config also holds the successor list of every grammar state its
    decodes have reached, one table per off-lexicon setting, built on
    first use and shared by every utterance it decodes. The tables
    belong to the grammar, not to the scorer: ``with_scorer`` shares
    them with a config for any other scorer. The unknown-word deltas
    belong to the scorer and the tries; a config fixes them when it is
    built, so decoding changes no figure of them.
    """

    alphabet: ColoredAlphabet
    tries: Sequence[LexiconTrie] | None
    scorer: Scorer
    beam_width: int = DEFAULT_BEAM_WIDTH
    # per off-lexicon setting, then per state, built by _successor_entry:
    # (count, succ, by_col, walk_off), count being the number of
    # extensions. Each extension is a (col, label, extension, completes,
    # off_trie) tuple; the label keys the children memo. A narrow state
    # has every extension in succ and by_col None. A wide state's by_col
    # holds, per non-blank column, a tuple of the extensions the frame
    # step walks: those that complete no word and are off-trie exactly
    # when walk_off is set. Its succ holds the rest, scored directly:
    # completing extensions, and on-trie ones beside off-trie ones.
    _successors: dict[bool, dict[WordState, tuple]] = field(
        default_factory=lambda: {False: {}, True: {}},
        init=False, repr=False, compare=False,
    )
    # per color, set by _unknown_deltas as the config is built: the word
    # delta of every word that is off that color's trie, or None
    _unknown_deltas: dict[int, float | None] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam width must be at least 1")
        object.__setattr__(
            self,
            "_unknown_deltas",
            _unknown_deltas(self.alphabet, self.tries, self.scorer),
        )

    def with_scorer(self, scorer: Scorer) -> "DecoderConfig":
        """A config for ``scorer`` at this config's beam width over its
        alphabet and tries, sharing this config's successor tables. Its
        unknown-word deltas are its own scorer's."""
        config = DecoderConfig(self.alphabet, self.tries, scorer, self.beam_width)
        object.__setattr__(config, "_successors", self._successors)
        return config


@dataclass
class DecodeStats:
    """Per-frame search effort: beams expanded, extensions spawned."""

    expanded: list[int] = field(default_factory=list)
    spawned: list[int] = field(default_factory=list)


def _successor_entry(
    alphabet: ColoredAlphabet,
    tries: Sequence[LexiconTrie] | None,
    state: WordState,
    allow_off: bool,
) -> tuple:
    """The successor table entry of ``state`` (see ``DecoderConfig``).
    The state is wide when its extensions cover at least half of the
    alphabet's non-blank columns."""
    succ = [
        (ext.col, (ext.col, ext.color), ext, ext.completes, ext.off_trie)
        for ext in word_successors(alphabet, tries, state, allow_off)
    ]
    if 2 * len({col for col, *_ in succ}) < alphabet.size:
        return len(succ), succ, None, False
    # the walked extensions share one text score: the off-trie one when
    # the state has off-trie extensions, else the prefix's own
    walk_off = any(off_trie and not completes for *_, completes, off_trie in succ)
    by_col: list[tuple | None] = [None] * alphabet.size
    direct = []
    for item in succ:
        col, _label, _ext, completes, off_trie = item
        if completes or off_trie != walk_off:
            direct.append(item)
        else:
            by_col[col] = (by_col[col] or ()) + (item,)
    return len(succ), direct, by_col, walk_off


def _unknown_deltas(
    alphabet: ColoredAlphabet,
    tries: Sequence[LexiconTrie] | None,
    scorer: Scorer,
) -> dict[int, float | None]:
    """Per color an extension can carry, the delta ``scorer`` gives
    every word of that color spelled off its trie: the scorer's unknown
    delta when every word it knows for the color, and ``alphabet`` can
    spell, is held by one of the color's tries, else None. A word with a
    character that is no column or is the separator, such as an ARPA
    file's ``<s>``, can never be spelled, so it withholds no price.
    Unconstrained (``tries`` None), every spelling is off-trie, so that
    needs a scorer that knows no spellable word."""
    letters = set(alphabet.base_chars) - {alphabet.word_separator}
    colors = {0} if tries is None else {trie.color for trie in tries}
    out = {}
    for color in colors:
        delta = scorer.unknown_delta(color)
        if delta is not None:
            held = frozenset().union(
                *(t.words for t in tries or () if t.color == color)
            )
            unheld = scorer.known_words(color) - held
            if any(letters.issuperset(word) for word in unheld):
                delta = None
        out[color] = delta
    return out


def _select(
    beams: list[Prefix], fresh: list[tuple], limit: int
) -> tuple[list[Prefix], list[tuple]]:
    """The ``limit`` best of the candidates ``beams`` (the frame's beams)
    and ``fresh`` (children that are not beams, score first), in no
    promised order: both lists themselves when they hold at most
    ``limit`` in all, else those above the ``limit``-th best score, then
    as many of those tied with it as fit, shorter and then
    lexicographically smaller prefixes first. Two candidates of one
    depth compare as their parents do, then as their labels; no two
    candidates spell one prefix. ``decode`` selects its next beam by
    this call as each frame ends."""
    if len(beams) + len(fresh) <= limit:
        return beams, fresh
    ranked = [b.score for b in beams] + [c[0] for c in fresh]
    ranked.sort(reverse=True)
    cutoff = ranked[limit - 1]
    if ranked[limit] != cutoff:
        return (
            [b for b in beams if b.score >= cutoff],
            [c for c in fresh if c[0] >= cutoff],
        )
    # one pass over each list splits it into above and tied; (depth,
    # parent, label) is unique per candidate, so the tied tuples sort by
    # it alone
    above = []
    tied = []
    for b in beams:
        score = b.score
        if score > cutoff:
            above.append(b)
        elif score == cutoff:
            tied.append((b.depth, b.parent, (b.col, b.color), False, b))
    above_fresh = []
    for c in fresh:
        score = c[0]
        if score > cutoff:
            above_fresh.append(c)
        elif score == cutoff:
            tied.append((c[2].depth + 1, c[2], c[4], True, c))
    tied.sort()
    for _depth, _parent, _label, is_fresh, candidate in tied[
        :limit - len(above) - len(above_fresh)
    ]:
        (above_fresh if is_fresh else above).append(candidate)
    return above, above_fresh


def _raise_floor(bounds: list[float], score: float, width: int) -> float:
    """Add ``score`` to ``bounds``, a min-heap of at most ``width``
    lower bounds on the scores of distinct candidates, keeping the
    largest; return the floor: the least bound once ``width`` are held,
    -inf before."""
    if len(bounds) < width:
        heapq.heappush(bounds, score)
        return bounds[0] if len(bounds) == width else NEG_INF
    heapq.heapreplace(bounds, score)
    return bounds[0]


def _spelling(node: Prefix, chars: Sequence[str]) -> str:
    """The word ``node`` is spelling, back to the last word boundary;
    empty at a boundary. Memoized on every in-word node it passes, each
    from its parent's, so a later read walks only the new characters."""
    path = []
    spelling = ""
    while node.word_state.in_word:
        if node.spelling is not None:
            spelling = node.spelling
            break
        path.append(node)
        node = node.parent
    for n in reversed(path):
        spelling += chars[n.col]
        n.spelling = spelling
    return spelling


def _chained_words(chain: tuple | None) -> tuple[tuple[str, int], ...]:
    """The ``(word, color)`` pairs of a word chain, first word first."""
    words = []
    while chain is not None:
        chain, word, color = chain
        words.append((word, color))
    words.reverse()
    return tuple(words)


def decode(
    logits: LogitsMatrix,
    config: DecoderConfig,
    stats: DecodeStats | None = None,
) -> ColoredTranscript:
    """Run the beam search over one utterance and return the best
    finished transcript.

    Finishing resolves any partial word at the last frame: on-lexicon
    word-final spellings complete, off-lexicon leftovers complete only
    when off-lexicon decoding is enabled, anything else drops the beam.
    Returns an empty transcript with score -inf when nothing survives.
    """
    alphabet = config.alphabet
    if logits.columns != alphabet.num_columns:
        raise ShapeMismatch(
            f"logits have {logits.columns} columns, alphabet needs "
            f"{alphabet.num_columns}"
        )
    scorer = config.scorer
    tries = config.tries
    subword_penalty = scorer.config.unknown_subword_penalty
    allow_off = subword_penalty is not None
    blank = alphabet.blank_index
    chars = alphabet.base_chars

    successors = config._successors[allow_off]
    beam_width = config.beam_width
    unknown = config._unknown_deltas

    # (scorer state, word, color) -> (delta, next scorer state): within
    # one utterance a word completing the same history is scored once
    deltas: dict[tuple[object, str, int], tuple[float, object]] = {}

    def score_word(scorer_state: object, word: str, color: int) -> tuple[float, object]:
        key = (scorer_state, word, color)
        scored = deltas.get(key)
        if scored is None:
            scored = deltas[key] = scorer.word_delta(scorer_state, word, color)
        return scored

    root = Prefix(None, None, None, 0.0, None, WORD_START, scorer.initial_state())
    root.p_blank = root.total = root.score = 0.0
    root.p_nonblank = NEG_INF
    best = [root]

    # per frame, the non-blank columns from the likeliest down; argsorted
    # at the utterance's first wide beam, each row converted at its
    # frame's first
    ranked = None
    for t, log10_row in enumerate(logits.log10()):
        row = log10_row.tolist()
        # the best beam first, so that a wide one starts the floor high
        best.sort(key=_EXPANSION_KEY, reverse=True)

        # Every beam takes its own next masses before any extension
        # runs: its stay (blank, or the last character repeated within
        # one CTC segment) and then, when its parent is a beam too, the
        # parent's extension, ``logaddexp10`` written out. A prefix's
        # parent is expanded once per frame, so that is all it takes.
        for node in best:
            node.frame = t
        for node in best:
            node.next_b = node.total + row[blank]
            parent = node.parent
            if parent is None:
                node.next_nb = NEG_INF
                continue
            col = node.col
            stay = node.p_nonblank + row[col]
            if parent.frame == t:
                # extending with the column the prefix ends in starts a
                # new CTC segment, so only blank-ending paths carry over
                last = parent.col
                mass = (parent.p_blank if col == last else parent.total) + row[col]
                if stay == NEG_INF:
                    stay = mass
                elif stay < mass:
                    stay = mass + log1p(10.0 ** (stay - mass)) / LN10
                elif mass != NEG_INF:
                    stay += log1p(10.0 ** (mass - stay)) / LN10
            node.next_nb = stay
        # children that are not beams, scored but not yet built: (score,
        # mass, parent, extension, label, p_text, word, scorer state)
        fresh: list[tuple] = []
        # Lower bounds on the final scores of distinct candidates, a
        # min-heap of the beam_width largest, started by the frame's
        # first wide beam. Once full, its least element is a floor that
        # the cutoff cannot fall below.
        bounds: list[float] | None = None
        floor = NEG_INF

        for node in best:
            last = node.col
            p_blank = node.p_blank
            total = node.total

            children = node.children
            entry = node.entry
            if entry is None:
                state = node.word_state
                entry = successors.get(state)
                if entry is None:
                    entry = successors[state] = _successor_entry(
                        alphabet, tries, state, allow_off
                    )
                node.entry = entry
            _count, succ, by_col, walk_off = entry
            p_text = node.p_text
            # read only by off-trie children, which need off-lexicon spelling
            off_text = p_text + subword_penalty if allow_off else p_text

            if by_col is not None and bounds is None:
                # the frame's first wide state starts the floor
                if ranked is None:
                    ranked = logits.ranked_columns()
                columns = ranked[t].tolist()
                # a beam's final score is at least its larger next mass
                # plus its text score
                bounds = [max(o.next_b, o.next_nb) + o.p_text for o in best]
                heapq.heapify(bounds)
                if len(bounds) == beam_width:
                    floor = bounds[0]

            # A wide state scores its completing children (a word delta
            # may be positive) and on-trie ones beside off-trie ones here.
            for col, label, ext, completes, off_trie in succ:
                mass = (p_blank if col == last else total) + row[col]
                if mass == NEG_INF:
                    continue
                if children:
                    ref = children.get(label)
                    if ref is not None:
                        child = ref()
                        if child is not None and child.frame == t:
                            continue  # a beam, which took this mass itself
                # This is the child's only mass this frame. Score it;
                # build it only if it can rank.
                word = None
                scorer_state = node.scorer_state
                text = off_text if off_trie else p_text
                if completes:
                    word = ext.word
                    if word is None:
                        # spelled off its color's trie: when the scorer
                        # knows no such word, its delta is known unspelled
                        priced = unknown.get(ext.color)
                        if priced is not None and mass + (p_text + priced) < floor:
                            continue
                        word = node.spelling or _spelling(node, chars)
                    delta, scorer_state = score_word(scorer_state, word, ext.color)
                    text = p_text + delta
                score = mass + text
                if score < floor:
                    continue
                fresh.append((score, mass, node, ext, label, text, word, scorer_state))
                if bounds is not None and score > floor:
                    floor = _raise_floor(bounds, score, beam_width)
            if by_col is None:
                continue

            # A walked child scores at most total + row[col] plus its
            # text score, and IEEE addition is monotone, so once that
            # falls below the floor no later column can reach it.
            text = off_text if walk_off else p_text
            scorer_state = node.scorer_state
            for col in columns:
                bound = total + row[col]
                score = bound + text
                if score < floor:
                    break
                exts = by_col[col]
                if exts is None:
                    continue
                if col == last:
                    mass = p_blank + row[col]
                    if mass == NEG_INF:
                        # a repeat with no blank-ending mass; later
                        # columns may still extend
                        continue
                    score = mass + text
                    if score < floor:
                        continue
                elif bound == NEG_INF:
                    break  # so is every later column's
                else:
                    mass = bound
                for _col, label, ext, _completes, _off_trie in exts:
                    if children:
                        ref = children.get(label)
                        if ref is not None:
                            child = ref()
                            if child is not None and child.frame == t:
                                continue
                    fresh.append(
                        (score, mass, node, ext, label, text, None, scorer_state)
                    )
                    if score > floor:
                        floor = _raise_floor(bounds, score, beam_width)

        if stats is not None:
            stats.expanded.append(len(best))
            stats.spawned.append(sum(node.entry[0] for node in best))
        # the masses are final: each beam is scored once, as they are
        # set, with ``logaddexp10`` written out
        for node in best:
            a = node.p_blank = node.next_b
            b = node.p_nonblank = node.next_nb
            if a == NEG_INF:
                total = b
            elif b == NEG_INF:
                total = a
            elif a < b:
                total = b + log1p(10.0 ** (a - b)) / LN10
            else:
                total = a + log1p(10.0 ** (b - a)) / LN10
            node.total = total
            node.score = total + node.p_text
        # the next beam, so only the children in it become nodes; a
        # child that left the beam but is still alive keeps its node
        best, fresh = _select(best, fresh, beam_width)
        for score, mass, node, ext, label, p_text, word, scorer_state in fresh:
            ref = node.children.get(label)
            child = None if ref is None else ref()
            if child is None:
                words = node.words
                if word is not None:
                    words = (words, word, ext.color)
                child = Prefix(
                    node, ext.col, ext.color, p_text, words, ext.state, scorer_state
                )
                node.children[label] = weakref.ref(child)
            # its total is its one mass, and its score the mass plus its
            # text score that it was ranked by
            child.p_blank = NEG_INF
            child.p_nonblank = child.total = mass
            child.score = score
            best.append(child)

    # (rank key, final score, word chain) per finished beam
    candidates: list[tuple[tuple, float, tuple | None]] = []
    for node in best:
        state = node.word_state
        pending = finish_word(tries, state, _spelling(node, chars), allow_off)
        words = node.words
        fscore = node.score
        if pending is not None:
            word, color = pending
            delta, _ = score_word(node.scorer_state, word, color)
            fscore += delta
            words = (words, word, color)
        elif state.in_word:
            continue  # unfinished spelling with no way to report it
        if fscore == NEG_INF:
            continue
        candidates.append(((-fscore, node.depth, node), fscore, words))

    if not candidates:
        return ColoredTranscript((), NEG_INF)
    # distinct nodes make the rank keys distinct, so min never looks past them
    _key, fscore, words = min(candidates)
    return ColoredTranscript(_chained_words(words), fscore)
