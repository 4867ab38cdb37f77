"""Colored CTC prefix beam search.

Hypotheses are colored character prefixes: tuples of (column, color)
pairs. Each prefix keeps two acoustic masses in log10, the probability of
all frame paths ending in blank (``p_blank``) and in the prefix's last
character (``p_nonblank``), plus a text score ``p_text`` accumulated from
the fusion scorer at every completed word (and per-character penalties
for off-lexicon spellings). Beams are ranked by acoustic mass times text
score.

The CTC repeat rule compares raw columns, ignoring color: extending a
prefix with the column it already ends in consumes only the blank-ending
mass, so colors never manufacture acoustic paths that plain CTC would
collapse. Text metadata (words, grammar state, scorer state) is a pure
function of the prefix, which is what makes merging duplicate prefixes by
mass summation sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lexicon import ColoredAlphabet, Extension, LexiconTrie, WORD_START, WordState, finish_word, word_successors
from .logmath import LN10, NEG_INF, logaddexp10
from .scorers import Scorer

__all__ = [
    "ShapeMismatch",
    "MalformedLogits",
    "LogitsMatrix",
    "ColoredTranscript",
    "Beam",
    "DecoderConfig",
    "DecodeStats",
    "get_best_beams",
    "decode",
]

_ROW_SUM_TOL = 1e-6


class ShapeMismatch(ValueError):
    """Logits width disagrees with the alphabet's column count."""


class MalformedLogits(ValueError):
    """Logits rows are not probability distributions."""


class LogitsMatrix:
    """Frame-major acoustic posteriors, one column per alphabet entry
    plus blank (last).

    Stores both natural-log and log10 copies: natural log is the
    serialization format and must round-trip losslessly, log10 is what
    the search consumes.
    """

    __slots__ = ("_natural", "_log10")

    def __init__(self, natural: np.ndarray, log10: np.ndarray):
        self._natural = natural
        self._log10 = log10

    @classmethod
    def from_linear(
        cls, rows: Sequence[Sequence[float]], columns: int | None = None
    ) -> "LogitsMatrix":
        arr = np.asarray(rows, dtype=np.float64)
        if arr.size == 0:
            if columns is None:
                raise MalformedLogits("empty logits need an explicit column count")
            arr = arr.reshape(0, columns)
        cls._validate_linear(arr)
        with np.errstate(divide="ignore"):
            natural = np.log(arr)
        # log10 always derives from the stored natural log, so a matrix
        # and its write/read round trip score bit-identically.
        return cls(natural, natural / LN10)

    @classmethod
    def from_natural_log(
        cls, rows: Sequence[Sequence[float]], columns: int | None = None
    ) -> "LogitsMatrix":
        arr = np.asarray(rows, dtype=np.float64)
        if arr.size == 0:
            if columns is None:
                raise MalformedLogits("empty logits need an explicit column count")
            arr = arr.reshape(0, columns)
        cls._validate_linear(np.exp(arr))
        return cls(arr, arr / LN10)

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

    def log10_rows(self) -> list[list[float]]:
        return self._log10.tolist()


@dataclass(frozen=True)
class ColoredTranscript:
    """Decoded words with their lexicon colors and the final log10 score."""

    words: tuple[tuple[str, int], ...]
    score: float

    def text(self) -> str:
        return " ".join(w for w, _ in self.words)


@dataclass(slots=True)
class Beam:
    chars: tuple[tuple[int, int], ...]
    p_blank: float
    p_nonblank: float
    p_text: float
    words: tuple[tuple[str, int], ...]
    word_state: WordState
    scorer_state: object

    @property
    def total(self) -> float:
        return logaddexp10(self.p_blank, self.p_nonblank)

    @property
    def score(self) -> float:
        return self.total + self.p_text


@dataclass
class DecoderConfig:
    """Everything the search needs besides the logits.

    ``tries`` may be None for unconstrained decoding (any spelling, one
    color). Off-lexicon spelling is enabled by giving the scorer config a
    non-None ``unknown_subword_penalty``; that penalty is charged to
    ``p_text`` once per character that leaves every trie.
    """

    alphabet: ColoredAlphabet
    tries: Sequence[LexiconTrie] | None
    scorer: Scorer
    beam_width: int = 64

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam width must be at least 1")


@dataclass
class DecodeStats:
    """Per-frame search effort: beams expanded, extensions spawned."""

    expanded: list[int] = field(default_factory=list)
    spawned: list[int] = field(default_factory=list)


def _rank_key(beam: Beam):
    return (-beam.score, len(beam.chars), beam.chars)


def get_best_beams(beams: Sequence[Beam], limit: int) -> list[Beam]:
    """Top beams by score; ties prefer shorter, then lexicographically
    smaller prefixes, so ranking is deterministic."""
    return sorted(beams, key=_rank_key)[:limit]


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

    succ_cache: dict[WordState, list[Extension]] = {}

    def successors(state: WordState) -> list[Extension]:
        cached = succ_cache.get(state)
        if cached is None:
            cached = word_successors(alphabet, tries, state, allow_off)
            succ_cache[state] = cached
        return cached

    beams: list[Beam] = [
        Beam(
            chars=(),
            p_blank=0.0,
            p_nonblank=NEG_INF,
            p_text=0.0,
            words=(),
            word_state=WORD_START,
            scorer_state=scorer.initial_state(),
        )
    ]

    for row in logits.log10_rows():
        best = get_best_beams(beams, config.beam_width)

        next_map: dict[tuple[tuple[int, int], ...], Beam] = {}
        expanded = 0
        spawned = 0

        for b in best:
            expanded += 1
            total = b.total

            # stay: emit blank, or repeat the last character within one
            # CTC segment
            stay_blank = total + row[blank]
            stay_nonblank = (
                b.p_nonblank + row[b.chars[-1][0]] if b.chars else NEG_INF
            )
            kept = next_map.get(b.chars)
            if kept is None:
                next_map[b.chars] = Beam(
                    chars=b.chars,
                    p_blank=stay_blank,
                    p_nonblank=stay_nonblank,
                    p_text=b.p_text,
                    words=b.words,
                    word_state=b.word_state,
                    scorer_state=b.scorer_state,
                )
            else:
                kept.p_blank = logaddexp10(kept.p_blank, stay_blank)
                kept.p_nonblank = logaddexp10(kept.p_nonblank, stay_nonblank)

            for ext in successors(b.word_state):
                spawned += 1
                # extending with the column the prefix ends in starts a
                # new CTC segment, so only blank-ending paths carry over
                if b.chars and b.chars[-1][0] == ext.col:
                    mass = b.p_blank
                else:
                    mass = total
                mass += row[ext.col]
                if mass == NEG_INF:
                    continue
                key = b.chars + ((ext.col, ext.color),)
                kept = next_map.get(key)
                if kept is not None:
                    kept.p_nonblank = logaddexp10(kept.p_nonblank, mass)
                    continue
                p_text = b.p_text
                words = b.words
                scorer_state = b.scorer_state
                if ext.completes is not None:
                    delta, scorer_state = scorer.word_delta(
                        scorer_state, ext.completes, ext.color
                    )
                    p_text += delta
                    words = words + ((ext.completes, ext.color),)
                elif (
                    tries is not None
                    and ext.state.node is None
                    and ext.state.chars
                ):
                    # off-trie character
                    p_text += subword_penalty
                next_map[key] = Beam(
                    chars=key,
                    p_blank=NEG_INF,
                    p_nonblank=mass,
                    p_text=p_text,
                    words=words,
                    word_state=ext.state,
                    scorer_state=scorer_state,
                )

        if stats is not None:
            stats.expanded.append(expanded)
            stats.spawned.append(spawned)
        beams = list(next_map.values())

    candidates: list[tuple[float, Beam, tuple[tuple[str, int], ...]]] = []
    for b in get_best_beams(beams, config.beam_width):
        pending = finish_word(alphabet, tries, b.word_state, allow_off)
        words = b.words
        fscore = b.score
        if pending is not None:
            word, color = pending
            delta, _ = scorer.word_delta(b.scorer_state, word, color)
            fscore += delta
            words = words + ((word, color),)
        elif b.word_state.chars:
            continue  # unfinished spelling with no way to report it
        if fscore == NEG_INF:
            continue
        candidates.append((fscore, b, words))

    if not candidates:
        return ColoredTranscript((), NEG_INF)
    candidates.sort(key=lambda c: (-c[0], len(c[1].chars), c[1].chars))
    fscore, _beam, words = candidates[0]
    return ColoredTranscript(words, fscore)
