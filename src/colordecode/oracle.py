"""Exhaustive verification oracle for the beam search.

The oracle enumerates every labeling the word grammar can produce (up to
the frame count, since longer labels have zero probability), scores each
with an independent CTC forward recursion plus the same text scoring
rules, and picks the argmax under the decoder's tie-break. With a beam
wide enough to hold every enumerated prefix, the search must agree with
the oracle exactly; ``run_verification`` drives that comparison over
randomized instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .decoder import ColoredTranscript, DecoderConfig, LogitsMatrix, decode
from .lexicon import (
    ColoredAlphabet,
    LexiconTrie,
    WORD_START,
    build_trie,
    finish_word,
    word_successors,
)
from .logmath import NEG_INF, logaddexp10
from .ngram_lm import NGramModel, merge_colored
from .scorers import ColoringScorer, Scorer, ScorerConfig

__all__ = [
    "LabelTooLong",
    "InstanceTooLarge",
    "ctc_forward",
    "ctc_path_sum",
    "OracleResult",
    "exhaustive_decode",
    "RandomInstance",
    "random_instance",
    "VerificationReport",
    "run_verification",
]


class LabelTooLong(ValueError):
    """A label longer than the frame count has no CTC alignment."""


class InstanceTooLarge(RuntimeError):
    """Exhaustive enumeration would exceed the node guard."""


def ctc_forward(rows, cols) -> tuple[float, float]:
    """CTC forward masses for one label, log10.

    ``rows`` are per-frame log10 posteriors with blank last; ``cols`` is
    the uncolored label as column indices. Returns (mass of alignments
    ending in blank, mass ending in the last label character), which sum
    to the label's total probability.
    """
    frames = len(rows)
    n = len(cols)
    if n > frames:
        raise LabelTooLong(f"label length {n} exceeds {frames} frames")
    if frames == 0:
        return 0.0, NEG_INF
    blank = len(rows[0]) - 1

    # interleave blanks: blank c1 blank c2 ... cN blank
    ext = [blank]
    for c in cols:
        ext.append(c)
        ext.append(blank)
    size = len(ext)

    alpha = [NEG_INF] * size
    alpha[0] = rows[0][blank]
    if size > 1:
        alpha[1] = rows[0][cols[0]]
    for t in range(1, frames):
        row = rows[t]
        nxt = [NEG_INF] * size
        for s in range(size):
            acc = alpha[s]
            if s >= 1:
                acc = logaddexp10(acc, alpha[s - 1])
            if s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]:
                acc = logaddexp10(acc, alpha[s - 2])
            if acc != NEG_INF:
                nxt[s] = acc + row[ext[s]]
        alpha = nxt

    if n == 0:
        return alpha[0], NEG_INF
    return alpha[size - 1], alpha[size - 2]


def ctc_path_sum(rows, cols) -> float:
    """Total log10 probability of a label under CTC."""
    return logaddexp10(*ctc_forward(rows, cols))


@dataclass
class OracleResult:
    """Best transcript plus the full score table.

    ``all_scores`` maps every grammar-reachable colored prefix, no longer
    than the frame count, to its finalized score, -inf when the prefix
    cannot finish or has no acoustic mass. Its size bounds the beam width
    needed for the search to be exhaustive.
    """

    best: ColoredTranscript
    all_scores: dict[tuple[tuple[int, int], ...], float]


def exhaustive_decode(
    logits: LogitsMatrix,
    scorer: Scorer,
    alphabet: ColoredAlphabet,
    tries,
    guard: int = 10**6,
) -> OracleResult:
    """Score every reachable labeling and return the argmax.

    Applies the same text-scoring rules as the search: word deltas at
    separators and at finalization, per-character penalties off-lexicon.
    Raises InstanceTooLarge past ``guard`` enumerated prefixes.
    """
    rows = logits.log10_rows()
    subword_penalty = scorer.config.unknown_subword_penalty
    allow_off = subword_penalty is not None

    all_scores: dict[tuple[tuple[int, int], ...], float] = {}
    best_key: tuple[float, int, tuple[tuple[int, int], ...]] | None = None
    best_words: tuple[tuple[str, int], ...] = ()
    best_score = NEG_INF
    visited = 0

    def consider(chars, spelled, words, p_text, word_state, scorer_state) -> None:
        nonlocal best_key, best_words, best_score
        pending = finish_word(tries, word_state, spelled, allow_off)
        if pending is None and word_state.in_word:
            all_scores[chars] = NEG_INF
            return
        fwords = words
        fscore = ctc_path_sum(rows, [c for c, _ in chars]) + p_text
        if pending is not None:
            word, color = pending
            delta, _ = scorer.word_delta(scorer_state, word, color)
            fscore += delta
            fwords = words + ((word, color),)
        all_scores[chars] = fscore
        if fscore == NEG_INF:
            return
        key = (-fscore, len(chars), chars)
        if best_key is None or key < best_key:
            best_key = key
            best_words = fwords
            best_score = fscore

    def walk(chars, spelled, words, p_text, word_state, scorer_state) -> None:
        # ``spelled``: the pending word, spelled by the tail of ``chars``
        nonlocal visited
        visited += 1
        if visited > guard:
            raise InstanceTooLarge(f"more than {guard} prefixes")
        consider(chars, spelled, words, p_text, word_state, scorer_state)
        if len(chars) >= len(rows):
            return
        for ext in word_successors(alphabet, tries, word_state, allow_off):
            new_words = words
            new_text = p_text
            new_state = scorer_state
            if ext.completes:
                word = ext.word if ext.word is not None else spelled
                delta, new_state = scorer.word_delta(scorer_state, word, ext.color)
                new_text += delta
                new_words = words + ((word, ext.color),)
            elif ext.off_trie:
                new_text += subword_penalty
            walk(
                chars + ((ext.col, ext.color),),
                spelled + alphabet.base_chars[ext.col] if ext.state.in_word else "",
                new_words,
                new_text,
                ext.state,
                new_state,
            )

    walk((), "", (), 0.0, WORD_START, scorer.initial_state())

    if best_key is None:
        return OracleResult(ColoredTranscript((), NEG_INF), all_scores)
    return OracleResult(ColoredTranscript(best_words, best_score), all_scores)


@dataclass
class RandomInstance:
    logits: LogitsMatrix
    alphabet: ColoredAlphabet
    tries: list[LexiconTrie]
    scorer: Scorer


_LETTER_POOL = "abc"


def random_instance(
    rng: random.Random,
    max_frames: int = 4,
    max_chars: int = 3,
    num_colors: int = 2,
    max_words: int = 3,
    min_colors: int = 1,
) -> RandomInstance:
    """A small random decoding problem for oracle cross-checks.

    Covers separators and separator-free alphabets, empty lexicons,
    words missing from their language model (OOV paths), optional
    bigrams with backoff, off-lexicon spelling, and zeroed acoustic
    columns. A ``max_chars`` above the letter pool's size is refused.
    """
    if max_chars > len(_LETTER_POOL):
        raise ValueError(
            f"max_chars {max_chars} exceeds the {len(_LETTER_POOL)}-letter pool"
        )
    k = rng.randint(1, max_chars)
    chars = _LETTER_POOL[:k]
    sep = chars[-1] if k >= 2 and rng.random() < 0.7 else None
    word_chars = chars.replace(sep, "") if sep else chars
    colors = rng.randint(min_colors, num_colors)
    alphabet = ColoredAlphabet(tuple(chars), colors, sep)

    tries: list[LexiconTrie] = []
    models: list[NGramModel] = []
    for color in range(colors):
        words: set[str] = set()
        for _ in range(rng.randint(0, max_words)):
            length = rng.randint(1, 3)
            words.add("".join(rng.choice(word_chars) for _ in range(length)))
        tries.append(build_trie(alphabet, color, sorted(words)))

        vocab = sorted(words)
        if vocab and rng.random() < 0.5:
            vocab = vocab[:-1]  # leave one lexicon word out of the model
        entries: dict[tuple[str, ...], tuple[float, float | None]] = {}
        order = 2 if vocab and rng.random() < 0.5 else 1
        if vocab:
            weights = [rng.random() + 0.05 for _ in vocab]
            total = sum(weights)
            for word, w in zip(vocab, weights):
                backoff = rng.uniform(-0.5, 0.0) if order == 2 else None
                entries[(word,)] = (math.log10(w / total), backoff)
            if order == 2:
                for a in vocab:
                    for b in vocab:
                        if rng.random() < 0.4:
                            entries[(a, b)] = (rng.uniform(-1.5, -0.1), None)
        models.append(NGramModel(max_order=order, entries=entries))

    config = ScorerConfig(
        alpha=1.0,
        beta=0.0,
        unknown_word_penalty=(-10.0,) * colors,
        unknown_subword_penalty=-2.0 if rng.random() < 0.5 else None,
    )
    merged = merge_colored((m, c) for c, m in enumerate(models))
    scorer = ColoringScorer(config, merged, colors)

    frames = rng.randint(0, max_frames)
    cols = alphabet.num_columns
    rows = []
    for _ in range(frames):
        row = [rng.random() + 1e-3 for _ in range(cols)]
        if rng.random() < 0.3:
            row[rng.randrange(cols)] = 0.0
        total = sum(row)
        rows.append([v / total for v in row])
    logits = LogitsMatrix.from_linear(rows, columns=cols)
    return RandomInstance(logits, alphabet, tries, scorer)


@dataclass
class VerificationReport:
    instances: int
    mismatches: list[dict] = field(default_factory=list)
    max_score_divergence: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_verification(
    instances: int,
    seed: int,
    max_frames: int = 4,
    max_chars: int = 3,
    tolerance: float = 1e-9,
    min_colors: int = 1,
    num_colors: int = 2,
) -> VerificationReport:
    """Cross-check the beam search against the oracle on random instances.

    The search runs with a beam wide enough to hold every enumerated
    prefix, so any disagreement in transcript or score (beyond
    ``tolerance``) is a defect, not a search error.
    """
    rng = random.Random(seed)
    report = VerificationReport(instances=instances)
    for index in range(instances):
        inst = random_instance(
            rng,
            max_frames=max_frames,
            max_chars=max_chars,
            min_colors=min_colors,
            num_colors=num_colors,
        )
        oracle = exhaustive_decode(
            inst.logits, inst.scorer, inst.alphabet, inst.tries
        )
        cfg = DecoderConfig(
            alphabet=inst.alphabet,
            tries=inst.tries,
            scorer=inst.scorer,
            beam_width=len(oracle.all_scores) + 1,
        )
        got = decode(inst.logits, cfg)
        if got.score == NEG_INF and oracle.best.score == NEG_INF:
            divergence = 0.0
        else:
            divergence = abs(got.score - oracle.best.score)
        report.max_score_divergence = max(report.max_score_divergence, divergence)
        if got.words != oracle.best.words or divergence > tolerance:
            report.mismatches.append(
                {
                    "instance": index,
                    "expected": oracle.best,
                    "got": got,
                }
            )
    return report
