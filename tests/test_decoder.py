import dataclasses
import gc
import math
import random
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

import colordecode.decoder as decoder_module
from colordecode import corpus
from colordecode.decoder import (
    ColoredTranscript,
    DecodeStats,
    DecoderConfig,
    LogitsMatrix,
    MalformedLogits,
    Prefix,
    ShapeMismatch,
    _select,
    decode,
)
from colordecode.evaluation import build_runtime
from colordecode.lexicon import WORD_START, ColoredAlphabet, build_trie, word_successors
from colordecode.logmath import NEG_INF, logaddexp10, logsumexp10
from colordecode.ngram_lm import NGramModel, merge_colored
from colordecode.oracle import ctc_path_sum, exhaustive_decode, random_instance
from colordecode.scorers import (
    KIND_MODELS,
    SCORER_KINDS,
    BinTable,
    ColoringScorer,
    NullScorer,
    ScorerConfig,
    SingleLmScorer,
    make_scorer,
)
from conftest import random_rows, trie_words

# ---------------------------------------------------------------------------
# LogitsMatrix
# ---------------------------------------------------------------------------


def test_logits_round_trip_linear():
    rows = [[0.25, 0.75], [0.5, 0.5]]
    m = LogitsMatrix.from_linear(rows)
    assert m.frames == 2 and m.columns == 2
    assert np.allclose(np.exp(m.natural), rows)
    log10 = m.log10_rows()
    assert log10[0][0] == pytest.approx(math.log10(0.25), abs=1e-12)


def test_logits_from_natural_log():
    nat = np.log(np.array([[0.5, 0.5]]))
    m = LogitsMatrix.from_natural_log(nat)
    assert np.array_equal(m.natural, nat)


def test_logits_zero_probability_becomes_neg_inf():
    m = LogitsMatrix.from_linear([[1.0, 0.0]])
    assert m.log10_rows()[0][1] == NEG_INF


def test_logits_empty_needs_column_hint():
    m = LogitsMatrix.from_linear([], columns=3)
    assert m.frames == 0 and m.columns == 3
    for columns in (None, "x", 2.5, -1):
        with pytest.raises(MalformedLogits):
            LogitsMatrix.from_natural_log([], columns=columns)


_BAD_ROWS = [
    ([[0.5, 0.6]], None),  # does not sum to 1
    ([[1.2, -0.2]], None),  # negative entry
    ([[float("nan"), 1.0]], None),  # NaN
    ([[1.0]], None),  # single column: no room for blank + one char
    ([[0.5, 0.5], [1.0]], None),  # ragged
    ([[0.5, "a"]], None),  # not a number
    ([[0.5, 0.5]], 3),  # a column count the rows contradict
    ([[[0.5, 0.5]]], None),  # 3-D
]


@pytest.mark.parametrize(
    "rows, columns", _BAD_ROWS, ids=[f"rows{i}" for i in range(len(_BAD_ROWS))]
)
def test_logits_validation(rows, columns):
    with pytest.raises(MalformedLogits):
        LogitsMatrix.from_linear(rows, columns=columns)


def test_logits_row_sum_tolerance():
    LogitsMatrix.from_linear([[0.5, 0.5 + 5e-7]])  # within tolerance
    with pytest.raises(MalformedLogits):
        LogitsMatrix.from_linear([[0.5, 0.501]])


# ---------------------------------------------------------------------------
# Beam utilities
# ---------------------------------------------------------------------------


def _root() -> Prefix:
    return Prefix(None, None, None, 0.0, None, WORD_START, None)


def _interned(root: Prefix, labels) -> Prefix:
    """The node spelling ``labels`` below ``root``, made through the
    children memo the way the decoder makes it."""
    node = root
    for label in labels:
        ref = node.children.get(label)
        child = None if ref is None else ref()
        if child is None:
            child = Prefix(node, *label, 0.0, None, WORD_START, None)
            node.children[label] = weakref.ref(child)
        node = child
    return node


def _beam(node: Prefix, p_blank: float, p_nonblank: float) -> Prefix:
    """``node`` as a beam with these masses: its total and its score,
    the total plus its text score, as ``decode`` sets them."""
    node.p_blank = p_blank
    node.p_nonblank = p_nonblank
    node.total = logaddexp10(p_blank, p_nonblank)
    node.score = node.total + node.p_text
    return node


def _labels(node: Prefix) -> tuple[tuple[int, int], ...]:
    """The (column, color) labels from the root down to ``node``."""
    out = []
    while node.parent is not None:
        out.append((node.col, node.color))
        node = node.parent
    return tuple(reversed(out))


def _fresh(parent: Prefix, label: tuple[int, int], score: float) -> tuple:
    """An unbuilt child of ``parent`` as a frame lists it for ``_select``:
    (score, mass, parent, extension, label, p_text, word, scorer state),
    its one mass being its score."""
    return (score, score, parent, None, label, 0.0, None, None)


def _in_rank_order(beams, fresh=()) -> list[tuple[tuple[int, int], ...]]:
    """The labels of the candidates ``beams`` (nodes) and ``fresh``
    (unbuilt children) ordered by (-score, depth, label tuple), the rule
    ``_select`` selects by, whatever order it returns."""
    candidates = [(b.score, _labels(b)) for b in beams] + [
        (c[0], _labels(c[2]) + (c[4],)) for c in fresh
    ]
    candidates.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return [labels for _score, labels in candidates]


def test_select_selects_and_limits():
    root = _root()
    beams = [
        _beam(_interned(root, ((0, 0),)), NEG_INF, -2.0),
        _beam(root, -1.0, NEG_INF),
        _beam(_interned(root, ((1, 0),)), NEG_INF, -3.0),
    ]
    best = _select(beams, [], 2)
    assert _in_rank_order(*best) == [(), ((0, 0),)]
    assert len(_select(beams, [], 10)[0]) == 3

    # the best score on the deepest prefix: selected ahead of every
    # shallower beam, so a beam built here ranks on its real score
    deep = ((1, 0), (0, 0), (1, 0))
    beams.append(_beam(_interned(root, deep), -0.5, -0.75))
    best = _select(beams, [], 2)
    assert _in_rank_order(*best) == [deep, ()]
    assert max(b.score for b in best[0]) == logaddexp10(-0.5, -0.75)

    # an unbuilt child competes on its score alike
    fresh = [_fresh(beams[0], (1, 0), -1.5), _fresh(root, (2, 0), -0.25)]
    best = _select(beams, fresh, 3)
    assert _in_rank_order(*best) == [((2, 0),), deep, ()]
    assert best[1] == [fresh[1]]


def test_select_returns_every_candidate_that_fits():
    """At most ``limit`` candidates come back as the very lists given,
    ties, -inf scores and all."""
    root = _root()
    beams = [
        _beam(_interned(root, ((1, 0), (0, 0))), -1.0, NEG_INF),
        _beam(root, NEG_INF, NEG_INF),
        _beam(_interned(root, ((0, 0),)), -1.0, NEG_INF),
    ]
    fresh = [_fresh(root, (1, 0), -1.0)]
    for limit in (4, 5, 64):
        kept = _select(beams, fresh, limit)
        assert kept[0] is beams and kept[1] is fresh
        assert _select(beams, [], limit - 1)[0] is beams


def test_select_breaks_ties_deterministically():
    root = _root()
    beams = [
        _beam(_interned(root, ((1, 0),)), -1.0, NEG_INF),
        _beam(_interned(root, ((0, 0), (1, 0))), -1.0, NEG_INF),
        _beam(_interned(root, ((0, 0),)), -1.0, NEG_INF),
    ]
    fresh = [_fresh(beams[0], (0, 0), -1.0)]
    assert _in_rank_order(*_select(beams, fresh, 3)) == [
        ((0, 0),),
        ((1, 0),),
        ((0, 0), (1, 0)),
    ]
    assert _in_rank_order(*_select(beams, fresh, 2)) == [((0, 0),), ((1, 0),)]


def test_select_keeps_ties_straddling_the_limit_by_prefix():
    """Candidates above the limit-th best score are all kept, candidates
    below it none, and the tied ones fill the remaining slots shorter
    prefix first, then smaller labels, built or not."""
    root = _root()
    above = [((2, 1),), ((2, 0), (2, 0))]
    tied = [((1, 0), (0, 0)), ((1, 0),), ((0, 1),)]
    below = [(), ((0, 0),)]
    beams = (
        [_beam(_interned(root, labels), -0.5, NEG_INF) for labels in above]
        + [_beam(_interned(root, labels), -1.0, NEG_INF) for labels in tied]
        + [_beam(_interned(root, labels), -2.0, NEG_INF) for labels in below]
    )
    # the tied ((0, 0), (0, 0)) is an unbuilt child of the beam ((0, 0),)
    fresh = [_fresh(beams[-1], (0, 0), -1.0)]
    for order in (beams, beams[::-1]):
        assert _in_rank_order(*_select(order, fresh, 3)) == [
            ((2, 1),),
            ((2, 0), (2, 0)),
            ((0, 1),),
        ]
        assert _in_rank_order(*_select(order, fresh, 4)) == [
            ((2, 1),),
            ((2, 0), (2, 0)),
            ((0, 1),),
            ((1, 0),),
        ]
        assert _in_rank_order(*_select(order, fresh, 5)) == [
            ((2, 1),),
            ((2, 0), (2, 0)),
            ((0, 1),),
            ((1, 0),),
            ((0, 0), (0, 0)),
        ]


def test_select_ranks_ties_like_materialized_prefixes():
    """Among candidates of few distinct scores, built or not, the
    selection equals the first ``limit`` candidates sorted by (-score,
    depth, label tuple): the node comparison walking up to the common
    ancestor agrees with comparing whole spelled prefixes."""
    rng = random.Random(1812)
    for _ in range(200):
        root = _root()
        spellings = {
            tuple(
                (rng.randrange(3), rng.randrange(2))
                for _ in range(rng.randint(0, 4))
            )
            for _ in range(rng.randint(1, 25))
        }
        beams = []
        fresh = []
        for labels in spellings:
            score = rng.choice([-1.0, -2.0])
            if labels and rng.random() < 0.5:
                parent = _interned(root, labels[:-1])
                fresh.append(_fresh(parent, labels[-1], score))
            else:
                beams.append(_beam(_interned(root, labels), score, NEG_INF))
        rng.shuffle(beams)
        rng.shuffle(fresh)
        limit = rng.randint(1, len(spellings) + 1)
        got = _select(beams, fresh, limit)
        assert _in_rank_order(*got) == _in_rank_order(beams, fresh)[:limit]


class _Kept(NamedTuple):
    """A candidate ``_select`` kept, as the node it is or is built as."""

    labels: tuple[tuple[int, int], ...]
    p_blank: float
    p_nonblank: float
    total: float
    score: float
    p_text: float


def _spy_select(monkeypatch, record, select=None) -> None:
    """Wrap ``decoder._select`` (or ``select`` in its place) so that each
    frame of a decode, as it ends, hands ``record`` the ``_Kept`` list of
    the next beam: every node kept with its figures, and every unbuilt
    child kept with the ones ``decode`` builds it with, its one mass and
    the score it was ranked by."""
    select = select or decoder_module._select

    def spy(beams, fresh, limit):
        kept = select(beams, fresh, limit)
        record(
            [
                _Kept(_labels(b), b.p_blank, b.p_nonblank, b.total, b.score, b.p_text)
                for b in kept[0]
            ]
            + [
                _Kept(_labels(c[2]) + (c[4],), NEG_INF, c[1], c[1], c[0], c[5])
                for c in kept[1]
            ]
        )
        return kept

    monkeypatch.setattr(decoder_module, "_select", spy)


# ---------------------------------------------------------------------------
# decode: frozen fixtures
# ---------------------------------------------------------------------------


def test_forced_path_single_char():
    alphabet = ColoredAlphabet(("a", "b"), 2, None)
    tries = [build_trie(alphabet, 0, ["a"]), build_trie(alphabet, 1, ["b"])]
    logits = LogitsMatrix.from_linear([[1.0, 0.0, 0.0]])
    config = DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()), beam_width=8)
    got = decode(logits, config)
    assert got == ColoredTranscript((("a", 0),), 0.0)
    assert " ".join(w for w, _ in got.words) == "a"


def test_three_uniform_frames_prefer_single_char():
    """Three 50/50 frames over {a, blank} with lexicon {a}: mass('a') is
    0.75 (six of eight paths), mass('aa') and mass('') are 0.125 each."""
    alphabet = ColoredAlphabet(("a",), 1, None)
    tries = [build_trie(alphabet, 0, ["a", "aa"])]
    logits = LogitsMatrix.from_linear([[0.5, 0.5]] * 3)
    config = DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()), beam_width=16)
    got = decode(logits, config)
    assert got.words == (("a", 0),)
    assert got.score == pytest.approx(math.log10(0.75), abs=1e-12)

    oracle = exhaustive_decode(logits, NullScorer(ScorerConfig()), alphabet, tries)
    assert oracle.best.words == got.words
    assert oracle.best.score == pytest.approx(got.score, abs=1e-12)
    assert oracle.all_scores[((0, 0), (0, 0))] == pytest.approx(
        math.log10(0.125), abs=1e-12
    )
    assert oracle.all_scores[()] == pytest.approx(math.log10(0.125), abs=1e-12)


def test_tie_broken_toward_shorter_prefix():
    """Lexicon {aa} over three uniform frames: labelings '' and 'aa' both
    carry mass 0.125 and the tie goes to the shorter (empty) prefix."""
    alphabet = ColoredAlphabet(("a",), 1, None)
    tries = [build_trie(alphabet, 0, ["aa"])]
    logits = LogitsMatrix.from_linear([[0.5, 0.5]] * 3)
    got = decode(logits, DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()), beam_width=16))
    assert got.words == ()
    assert got.score == pytest.approx(math.log10(0.125), abs=1e-12)
    # A word bonus breaks the tie the other way.
    bonus = NullScorer(ScorerConfig(beta=0.5))
    got2 = decode(logits, DecoderConfig(alphabet, tries, bonus, beam_width=16))
    assert got2.words == (("aa", 0),)
    assert got2.score == pytest.approx(math.log10(0.125) + 0.5, abs=1e-12)


def test_empty_logits_give_empty_transcript():
    alphabet = ColoredAlphabet(("a",), 1, None)
    tries = [build_trie(alphabet, 0, ["a"])]
    logits = LogitsMatrix.from_linear([], columns=2)
    got = decode(logits, DecoderConfig(alphabet, tries, NullScorer(ScorerConfig())))
    assert got == ColoredTranscript((), 0.0)


def test_nothing_survives_returns_neg_inf():
    alphabet = ColoredAlphabet(("a",), 1, None)
    tries = [build_trie(alphabet, 0, ["aa"])]  # single 'a' frame can't finish
    logits = LogitsMatrix.from_linear([[1.0, 0.0]])
    got = decode(logits, DecoderConfig(alphabet, tries, NullScorer(ScorerConfig())))
    assert got.words == ()
    assert got.score == NEG_INF


def test_shape_mismatch_raises():
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    logits = LogitsMatrix.from_linear([[0.5, 0.5]])  # 2 cols, needs 3
    with pytest.raises(ShapeMismatch):
        decode(logits, DecoderConfig(alphabet, None, NullScorer(ScorerConfig())))


def test_config_validation():
    alphabet = ColoredAlphabet(("a",), 1, None)
    with pytest.raises(ValueError):
        DecoderConfig(alphabet, None, NullScorer(ScorerConfig()), beam_width=0)


def test_unconstrained_greedy_text():
    alphabet = ColoredAlphabet(("a", "b", " "), 1, " ")
    frames = []
    for ch in "ab b":
        row = [0.0, 0.0, 0.0, 0.0]
        row[alphabet.char_column(ch)] = 1.0
        frames.append(row)
        frames.append([0.0, 0.0, 0.0, 1.0])  # blank spacer
    got = decode(
        LogitsMatrix.from_linear(frames),
        DecoderConfig(alphabet, None, NullScorer(ScorerConfig()), beam_width=8),
    )
    assert got.words == (("ab", 0), ("b", 0))
    assert got.score == pytest.approx(0.0, abs=1e-12)


def test_off_lexicon_spelling_pays_subword_penalty():
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    tries = [build_trie(alphabet, 0, ["a"])]
    lax_cfg = ScorerConfig(unknown_subword_penalty=-2.0)
    lax = DecoderConfig(alphabet, tries, NullScorer(lax_cfg))

    # Words may leave the trie mid-spelling, one penalty per off-trie char.
    forced_ab = LogitsMatrix.from_linear([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    strict = DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()))
    assert decode(forced_ab, strict).score == NEG_INF
    got = decode(forced_ab, lax)
    assert got.words == (("ab", 0),)
    assert got.score == pytest.approx(-2.0, abs=1e-12)

    forced_aba = LogitsMatrix.from_linear(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    )
    got2 = decode(forced_aba, lax)
    assert got2.words == (("aba", 0),)
    assert got2.score == pytest.approx(2 * -2.0, abs=1e-9)

    # But an off-lexicon word can never *start*: the first character must
    # sit on some trie even in lax mode.
    forced_b = LogitsMatrix.from_linear([[0.0, 1.0, 0.0]])
    assert decode(forced_b, lax).score == NEG_INF


def test_decode_stats_shapes():
    """Per frame, the beams expanded and the extensions they spawned,
    pinned exactly: the effort tally must not move with the frame step's
    bookkeeping around it."""
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    tries = [build_trie(alphabet, 0, ["a", "b", "ab"])]
    rows = random_rows(random.Random(3), 5, 3)
    stats = DecodeStats()
    decode(
        LogitsMatrix.from_linear(rows),
        DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()), beam_width=4),
        stats=stats,
    )
    assert stats == DecodeStats(expanded=[1, 3, 4, 4, 4], spawned=[2, 3, 3, 3, 3])


# ---------------------------------------------------------------------------
# decode vs the exhaustive oracle
# ---------------------------------------------------------------------------


def test_random_instances_match_oracle():
    rng = random.Random(20260815)
    for _ in range(60):
        inst = random_instance(rng)
        oracle = exhaustive_decode(
            inst.logits, inst.scorer, inst.alphabet, inst.tries
        )
        config = DecoderConfig(
            inst.alphabet,
            inst.tries,
            inst.scorer,
            beam_width=len(oracle.all_scores) + 1,
        )
        got = decode(inst.logits, config)
        assert got.words == oracle.best.words
        if math.isinf(oracle.best.score):
            assert math.isinf(got.score)
        else:
            assert got.score == pytest.approx(oracle.best.score, abs=1e-9)


def _unigram_scorer(rng: random.Random, word_chars: str) -> SingleLmScorer:
    vocab = sorted(
        {
            "".join(rng.choice(word_chars) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 4))
        }
    )
    weights = [rng.random() + 0.05 for _ in vocab]
    total = sum(weights)
    model = NGramModel(
        max_order=1,
        entries={(w,): (math.log10(x / total), None) for w, x in zip(vocab, weights)},
    )
    config = ScorerConfig(
        alpha=rng.choice([0.5, 1.0]),
        beta=rng.choice([0.0, 0.5]),
        unknown_word_penalty=(-3.0,),
    )
    return SingleLmScorer(config, model)


def _unconstrained_instance(rng: random.Random):
    """Random rows over one to three characters, half the time with the
    last one as word separator. Returns (alphabet, logits, word chars)."""
    k = rng.randint(1, 3)
    chars = "abc"[:k]
    sep = chars[-1] if k >= 2 and rng.random() < 0.5 else None
    word_chars = chars.replace(sep, "") if sep else chars
    alphabet = ColoredAlphabet(tuple(chars), 1, sep)
    rows = random_rows(rng, rng.randint(0, 4), k + 1)
    logits = LogitsMatrix.from_linear(rows, columns=k + 1)
    return alphabet, logits, word_chars


def test_unconstrained_matches_oracle():
    """``tries=None`` at a saturating beam equals the exhaustive oracle in
    words and score, with and without a separator, under no model and
    under a unigram model."""
    rng = random.Random(20261018)
    with_separator = 0
    for _ in range(150):
        alphabet, logits, word_chars = _unconstrained_instance(rng)
        if rng.random() < 0.5:
            scorer = NullScorer(ScorerConfig())
        else:
            scorer = _unigram_scorer(rng, word_chars)
        oracle = exhaustive_decode(logits, scorer, alphabet, None)
        width = len(oracle.all_scores) + 1
        got = decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=width))
        assert got.words == oracle.best.words
        if math.isinf(oracle.best.score):
            assert math.isinf(got.score)
        else:
            assert got.score == pytest.approx(oracle.best.score, abs=1e-9)
        with_separator += alphabet.word_separator is not None
    assert 0 < with_separator < 150


def test_merge_conserves_total_mass(monkeypatch):
    """Unconstrained, at a saturating beam, each CTC alignment collapses
    to exactly one prefix, so the beam every frame keeps carries
    probability 1; a lost or double-counted path moves the total."""
    masses: list[float] = []
    _spy_select(
        monkeypatch, lambda kept: masses.append(logsumexp10([k.total for k in kept]))
    )
    rng = random.Random(77)
    frames = 0
    for _ in range(60):
        alphabet, logits, _ = _unconstrained_instance(rng)
        width = sum(alphabet.size**n for n in range(logits.frames + 1))
        masses.clear()
        scorer = NullScorer(ScorerConfig())
        decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=width))
        assert len(masses) == logits.frames
        assert masses == pytest.approx([0.0] * len(masses), abs=1e-9)
        frames += len(masses)
    assert frames > 0


def test_ranked_beams_carry_current_scores(monkeypatch):
    """Every beam a frame keeps carries the total of its final masses
    and that total plus its text score, bit for bit: a merged beam's
    figures are set after its last merge, and a fresh child's are the
    ones it passed the cutoff on."""
    checked = [0]

    def check(kept):
        for k in kept:
            total = logaddexp10(k.p_blank, k.p_nonblank)
            assert k.total.hex() == total.hex()
            assert k.score.hex() == (total + k.p_text).hex()
        checked[0] += len(kept)

    _spy_select(monkeypatch, check)
    rng = random.Random(6124)
    for i in range(300):
        inst = random_instance(rng, max_frames=8, max_words=4)
        scorer = ColoringScorer(
            dataclasses.replace(
                inst.scorer.config, unknown_subword_penalty=-2.0 if i % 2 else None
            ),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        for width in (1, 2, 3, 4):
            decode(inst.logits, DecoderConfig(inst.alphabet, inst.tries, scorer, width))
    assert checked[0] > 0


@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_expansion_order_changes_no_bit(monkeypatch, reorder):
    """``decode`` relies on the set ``_select`` keeps, not on the order
    it expands it in (best first): a merge sums at most two
    masses with the symmetric ``logaddexp10``, the cutoff is the
    beam-width-th best of a multiset, and finishing takes a minimum.
    Expanding the selected beams worst first, or shuffled, leaves every
    transcript and every score bit for bit as it was."""
    draw = random.Random(5150).random
    reordered = (lambda b: -b.score) if reorder == "reversed" else (lambda b: draw())

    rng = random.Random(4637)
    problems = []
    for i in range(250):
        inst = random_instance(rng, max_frames=6, max_words=4)
        scorer = ColoringScorer(
            dataclasses.replace(
                inst.scorer.config, unknown_subword_penalty=-2.0 if i % 2 else None
            ),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        tries = None if i % 5 == 4 else inst.tries
        # more beams than six frames over three characters in two
        # colors can spell, so the last width saturates
        for width in (1, 2, 3, 100_000):
            problems.append((inst.logits, DecoderConfig(inst.alphabet, tries, scorer, width)))

    def outcomes():
        return [
            (got.words, got.score.hex())
            for got in (decode(logits, config) for logits, config in problems)
        ]

    expected = outcomes()
    monkeypatch.setattr(decoder_module, "_EXPANSION_KEY", reordered)
    assert outcomes() == expected


def test_narrow_beams_merge_every_duplicate_prefix(monkeypatch):
    """At beams 1-3 a prefix often leaves the beam while a child of it
    stays. Extending the survivors must still reach the one node that
    spells each prefix, so the beam kept after every frame spells
    pairwise distinct prefixes; two nodes for one prefix would split its
    mass."""
    frames = [0]

    def distinct(kept):
        spelled = [k.labels for k in kept]
        assert len(set(spelled)) == len(spelled)
        frames[0] += 1

    _spy_select(monkeypatch, distinct)
    rng = random.Random(2873)
    for _ in range(1000):
        inst = random_instance(rng, max_frames=8, max_words=4)
        for width in (1, 2, 3):
            config = DecoderConfig(inst.alphabet, inst.tries, inst.scorer, beam_width=width)
            decode(inst.logits, config)
    assert frames[0] > 0


def _plain_prefix_search(rows, width):
    """A textbook CTC prefix beam search over one color with no text
    score: per frame, the candidates it ranks, {labels: (p_blank,
    p_nonblank)}, including those of the initial frame. It keeps the
    ``width`` best by (-score, depth, labels), and of the next frame's
    candidates those scoring at least the ``width``-th best."""
    beams = {(): (0.0, NEG_INF)}
    frames = [beams]
    for row in rows:
        ranked = sorted(
            beams.items(), key=lambda kv: (-logaddexp10(*kv[1]), len(kv[0]), kv[0])
        )
        nxt: dict[tuple, tuple[float, float]] = {}

        def add(labels, p_blank, p_nonblank):
            pb, pnb = nxt.get(labels, (NEG_INF, NEG_INF))
            nxt[labels] = (logaddexp10(pb, p_blank), logaddexp10(pnb, p_nonblank))

        for labels, (p_blank, p_nonblank) in ranked[:width]:
            total = logaddexp10(p_blank, p_nonblank)
            last = labels[-1][0] if labels else None
            stay = p_nonblank + row[last] if labels else NEG_INF
            add(labels, total + row[-1], stay)
            for col in range(len(row) - 1):
                mass = (p_blank if col == last else total) + row[col]
                if mass != NEG_INF:
                    add(labels + ((col, 0),), NEG_INF, mass)
        if len(nxt) > width:
            cutoff = sorted((logaddexp10(*m) for m in nxt.values()), reverse=True)[
                width - 1
            ]
            nxt = {k: m for k, m in nxt.items() if logaddexp10(*m) >= cutoff}
        beams = nxt
        frames.append(beams)
    return frames


def _hexed(frames):
    return [
        {labels: (pb.hex(), pnb.hex()) for labels, (pb, pnb) in f.items()}
        for f in frames
    ]


def test_narrow_beams_match_a_plain_prefix_search(monkeypatch):
    """At beams 1-3 prefixes leave the beam and come back, through their
    own stay or their parent's extension, while the node that spells
    them lives on below a survivor. Unconstrained, with no text score
    and tie-free rows, the beam every frame keeps and its masses equal,
    bit for bit, those of a plain prefix beam search keyed by label
    tuples, which rebuilds each candidate's masses from nothing."""
    frames = []
    _spy_select(
        monkeypatch,
        lambda kept: frames.append({k.labels: (k.p_blank, k.p_nonblank) for k in kept}),
    )
    rng = random.Random(6007)
    returns = 0  # candidates ranked before, but not in the previous frame
    for i in range(1000):
        k = rng.randint(2, 4)
        chars = "abcd"[:k]
        alphabet = ColoredAlphabet(tuple(chars), 1, chars[-1] if i % 2 else None)
        rows = []
        for _ in range(rng.randint(1, 10)):
            row = [rng.random() + 1e-3 for _ in range(k + 1)]
            rows.append([v / sum(row) for v in row])
        logits = LogitsMatrix.from_linear(rows)
        scorer = NullScorer(ScorerConfig(beta=0.0))
        for width in (1, 2, 3):
            frames.clear()
            decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=width))
            expected = _plain_prefix_search(logits.log10_rows(), width)
            # every frame's, after the root's
            assert frames and _hexed(frames) == _hexed(expected[1:])
            seen: set = set()
            for before, after in zip(expected, expected[1:]):
                seen.update(before)
                returns += sum(
                    labels in seen and labels not in before for labels in after
                )
    assert returns > 50


def test_narrow_beam_never_beats_saturated_beam():
    """Any beam width scores at most the saturated-width (= oracle) score.

    Pairwise monotonicity in the width does not hold for prefix search
    with mass merging (a wider beam can re-rank candidates mid-utterance),
    but the saturated width is always an upper bound.
    """
    rng = random.Random(99)
    for _ in range(40):
        inst = random_instance(rng)
        oracle = exhaustive_decode(
            inst.logits, inst.scorer, inst.alphabet, inst.tries
        )
        for width in (1, 2, 4):
            got = decode(
                inst.logits,
                DecoderConfig(inst.alphabet, inst.tries, inst.scorer, beam_width=width),
            )
            assert got.score <= oracle.best.score + 1e-9


def test_decoded_colors_are_in_range():
    rng = random.Random(555)
    for _ in range(30):
        inst = random_instance(rng)
        got = decode(
            inst.logits,
            DecoderConfig(inst.alphabet, inst.tries, inst.scorer, beam_width=8),
        )
        for word, color in got.words:
            assert 0 <= color < inst.alphabet.num_colors
            assert word


# ---------------------------------------------------------------------------
# branching bound under first-letter-partitioned lexicons
# ---------------------------------------------------------------------------


def _partitioned_setup(num_colors):
    """Eight base chars + separator; lexicon words starting with distinct
    letters per color so colored branching equals uncolored branching."""
    base = tuple("abcdefgh") + (" ",)
    alphabet = ColoredAlphabet(base, num_colors, " ")
    groups = [
        ["aa", "ab", "b"],
        ["cc", "cd", "d"],
        ["ee", "ef", "f"],
        ["gg", "gh", "h"],
    ]
    if num_colors == 1:
        tries = [build_trie(alphabet, 0, sum(groups, []))]
    else:
        tries = [build_trie(alphabet, c, groups[c]) for c in range(num_colors)]
    return alphabet, tries


def test_colored_branching_matches_union_lexicon():
    rng = random.Random(42)
    rows = random_rows(rng, 6, 10)
    logits = LogitsMatrix.from_linear(rows)
    results = {}
    for colors in (1, 4):
        alphabet, tries = _partitioned_setup(colors)
        stats = DecodeStats()
        got = decode(
            logits,
            DecoderConfig(
                alphabet, tries, NullScorer(ScorerConfig()), beam_width=4096
            ),
            stats=stats,
        )
        text = " ".join(w for w, _ in got.words)
        results[colors] = (stats.expanded, stats.spawned, text, got.score)
    assert results[1][0] == results[4][0]
    assert results[1][1] == results[4][1]
    assert results[1][2] == results[4][2]
    assert results[1][3] == pytest.approx(results[4][3], abs=1e-12)


def test_spawned_bounded_by_alphabet_size_per_beam():
    alphabet, tries = _partitioned_setup(4)
    rng = random.Random(17)
    rows = random_rows(rng, 6, 10)
    stats = DecodeStats()
    decode(
        LogitsMatrix.from_linear(rows),
        DecoderConfig(alphabet, tries, NullScorer(ScorerConfig()), beam_width=4096),
        stats=stats,
    )
    for expanded, spawned in zip(stats.expanded, stats.spawned):
        assert spawned <= expanded * (alphabet.size + 1)


def _cycle_case_configs():
    """One config per scorer kind and grammar: over the lexicons, with
    off-lexicon spelling at subword penalty -2, and unconstrained. The
    models are bigram models over each color's words; coloring takes one
    per color, the two-model kinds the first as general and the last as
    domain model."""
    alphabet, tries = _partitioned_setup(2)
    models = []
    for trie in tries:
        words = sorted(trie_words(trie))
        entries = {(w,): (math.log10(1 / len(words)), -0.3) for w in words}
        entries.update({(a, b): (-0.2, None) for a in words for b in words if a < b})
        models.append(NGramModel(max_order=2, entries=entries))
    for kind in SCORER_KINDS:
        for grammar, subword_penalty in (
            ("lexicon", None), ("off-lexicon", -2.0), ("unconstrained", None)
        ):
            config = ScorerConfig(
                beta=0.5, unknown_word_penalty=(-10.0, -10.0),
                unknown_subword_penalty=subword_penalty,
            )
            scorer = _scorer_of_kind(kind, models, config)
            grammar_tries = None if grammar == "unconstrained" else tries
            yield kind, grammar, DecoderConfig(alphabet, grammar_tries, scorer, beam_width=16)


def test_decode_leaves_no_cyclic_garbage():
    """The children memo holds weak references, so the prefix tree has
    no reference cycles: pruned branches are freed by reference counting
    and a 300-frame decode leaves nothing for the cycle collector, for
    every scorer kind, over the lexicons with off-lexicon spelling off
    and on, and unconstrained."""
    logits = LogitsMatrix.from_linear(random_rows(random.Random(8), 300, 10))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for kind, grammar, config in _cycle_case_configs():
            gc.collect()
            got = decode(logits, config)
            assert gc.collect() == 0, (kind, grammar)
            assert got.words, (kind, grammar)
    finally:
        if was_enabled:
            gc.enable()


def test_decode_memory_grows_linearly_with_the_words():
    """A word completion links one word onto its parent's chain rather
    than copying every word before it, and a frame converts only its own
    row, so doubling an utterance at most about doubles the peak memory
    of decoding it. Beam 1 keeps the prefix tree a single chain, every
    node of which stays alive as an ancestor of the last beam; copying
    the words at each completion made the peak grow with their square,
    2.76 times over at 400 words."""
    alphabet = ColoredAlphabet(("a", "b", " "), 1, " ")
    config = DecoderConfig(
        alphabet, [build_trie(alphabet, 0, ["ab"])], NullScorer(ScorerConfig()),
        beam_width=1,
    )

    def peak(repeats: int) -> int:
        rows = []
        for char in "ab " * repeats:
            row = [0.01] * 4
            row[alphabet.char_column(char)] = 0.97
            rows.append(row)
        logits = LogitsMatrix.from_linear(rows)
        tracemalloc.start()
        try:
            got = decode(logits, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.words == (("ab", 0),) * repeats
        return peak

    assert peak(800) <= 2.25 * peak(400)


# ---------------------------------------------------------------------------
# off-lexicon spelling and the per-config successor table
# ---------------------------------------------------------------------------


def _offlex_coloring_config(subword_penalty=-2.0, beam_width=16, strangers=((), ())):
    """Two colors over "abc" plus a separator, scored by a coloring
    scorer that allows off-lexicon spelling. Each color's model also
    knows that color's ``strangers``, as likely as each of its lexicon
    words."""
    alphabet = ColoredAlphabet(("a", "b", "c", " "), 2, " ")
    lexicons = [["ab", "abc", "ba"], ["b", "cab"]]
    tries = [build_trie(alphabet, c, words) for c, words in enumerate(lexicons)]
    known = [lex + list(extra) for lex, extra in zip(lexicons, strangers)]
    models = [
        NGramModel(max_order=1, entries={(w,): (math.log10(1 / len(lex)), None) for w in words})
        for lex, words in zip(lexicons, known)
    ]
    scorer = ColoringScorer(
        ScorerConfig(
            unknown_word_penalty=(-1.0, -1.0), unknown_subword_penalty=subword_penalty
        ),
        merge_colored((m, c) for c, m in enumerate(models)),
        2,
    )
    return DecoderConfig(alphabet, tries, scorer, beam_width=beam_width)


def _trie_nodes(node) -> int:
    return sum(1 + _trie_nodes(child) for child in node.children.values())


def test_successor_table_is_built_once_per_config(monkeypatch):
    """The grammar state leaves the spelling out, so a config meets at
    most ``1 + sum over colors of (trie nodes + 2)`` states, and builds
    each one's successor list once for every utterance it decodes."""
    calls = []

    def counting(alphabet, tries, state, allow_off_lexicon=False):
        calls.append(state)
        return word_successors(alphabet, tries, state, allow_off_lexicon)

    monkeypatch.setattr(decoder_module, "word_successors", counting)
    config = _offlex_coloring_config()
    rng = random.Random(4)
    corpus = [LogitsMatrix.from_linear(random_rows(rng, 20, 5)) for _ in range(6)]

    decode(corpus[0], config)
    assert calls and len(calls) == len(set(calls))
    first = len(calls)
    decode(corpus[0], config)
    assert len(calls) == first
    for logits in corpus[1:]:
        decode(logits, config)
    assert any(s.in_word and s.node is None for s in calls)  # off-trie states met
    bound = 1 + sum(_trie_nodes(t.root) + 2 for t in config.tries)
    assert len(calls) == len(set(calls)) <= bound


def test_a_config_for_another_scorer_shares_the_table_only_when_spelling_agrees(
    monkeypatch,
):
    """``with_scorer`` keeps the beam width and the successor table for
    a scorer that spells off the lexicon as the first one does, so no
    state's successor list is built twice; for one that does not, the
    table starts fresh and the states met before are built again. Either
    way the config holds its own scorer's unknown-word prices from the
    start, and the transcript is the one a fresh config decodes."""
    calls = []

    def counting(alphabet, tries, state, allow_off_lexicon=False):
        calls.append((state, allow_off_lexicon))
        return word_successors(alphabet, tries, state, allow_off_lexicon)

    monkeypatch.setattr(decoder_module, "word_successors", counting)
    config = _offlex_coloring_config(subword_penalty=-2.0, beam_width=8)
    logits = LogitsMatrix.from_linear(random_rows(random.Random(9), 20, 5))
    decode(logits, config)
    built = len(calls)
    assert built

    for penalty, reused in ((0.0, True), (None, False)):
        fresh = _offlex_coloring_config(subword_penalty=penalty, beam_width=8)
        derived = config.with_scorer(fresh.scorer)
        assert (derived.alphabet, derived.tries) == (config.alphabet, config.tries)
        assert derived.scorer is fresh.scorer and derived.beam_width == 8
        assert (derived._successors is config._successors) == reused
        assert derived._unknown_deltas == fresh._unknown_deltas
        assert None not in derived._unknown_deltas.values()
        before = len(calls)
        transcript = decode(logits, derived)
        again = {s for s, _ in calls[before:]} & {s for s, _ in calls[:before]}
        assert bool(again) != reused
        assert all(allow == (penalty is not None) for _, allow in calls[before:])
        monkeypatch.setattr(decoder_module, "word_successors", word_successors)
        assert transcript == decode(logits, fresh)
        monkeypatch.setattr(decoder_module, "word_successors", counting)
    assert len(calls) > built


def test_off_lexicon_words_match_oracle():
    """With off-lexicon spelling on in every instance, a saturating
    beam finds the oracle's transcript and score: words that leave their
    trie are spelled from the prefix, by separators and at the end."""
    rng = random.Random(1408)
    spelled = 0
    for _ in range(300):
        inst = random_instance(rng, max_frames=6)
        scorer = ColoringScorer(
            dataclasses.replace(inst.scorer.config, unknown_subword_penalty=-2.0),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        oracle = exhaustive_decode(inst.logits, scorer, inst.alphabet, inst.tries)
        config = DecoderConfig(
            inst.alphabet, inst.tries, scorer, beam_width=len(oracle.all_scores) + 1
        )
        got = decode(inst.logits, config)
        assert got.words == oracle.best.words
        if oracle.best.score == NEG_INF:
            assert got.score == NEG_INF
        else:
            assert got.score == pytest.approx(oracle.best.score, abs=1e-9)
        on_trie = {w for t in inst.tries for w in trie_words(t)}
        spelled += sum(w not in on_trie for w, _ in got.words)
    assert spelled > 0


def test_word_leaving_its_trie_is_spelled_mid_utterance_and_at_the_end():
    """"abb" starts on color 0's "ab" and leaves it, closed by a
    separator; "aa" leaves the same trie and is closed by the end of the
    utterance. Both come back spelled, each charged one off-trie
    character."""
    config = _offlex_coloring_config(subword_penalty=-0.5, beam_width=64)
    alphabet, scorer = config.alphabet, config.scorer
    path = [0, 1, 4, 1, 3, 0, 4, 0]  # a b - b sep a - a (4 = blank)
    rows = [[0.996 if c == target else 0.001 for c in range(5)] for target in path]
    logits = LogitsMatrix.from_linear(rows)

    got = decode(logits, config)

    assert got.words == (("abb", 0), ("aa", 0))
    first, state = scorer.word_delta(scorer.initial_state(), "abb", 0)
    second, _ = scorer.word_delta(state, "aa", 0)
    label = [alphabet.char_column(c) for c in "abb aa"]
    expected = ctc_path_sum(logits.log10_rows(), label) + first + second + 2 * -0.5
    assert got.score == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# children scored before they are built, word deltas memoized per decode
# ---------------------------------------------------------------------------


def test_frame_builds_nodes_only_for_candidates_that_can_rank(monkeypatch):
    """A child with no live node is scored, and becomes a node only if
    its score reaches the beam-width-th best of its frame; only the
    candidates that reach it are ranked. With one color and continuous
    random logits no two candidates tie, so a frame makes at most
    ``beam_width`` nodes and keeps at most ``beam_width`` candidates even
    though off-lexicon spelling offers every column to every beam."""
    built = [0]

    class CountingPrefix(Prefix):
        __slots__ = ()

        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    built_before_select: list[int] = []
    kept_counts: list[int] = []

    def count(kept):
        built_before_select.append(built[0])
        kept_counts.append(len(kept))

    monkeypatch.setattr(decoder_module, "Prefix", CountingPrefix)
    _spy_select(monkeypatch, count)
    alphabet = ColoredAlphabet(("a", "b", "c", "d", " "), 1, " ")
    tries = [build_trie(alphabet, 0, ["ab", "abc", "bad", "d"])]
    scorer = NullScorer(ScorerConfig(beta=-0.5, unknown_subword_penalty=-1.0))
    rng = random.Random(18123)
    for width in (1, 2, 4, 8):
        config = DecoderConfig(alphabet, tries, scorer, beam_width=width)
        for _ in range(5):
            logits = LogitsMatrix.from_linear(random_rows(rng, 30, 6))
            built[0] = 0
            built_before_select.clear()
            kept_counts.clear()
            stats = DecodeStats()
            got = decode(logits, config, stats)
            built_before_select.append(built[0])
            # the root, then per frame the nodes built after its selection
            assert built_before_select[0] == 1
            per_frame = [
                b - a for a, b in zip(built_before_select, built_before_select[1:])
            ]
            assert len(per_frame) == logits.frames
            assert max(per_frame) <= width
            assert max(kept_counts) <= width
            assert sum(stats.spawned) > sum(per_frame)
            assert got.words


def test_tie_at_the_cutoff_keeps_fresh_candidates():
    """Two frames uniform over {a, b, blank}, unconstrained, at beam 2.
    Frame 1 ranks '', 'a' and 'b' at 1/3 each: the cutoff is 1/3, and
    'a' (built this frame) beats 'b' on label order for the second slot.
    Frame 2 then gives 'a' mass 3/9 (blank, repeat, and root's 'a'); ''
    keeps 1/9 and wins the tie with 'b' and 'ab' on depth. Dropping the
    candidates tied at the cutoff would leave only '' with 1/9. At beam 1
    '' wins every tie on depth."""
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    logits = LogitsMatrix.from_linear([[1 / 3] * 3] * 2)
    scorer = NullScorer(ScorerConfig())

    got = decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=2))
    assert got.words == (("a", 0),)
    assert got.score == pytest.approx(math.log10(3 / 9), abs=1e-12)

    got = decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=1))
    assert got.words == ()
    assert got.score == pytest.approx(math.log10(1 / 9), abs=1e-12)


def test_word_delta_runs_once_per_input_per_decode(monkeypatch):
    """Within one decode a word completing the same scorer state with
    the same color is scored once, mid-utterance and at the end alike,
    even when its node was dropped and a later frame offers it again."""
    config = _offlex_coloring_config(beam_width=4)
    scorer = config.scorer
    calls: list[tuple] = []
    original = scorer.word_delta

    def counting(state, word, color):
        calls.append((state, word, color))
        return original(state, word, color)

    monkeypatch.setattr(scorer, "word_delta", counting)
    rng = random.Random(2211)
    scored = 0
    for _ in range(8):
        logits = LogitsMatrix.from_linear(random_rows(rng, 40, 5))
        calls.clear()
        decode(logits, config)
        assert len(calls) == len(set(calls))
        scored += len(calls)
    assert scored > 0


# ---------------------------------------------------------------------------
# wide grammar states: the score floor
# ---------------------------------------------------------------------------


def _decode_recorded(
    monkeypatch,
    logits,
    config,
    every_extension=False,
    price_unknown=True,
    expansion_key=None,
):
    """Decode, and return the transcript's words and score by
    ``float.hex`` with the beam kept after every frame as sorted
    (labels, p_blank, p_nonblank) triples, masses by ``float.hex``.
    With ``every_extension`` every grammar state counts as narrow, so no
    floor is ever started and the frame step scores every extension of
    every beam; the floor must not change a single bit of what that
    every-extension reference produces. With ``price_unknown`` False no
    color has an unknown-word delta, so every word that completes off
    its trie is spelled and scored before the floor test. An
    ``expansion_key`` replaces the score as the key a frame's beams are
    expanded by, highest first."""
    frames = []

    def record(kept):
        frames.append(
            sorted((k.labels, k.p_blank.hex(), k.p_nonblank.hex()) for k in kept)
        )

    entry = decoder_module._successor_entry

    def narrow_entry(*args):
        count, succ, by_col, _walk_off = entry(*args)
        walked = [item for items in by_col or () if items for item in items]
        return count, succ + walked, None, False

    with monkeypatch.context() as m:
        _spy_select(m, record)
        if every_extension:
            m.setattr(decoder_module, "_successor_entry", narrow_entry)
        if not price_unknown:
            m.setattr(decoder_module, "_unknown_deltas", lambda *args: {})
        if expansion_key is not None:
            m.setattr(decoder_module, "_EXPANSION_KEY", expansion_key)
        got = decode(logits, dataclasses.replace(config))
    assert len(frames) == logits.frames
    return (got.words, got.score.hex()), frames


def _assert_floor_is_exact(monkeypatch, logits, config):
    assert _decode_recorded(monkeypatch, logits, config) == _decode_recorded(
        monkeypatch, logits, config, every_extension=True
    )


def _abcd_config():
    """One color over "abcd" plus a separator, lexicon {"a"}, free
    off-lexicon spelling, beam 2: within a word every letter leaves the
    trie, so the frame step walks them by column (a wide state); a word
    boundary offers only "a" and the separator (narrow)."""
    alphabet = ColoredAlphabet(("a", "b", "c", "d", " "), 1, " ")
    tries = [build_trie(alphabet, 0, ["a"])]
    scorer = NullScorer(ScorerConfig(unknown_subword_penalty=0.0))
    return DecoderConfig(alphabet, tries, scorer, beam_width=2)


def test_wide_states_agree_with_scoring_every_extension(monkeypatch):
    """Off-lexicon spelling on, so with at most three characters every
    in-word state is wide. At beams 1-4, with subword penalties below,
    at and above zero and word bonuses 0 and 0.5, every frame ranks the
    same candidates with the same masses, and the transcript and score
    are the same, as when every extension is scored. Every fourth
    instance has uniform frames, where candidates tie exactly with the
    beam-width-th best score and must still be ranked."""
    floors = [0]
    raise_floor = decoder_module._raise_floor

    def counting(bounds, score, width):
        floor = raise_floor(bounds, score, width)
        floors[0] += floor != NEG_INF
        return floor

    monkeypatch.setattr(decoder_module, "_raise_floor", counting)
    rng = random.Random(7207)
    for i in range(240):
        inst = random_instance(rng, max_frames=6, max_words=4)
        scorer = ColoringScorer(
            dataclasses.replace(
                inst.scorer.config,
                unknown_subword_penalty=(-2.0, 0.0, 1.0)[i % 3],
                beta=0.5 if i % 2 else 0.0,
            ),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        logits = inst.logits
        if i % 4 == 3:
            cols = logits.columns
            logits = LogitsMatrix.from_linear([[1 / cols] * cols] * logits.frames, cols)
        for width in (1, 2, 3, 4):
            config = DecoderConfig(inst.alphabet, inst.tries, scorer, width)
            _assert_floor_is_exact(monkeypatch, logits, config)
    assert floors[0] > 0


def test_live_child_below_the_floor_takes_its_parents_mass(monkeypatch):
    """In the last frame blank dominates, so the walk of "a" stops at
    its first column. Its live child "ab" sits at a column below the
    floor, yet it stays in the beam on its own mass and must still take
    the mass of the paths "aab", "a-b" and "-ab" from "a": the score of
    "ab" is its whole CTC mass."""
    config = _abcd_config()
    rows = [
        [0.6, 0.025, 0.025, 0.025, 0.025, 0.3],
        [0.1, 0.5, 0.02, 0.02, 0.02, 0.34],
        [0.01, 0.01, 0.01, 0.01, 0.01, 0.95],
    ]
    logits = LogitsMatrix.from_linear(rows)

    got = decode(logits, dataclasses.replace(config))

    assert got.words == (("ab", 0),)
    expected = ctc_path_sum(logits.log10_rows(), [0, 1])
    assert got.score == pytest.approx(expected, abs=1e-12)
    _assert_floor_is_exact(monkeypatch, logits, config)


def test_repeat_column_without_blank_mass_does_not_end_the_walk(monkeypatch):
    """"a" is fresh after frame 1, so it has no blank-ending mass, and in
    frame 2 its own column ranks first: repeating it adds nothing. The
    walk must go on to "b", or "ab" misses the paths "abb" and "ab-"."""
    config = _abcd_config()
    rows = [
        [0.85, 0.025, 0.025, 0.025, 0.025, 0.05],
        [0.45, 0.44, 0.1 / 3, 0.1 / 3, 0.1 / 3, 0.01],
        [0.0125, 0.9, 0.0125, 0.0125, 0.0125, 0.05],
    ]
    logits = LogitsMatrix.from_linear(rows)
    assert logits.ranked_columns()[1][0] == 0

    got = decode(logits, dataclasses.replace(config))

    assert got.words == (("ab", 0),)
    expected = ctc_path_sum(logits.log10_rows(), [0, 1])
    assert got.score == pytest.approx(expected, abs=1e-12)
    _assert_floor_is_exact(monkeypatch, logits, config)


def test_ranked_columns_order_non_blank_columns_by_log10():
    logits = LogitsMatrix.from_linear([[0.1, 0.4, 0.0, 0.2, 0.3], [0.25] * 4 + [0.0]])
    assert logits.ranked_columns().tolist() == [[1, 3, 0, 2], [0, 1, 2, 3]]
    assert LogitsMatrix.from_linear([], columns=3).ranked_columns().tolist() == []


# ---------------------------------------------------------------------------
# off-lexicon word endings priced before they are spelled
# ---------------------------------------------------------------------------


def test_a_known_word_off_the_lexicon_is_scored_by_its_model():
    """The model knows "ac" with probability 1/2, but the lexicon holds
    only "ab". At beam 1 the separator frame's floor is the stay of "ac"
    (blank has 0.01): above its completion priced as an unknown word
    (-10), below it priced with the model's log10(1/2). The model knows a
    word off the trie, so the decoder must not price the trie's
    off-lexicon endings as unknown: it spells "ac", scores it and keeps
    it."""
    alphabet = ColoredAlphabet(("a", "b", "c", " "), 1, " ")
    tries = [build_trie(alphabet, 0, ["ab"])]
    half = math.log10(0.5)
    model = NGramModel(max_order=1, entries={("ab",): (half, None), ("ac",): (half, None)})
    scorer = SingleLmScorer(
        ScorerConfig(unknown_word_penalty=(-10.0,), unknown_subword_penalty=-0.5), model
    )
    path = [0, 2, 3]  # a c sep
    rows = [[0.96 if c == target else 0.01 for c in range(5)] for target in path]
    logits = LogitsMatrix.from_linear(rows)

    config = DecoderConfig(alphabet, tries, scorer, beam_width=1)
    got = decode(logits, config)

    assert got.words == (("ac", 0),)
    expected = ctc_path_sum(logits.log10_rows(), path) + half - 0.5
    assert got.score == pytest.approx(expected, abs=1e-12)


def _models_with_strangers(rng, inst):
    """One unigram model per color over the words of its trie, with a
    word of at most three letters added half of the time, off the trie
    more often than not: a scorer then knows words its lexicon lacks."""
    sep = inst.alphabet.word_separator
    letters = [c for c in inst.alphabet.base_chars if c != sep]
    models = []
    for trie in inst.tries:
        words = trie_words(trie)
        if rng.random() < 0.5:
            words.add("".join(rng.choice(letters) for _ in range(rng.randint(1, 3))))
        entries = {(w,): (math.log10(1 / (len(words) + 1)), None) for w in sorted(words)}
        models.append(NGramModel(max_order=1, entries=entries))
    return models


def _scorer_of_kind(kind, models, config):
    """A ``kind`` scorer over ``models``, one per color; the two-model
    kinds take the first color's as general and the last one's as
    domain model."""
    if kind == "coloring":
        return make_scorer(kind, models, config)
    general_domain = (models[0], models[-1])
    table = BinTable(2, (-3.0, 0.0), (-3.0, 0.0), ((-0.5, None), (-1.0, -0.2)))
    return make_scorer(
        kind, [general_domain[i] for i in KIND_MODELS[kind]], config, bin_table=table
    )


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_pricing_unknown_words_first_changes_no_ranked_candidate(monkeypatch, kind):
    """With off-lexicon spelling on, at beams 1-4, subword penalties -2,
    0 and +1 and word bonuses 0 and 0.5, every frame ranks the same
    candidates with the same masses, and the transcript and score are
    the same, as when every word that completes off its trie is spelled
    and scored before the floor test. Every fourth instance has uniform
    frames, so candidates tie with the cutoff."""
    rng = random.Random(sum(map(ord, kind)))
    scored = {True: 0, False: 0}
    priced = [True]

    for i in range(60):
        inst = random_instance(rng, max_frames=6, max_words=4)
        config = ScorerConfig(
            unknown_word_penalty=(-10.0, -10.0),
            unknown_subword_penalty=(-2.0, 0.0, 1.0)[i % 3],
            beta=0.5 if i % 2 else 0.0,
        )
        scorer = _scorer_of_kind(kind, _models_with_strangers(rng, inst), config)
        word_delta = scorer.word_delta

        def counting(state, word, color, word_delta=word_delta):
            scored[priced[0]] += 1
            return word_delta(state, word, color)

        scorer.word_delta = counting
        logits = inst.logits
        if i % 4 == 3:
            cols = logits.columns
            logits = LogitsMatrix.from_linear([[1 / cols] * cols] * logits.frames, cols)
        for width in (1, 2, 3, 4):
            config = DecoderConfig(inst.alphabet, inst.tries, scorer, width)
            priced[0] = True
            with_skip = _decode_recorded(monkeypatch, logits, config)
            priced[0] = False
            without = _decode_recorded(monkeypatch, logits, config, price_unknown=False)
            assert with_skip == without
    # the skip spares scorer calls wherever it can price a word unspelled
    assert (scored[True] < scored[False]) == (kind != "bayes")


def test_a_config_fixes_its_unknown_word_prices_when_it_is_built(monkeypatch):
    """A config prices the words spelled off each color's trie once, as
    it is built, and decoding leaves the prices as they were."""
    calls = []
    unknown_deltas = decoder_module._unknown_deltas

    def counting(*args):
        calls.append(args)
        return unknown_deltas(*args)

    monkeypatch.setattr(decoder_module, "_unknown_deltas", counting)
    config = _offlex_coloring_config()
    assert len(calls) == 1
    prices = {color: config.scorer.unknown_delta(color) for color in (0, 1)}
    assert config._unknown_deltas == prices
    logits = LogitsMatrix.from_linear(random_rows(random.Random(9), 20, 5))
    for _ in range(2):
        decode(logits, config)
    assert len(calls) == 1
    assert config._unknown_deltas == prices


def _decoded_and_scored(logits, config):
    """The transcript of ``config`` and every ``(word, color)`` its
    scorer scored."""
    scored = []
    word_delta = config.scorer.word_delta

    def recording(state, word, color):
        scored.append((word, color))
        return word_delta(state, word, color)

    config.scorer.word_delta = recording
    return decode(logits, config), scored


def _of_color(calls, color):
    return [call for call in calls if call[1] == color]


@pytest.mark.parametrize("stranger", ["cc", "cab"])
def test_a_spellable_model_word_no_trie_holds_withholds_its_colors_price(
    monkeypatch, stranger
):
    """A model word that the alphabet spells but no trie of its color
    holds, one another color's trie holds or none, withholds its color's
    price: every word of that color completed off its trie is spelled
    and scored, as with no price at all, while the other color's words
    are still priced unspelled. Without the stranger, color 0 is priced
    and fewer of its words are scored."""
    logits = LogitsMatrix.from_linear(random_rows(random.Random(1), 12, 5))
    config = _offlex_coloring_config(-0.5, 3, ([stranger], []))
    assert config._unknown_deltas[0] is None
    assert config._unknown_deltas[1] == config.scorer.unknown_delta(1)
    with monkeypatch.context() as m:
        m.setattr(decoder_module, "_unknown_deltas", lambda *args: {0: None, 1: None})
        unpriced = _offlex_coloring_config(-0.5, 3, ([stranger], []))
    transcript, scored = _decoded_and_scored(logits, config)
    unpriced_transcript, unpriced_scored = _decoded_and_scored(logits, unpriced)
    assert unpriced_transcript == transcript

    assert _of_color(scored, 0) == _of_color(unpriced_scored, 0)
    assert any(word not in ("ab", "abc", "ba") for word, _ in _of_color(scored, 0))
    assert len(_of_color(scored, 1)) < len(_of_color(unpriced_scored, 1))
    plain, plain_scored = _decoded_and_scored(logits, _offlex_coloring_config(-0.5, 3))
    assert plain == transcript
    assert len(_of_color(plain_scored, 0)) < len(_of_color(scored, 0))


@pytest.mark.parametrize(
    "strangers",
    [(["Ab"], []), (["ad"], []), (["<s>", "</s>"], ["<s>", "</s>"])],
    ids=["Ab", "ad", "sentence-markers"],
)
def test_a_model_word_the_alphabet_cannot_spell_withholds_no_price(strangers):
    """No spelling reaches a model word with a character that is no
    column of the alphabet: an uppercase letter, "d" outside "abc", or
    the ``<s>`` and ``</s>`` unigrams a standard ARPA file holds. Such a
    word leaves both colors priced, and the decoder scores the same
    words and returns the same transcript as without it."""
    logits = LogitsMatrix.from_linear(random_rows(random.Random(1), 12, 5))
    config = _offlex_coloring_config(-0.5, 3, strangers)
    assert config._unknown_deltas == {
        color: config.scorer.unknown_delta(color) for color in (0, 1)
    }
    assert None not in config._unknown_deltas.values()
    plain = _offlex_coloring_config(-0.5, 3)
    assert _decoded_and_scored(logits, config) == _decoded_and_scored(logits, plain)


# ---------------------------------------------------------------------------
# the next beam selected at the cutoff step
# ---------------------------------------------------------------------------


def test_ties_at_the_cutoff_build_only_the_next_beam(monkeypatch):
    """On uniform frames many candidates tie exactly at the cutoff. A
    frame builds at most ``beam_width`` nodes and keeps at most that
    many, and what it keeps is what the ranking rule (higher score, then
    shorter, then smaller label tuple) selects from every candidate,
    each compared by its whole label tuple."""
    built = [0]

    class CountingPrefix(Prefix):
        __slots__ = ()

        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    overflowing = [0]

    def select_by_rule(beams, fresh, limit):
        ranked = sorted(
            [((-b.score, b.depth, _labels(b)), b, None) for b in beams]
            + [((-c[0], c[2].depth + 1, _labels(c[2]) + (c[4],)), None, c)
               for c in fresh],
            key=lambda item: item[0],
        )
        # more candidates reach the cutoff than fit
        if len(ranked) > limit and ranked[limit][0][0] == ranked[limit - 1][0][0]:
            overflowing[0] += 1
        kept = ranked[:limit]
        return (
            [b for _key, b, _c in kept if b is not None],
            [c for _key, _b, c in kept if c is not None],
        )

    def recorded(logits, config, by_rule):
        frames, counts = [], []

        def record(kept):
            counts.append((built[0], len(kept)))
            frames.append(sorted(k.labels for k in kept))

        with monkeypatch.context() as m:
            m.setattr(decoder_module, "Prefix", CountingPrefix)
            _spy_select(m, record, select_by_rule if by_rule else None)
            built[0] = 0
            got = decode(logits, dataclasses.replace(config))
        assert len(frames) == logits.frames
        counts.append((built[0], 0))
        return (repr(got), frames), counts

    rng = random.Random(9031)
    for i in range(120):
        inst = random_instance(rng, max_frames=6, max_words=4)
        scorer = ColoringScorer(
            dataclasses.replace(
                inst.scorer.config, unknown_subword_penalty=(-2.0, 0.0, None)[i % 3]
            ),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        tries = None if i % 5 == 4 else inst.tries
        cols = inst.logits.columns
        logits = LogitsMatrix.from_linear([[1 / cols] * cols] * inst.logits.frames, cols)
        for width in (1, 2, 3, 4):
            config = DecoderConfig(inst.alphabet, tries, scorer, width)
            selected, counts = recorded(logits, config, by_rule=False)
            reference, _ = recorded(logits, config, by_rule=True)
            assert selected == reference
            # per frame, the nodes built after its selection
            per_frame = [b - a for (a, _), (b, _) in zip(counts, counts[1:])]
            assert max(per_frame, default=0) <= width
            assert max(n for _, n in counts) <= width
    assert overflowing[0] > 100


# ---------------------------------------------------------------------------
# expansion order and the next masses kept on the node
# ---------------------------------------------------------------------------


def test_worst_first_expansion_ranks_the_same_candidates(monkeypatch):
    """Expanding each frame's beams worst first instead of best first
    moves the floor and the order in which a node's next masses are
    written, and nothing else: random instances (wide and narrow states,
    uniform frames with ties at the cutoff) and synthetic corpus
    utterances with and without off-lexicon spelling rank the same
    candidates with the same masses every frame, and end in the same
    transcript and score, by ``float.hex``. Best first raises the floor
    less often."""
    raises = {"best first": 0, "worst first": 0}
    order = ["best first"]
    raise_floor = decoder_module._raise_floor

    def counting(bounds, score, width):
        raises[order[0]] += 1
        return raise_floor(bounds, score, width)

    monkeypatch.setattr(decoder_module, "_raise_floor", counting)

    def assert_same(logits, config):
        order[0] = "best first"
        best_first = _decode_recorded(monkeypatch, logits, config)
        order[0] = "worst first"
        worst_first = _decode_recorded(
            monkeypatch, logits, config, expansion_key=lambda b: -b.score
        )
        assert worst_first == best_first

    rng = random.Random(8081)
    for i in range(120):
        inst = random_instance(rng, max_frames=6, max_words=4)
        scorer = ColoringScorer(
            dataclasses.replace(
                inst.scorer.config, unknown_subword_penalty=(-2.0, 0.0, None)[i % 3]
            ),
            inst.scorer.merged,
            inst.scorer.num_colors,
        )
        tries = None if i % 5 == 4 else inst.tries
        logits = inst.logits
        if i % 4 == 3:
            cols = logits.columns
            logits = LogitsMatrix.from_linear([[1 / cols] * cols] * logits.frames, cols)
        for width in (1, 2, 3, 4):
            assert_same(logits, DecoderConfig(inst.alphabet, tries, scorer, width))

    lang = corpus.build_language(1)
    spec = corpus.SynthesisSpec(
        num_sentences=6, jargon_insertion_rate=0.3, noise_level=0.25,
        frames_per_char=1, rng_seed=11, language_seed=1,
    )
    template = corpus.default_alphabet(1)
    models = list(corpus.language_models(lang))
    lexicons = [lang.lexicons.general, lang.lexicons.jargon]
    for penalty in (None, -3.0):
        runtime = build_runtime(
            "coloring", lexicons, models,
            ScorerConfig(unknown_subword_penalty=penalty), template, 16,
        )
        for words, _mask in corpus.sample_sentences(spec, lang):
            logits = corpus.synthesize_logits(" ".join(words), template, 0.25, 1)
            assert_same(logits, runtime.decoder_config())
    assert 0 < raises["best first"] < raises["worst first"]


def _two_frame_rows(second):
    """Frame 1 favors "a"; frame 2 is ``second``; frame 3 favors "b", so
    "ab" takes both its own stay and the extension of "a"."""
    return [[0.7, 0.1, 0.2], second, [0.2, 0.5, 0.3]]


@pytest.mark.parametrize(
    "second, parent_first",
    [([0.5, 0.4, 0.1], True), ([0.15, 0.75, 0.1], False)],
    ids=["extension-before-stay", "extension-after-stay"],
)
def test_a_node_sums_its_stay_and_its_parents_extension(
    monkeypatch, second, parent_first
):
    """Over "a" and "b" at beam 2, after frame 2 the beam holds "a" and
    "ab". Expanded best first, "ab" gets the extension of "a" before its
    own stay when "a" scores higher, and after it when "ab" does. Either
    way the beam every frame keeps carries, bit for bit, the masses of a
    plain prefix beam search."""
    frames = []
    _spy_select(
        monkeypatch,
        lambda kept: frames.append({k.labels: (k.p_blank, k.p_nonblank) for k in kept}),
    )
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    logits = LogitsMatrix.from_linear(_two_frame_rows(second))
    scorer = NullScorer(ScorerConfig(beta=0.0))
    decode(logits, DecoderConfig(alphabet, None, scorer, beam_width=2))

    # frames[k] is the beam kept after frame k + 1
    a, ab = ((0, 0),), ((0, 0), (1, 0))
    assert set(frames[1]) == {a, ab}
    score = {labels: logaddexp10(*masses) for labels, masses in frames[1].items()}
    assert (score[a] > score[ab]) == parent_first
    # "ab" stays on its non-blank mass and takes the extension of "a"
    assert NEG_INF not in (frames[1][ab][1], score[a])
    assert ab in frames[2]
    assert _hexed(frames) == _hexed(_plain_prefix_search(logits.log10_rows(), 2)[1:])
