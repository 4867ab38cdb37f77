import itertools
import math
import random
from collections import defaultdict

import pytest

import colordecode.oracle as oracle_module
from colordecode.decoder import ColoredTranscript, DecoderConfig, LogitsMatrix, decode
from colordecode.lexicon import ColoredAlphabet, build_trie
from colordecode.ngram_lm import NGramModel, merge_colored
from colordecode.logmath import NEG_INF, logsumexp10
from colordecode.oracle import (
    InstanceTooLarge,
    LabelTooLong,
    RandomInstance,
    ctc_forward,
    ctc_path_sum,
    exhaustive_decode,
    random_instance,
    run_verification,
)
from colordecode.scorers import (
    KIND_MODELS,
    SCORER_KINDS,
    BayesScorer,
    ColoringScorer,
    NullScorer,
    ScorerConfig,
    fit_bin_table,
    make_scorer,
)
from conftest import random_model, random_rows, trie_words

# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _log_rows(rows):
    return [
        [math.log10(v) if v > 0 else NEG_INF for v in row] for row in rows
    ]


def test_two_uniform_frames_fixture():
    """Uniform 0.5 over {a, blank}, two frames: paths aa, a-, -a give
    label 'a' mass 0.75."""
    rows = _log_rows([[0.5, 0.5]] * 2)
    assert ctc_path_sum(rows, [0]) == pytest.approx(math.log10(0.75), abs=1e-12)
    assert ctc_path_sum(rows, []) == pytest.approx(math.log10(0.25), abs=1e-12)
    # 'aa' needs a blank between repeats: impossible in two frames.
    assert ctc_path_sum(rows, [0, 0]) == NEG_INF


def test_empty_label_is_all_blank_product():
    rows = _log_rows([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]])
    assert ctc_path_sum(rows, []) == pytest.approx(
        math.log10(0.7 * 0.1 * 0.5), abs=1e-12
    )


def test_forward_decomposition_sums_to_total():
    rng = random.Random(5)
    rows = _log_rows(random_rows(rng, 4, 3))
    pb, pnb = ctc_forward(rows, [0, 1])
    assert ctc_path_sum(rows, [0, 1]) == pytest.approx(
        logsumexp10([pb, pnb]), abs=1e-12
    )


def test_label_too_long():
    rows = _log_rows([[0.5, 0.5]])
    with pytest.raises(LabelTooLong):
        ctc_forward(rows, [0, 0])


def test_zero_frames():
    assert ctc_forward([], []) == (0.0, NEG_INF)
    with pytest.raises(LabelTooLong):
        ctc_forward([], [0])


def _collapse(path, blank):
    out = []
    prev = None
    for col in path:
        if col != prev and col != blank:
            out.append(col)
        prev = col
    return tuple(out)


def test_forward_matches_path_enumeration():
    """ctc_path_sum equals the brute-force sum over all (K+1)^L paths."""
    rng = random.Random(2024)
    for _ in range(10):
        frames, k = rng.randint(1, 4), rng.randint(1, 2)
        rows = random_rows(rng, frames, k + 1)
        blank = k
        masses = defaultdict(float)
        for path in itertools.product(range(k + 1), repeat=frames):
            p = 1.0
            for t, col in enumerate(path):
                p *= rows[t][col]
            masses[_collapse(path, blank)] += p
        log_rows = _log_rows(rows)
        for label, mass in masses.items():
            got = ctc_path_sum(log_rows, list(label))
            if mass == 0.0:
                assert got == NEG_INF
            else:
                assert got == pytest.approx(math.log10(mass), abs=1e-9)
        # Paths partition total probability mass.
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Exhaustive decode
# ---------------------------------------------------------------------------


def test_exhaustive_matches_forced_path():
    alphabet = ColoredAlphabet(("a", "b"), 2, None)
    tries = [build_trie(alphabet, 0, ["a"]), build_trie(alphabet, 1, ["b"])]
    logits = LogitsMatrix.from_linear([[1.0, 0.0, 0.0]])
    result = exhaustive_decode(logits, NullScorer(ScorerConfig()), alphabet, tries)
    assert result.best.words == (("a", 0),)
    assert result.best.score == pytest.approx(0.0, abs=1e-12)


def test_all_scores_covers_unconstrained_prefix_tree():
    """Unconstrained, no separator, K=2, L=2: the colored prefixes are
    every string of length <= 2 over two characters: 1 + 2 + 4 = 7."""
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    logits = LogitsMatrix.from_linear(random_rows(random.Random(1), 2, 3))
    result = exhaustive_decode(logits, NullScorer(ScorerConfig()), alphabet, None)
    assert len(result.all_scores) == 7
    assert () in result.all_scores
    assert ((0, 0), (1, 0)) in result.all_scores


def test_all_scores_marks_unfinishable_prefixes():
    alphabet = ColoredAlphabet(("a", "b"), 1, None)
    tries = [build_trie(alphabet, 0, ["ab"])]
    logits = LogitsMatrix.from_linear([[0.5, 0.2, 0.3]] * 2)
    result = exhaustive_decode(logits, NullScorer(ScorerConfig()), alphabet, tries)
    # prefix "a" alone cannot finish (only "ab" is a word)
    assert result.all_scores[((0, 0),)] == NEG_INF
    assert result.all_scores[((0, 0), (1, 0))] > NEG_INF


def test_guard_raises_on_large_spaces():
    alphabet = ColoredAlphabet(("a", "b", "c"), 1, None)
    logits = LogitsMatrix.from_linear(random_rows(random.Random(2), 4, 4))
    with pytest.raises(InstanceTooLarge):
        exhaustive_decode(
            logits, NullScorer(ScorerConfig()), alphabet, None, guard=5
        )


def test_normalization_with_separator_alphabet():
    """With no constraints the labeling space is every string, so total
    CTC mass over all_scores labelings is exactly 1 -- including when one
    column doubles as the word separator."""
    rng = random.Random(31)
    for _ in range(10):
        k = rng.randint(1, 3)
        chars = "abc"[:k]
        sep = chars[-1] if k >= 2 and rng.random() < 0.5 else None
        alphabet = ColoredAlphabet(tuple(chars), 1, sep)
        rows = random_rows(rng, rng.randint(0, 4), k + 1)
        logits = LogitsMatrix.from_linear(rows, columns=k + 1)
        result = exhaustive_decode(
            logits, NullScorer(ScorerConfig()), alphabet, None
        )
        masses = []
        seen = set()
        for prefix in result.all_scores:
            label = tuple(col for col, _ in prefix)
            if label in seen:
                continue
            seen.add(label)
            masses.append(ctc_path_sum(logits.log10_rows(), list(label)))
        total = 10 ** logsumexp10(masses)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_random_instance_deterministic():
    a = random_instance(random.Random(77))
    b = random_instance(random.Random(77))
    assert a.alphabet.base_chars == b.alphabet.base_chars
    assert a.alphabet.num_colors == b.alphabet.num_colors
    assert [trie_words(t) for t in a.tries] == [trie_words(t) for t in b.tries]
    assert a.logits.log10_rows() == b.logits.log10_rows()


def test_random_instance_refuses_more_chars_than_its_letter_pool():
    """A ``max_chars`` above the three-letter pool used to be capped at
    three without a word; it is refused, and three still draws every
    alphabet size up to three."""
    with pytest.raises(ValueError, match="max_chars 4 exceeds the 3-letter pool"):
        random_instance(random.Random(0), max_chars=4)
    rng = random.Random(5)
    sizes = {
        len(random_instance(rng, max_chars=3).alphabet.base_chars) for _ in range(60)
    }
    assert sizes == {1, 2, 3}


def test_random_instance_color_bounds():
    rng = random.Random(8)
    seen = set()
    for _ in range(40):
        inst = random_instance(rng, min_colors=2)
        seen.add(inst.alphabet.num_colors)
    assert seen == {2}


def test_run_verification_clean():
    report = run_verification(instances=30, seed=123)
    assert report.ok
    assert report.instances == 30
    assert report.mismatches == []
    assert report.max_score_divergence <= 1e-9


def test_run_verification_reports_a_planted_fault(monkeypatch):
    """A search whose score is off by 1e-6 on one instance fails the
    verification: the report lists that instance alone, with the
    oracle's transcript and the faulty one, and is not ok."""
    calls = [0]

    def faulty(logits, config):
        got = decode(logits, config)
        calls[0] += 1
        if calls[0] == 3:
            return ColoredTranscript(got.words, got.score + 1e-6)
        return got

    monkeypatch.setattr(oracle_module, "decode", faulty)
    report = run_verification(instances=5, seed=123)
    assert not report.ok
    assert [m["instance"] for m in report.mismatches] == [2]
    mismatch = report.mismatches[0]
    assert mismatch["expected"].score != NEG_INF
    assert mismatch["got"].words == mismatch["expected"].words
    assert mismatch["got"].score == pytest.approx(
        mismatch["expected"].score + 1e-6, abs=1e-9
    )
    assert report.max_score_divergence == pytest.approx(1e-6, rel=1e-6)


def test_run_verification_agrees_where_nothing_finishes(monkeypatch):
    """Over "a" with the one word "aa", no off-lexicon spelling and a
    frame that is all "a", every label is an unfinished word, so neither
    the search nor the oracle finds a transcript: the divergence is 0
    and there is no mismatch."""
    alphabet = ColoredAlphabet(("a",), 1, None)
    inst = RandomInstance(
        LogitsMatrix.from_linear([[1.0, 0.0]]),
        alphabet,
        [build_trie(alphabet, 0, ["aa"])],
        NullScorer(ScorerConfig()),
    )
    best = exhaustive_decode(inst.logits, inst.scorer, alphabet, inst.tries).best
    assert best.score == NEG_INF
    monkeypatch.setattr(oracle_module, "random_instance", lambda *args, **kwargs: inst)
    report = run_verification(instances=3, seed=0)
    assert report.ok
    assert report.mismatches == []
    assert report.max_score_divergence == 0.0


# ---------------------------------------------------------------------------
# Every scorer kind against the oracle
# ---------------------------------------------------------------------------


def _kind_scorer(kind, inst, rng):
    """A ``kind`` scorer for a random instance: coloring keeps the
    instance's colored merge, the other kinds get the random models over
    the instance's words that they score with, and every kind a random
    config with the instance's off-lexicon setting. ``none`` draws the
    models as the other kinds do, and scores with neither."""
    config = ScorerConfig(
        alpha=rng.choice([0.5, 1.0]),
        beta=rng.choice([0.0, 0.5]),
        unknown_word_penalty=(rng.choice([-10.0, -2.0]), rng.choice([-10.0, -2.0])),
        unknown_subword_penalty=inst.scorer.config.unknown_subword_penalty,
        lam=rng.choice([0.25, 0.5, 0.75]),
    )
    if kind == "coloring":
        return ColoringScorer(config, inst.scorer.merged, inst.alphabet.num_colors)
    words = sorted(set().union(*(trie_words(t) for t in inst.tries)))
    drawn = (random_model(rng, words), random_model(rng, words))
    models = [drawn[i] for i in KIND_MODELS[kind]]
    table = None
    if kind == "bins":
        pairs = [
            (rng.choice([0.0, rng.random()]), rng.random(), rng.random() < 0.5)
            for _ in range(12)
        ]
        table = fit_bin_table(pairs, rng.randint(1, 4))
    return make_scorer(kind, models, config, bin_table=table)


def _check_against_oracle(inst, scorer, tries):
    oracle = exhaustive_decode(inst.logits, scorer, inst.alphabet, tries)
    cfg = DecoderConfig(inst.alphabet, tries, scorer, len(oracle.all_scores) + 1)
    got = decode(inst.logits, cfg)
    assert got.words == oracle.best.words
    if oracle.best.score == NEG_INF:
        assert got.score == NEG_INF
    else:
        assert got.score == pytest.approx(oracle.best.score, abs=1e-9, rel=0)
    return oracle.best


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_every_scorer_kind_agrees_with_the_oracle(kind):
    """At a beam holding every prefix the oracle enumerates, the search
    finds the oracle's best transcript and score for every scorer kind,
    over the instance's tries and unconstrained."""
    rng = random.Random(f"oracle:{kind}")
    for _ in range(100):
        inst = random_instance(rng, max_frames=5, max_words=3)
        scorer = _kind_scorer(kind, inst, rng)
        for tries in (inst.tries, None):
            _check_against_oracle(inst, scorer, tries)


def _planted_instance(rng):
    """A small decoding problem whose likeliest labels spell two or
    three words. The alphabet is a, b and a space separator, in one or
    two colors; each color's lexicon holds a one-letter word and up to
    two more words of one or two letters, with a random model over
    them. Each frame puts most of its mass on one column of a planted
    label: the words joined by separators, with a blank between repeated
    characters. Labels stay within six frames, so the oracle can
    enumerate every prefix."""
    colors = rng.randint(1, 2)
    alphabet = ColoredAlphabet(("a", "b", " "), colors, " ")
    lexicons = []
    for _ in range(colors):
        more = rng.sample(["aa", "ab", "ba", "b"], rng.randint(0, 2))
        lexicons.append(sorted({rng.choice("ab"), *more}))
    tries = [build_trie(alphabet, c, lex) for c, lex in enumerate(lexicons)]
    models = [random_model(rng, lex) for lex in lexicons]
    while True:
        words = [
            rng.choice(lexicons[rng.randrange(colors)])
            for _ in range(rng.randint(2, 3))
        ]
        label = []
        for ch in " ".join(words):
            col = alphabet.base_chars.index(ch)
            if label and label[-1] == col:
                label.append(alphabet.blank_index)
            label.append(col)
        if len(label) <= 6:
            break
    rows = []
    for col in label:
        row = [rng.random() + 1e-3 for _ in range(alphabet.num_columns)]
        row[col] += rng.uniform(2.0, 6.0)
        total = sum(row)
        rows.append([v / total for v in row])
    config = ScorerConfig(
        unknown_word_penalty=(-10.0,) * colors,
        unknown_subword_penalty=rng.choice([-2.0, None]),
    )
    merged = merge_colored((m, c) for c, m in enumerate(models))
    logits = LogitsMatrix.from_linear(rows, columns=alphabet.num_columns)
    return RandomInstance(logits, alphabet, tries, ColoringScorer(config, merged, colors))


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_every_scorer_kind_agrees_with_the_oracle_on_multi_word_paths(kind):
    """As above, over instances whose best transcripts mostly hold two
    or three words, so that word histories decide the scores: with the
    instance's tries and unconstrained, the search finds the oracle's
    best transcript and score, and at least a third of the oracle's
    winners hold two words or more."""
    rng = random.Random(f"planted:{kind}")
    winners = []
    for _ in range(20):
        inst = _planted_instance(rng)
        scorer = _kind_scorer(kind, inst, rng)
        for tries in (inst.tries, None):
            winners.append(_check_against_oracle(inst, scorer, tries))
    assert sum(len(best.words) >= 2 for best in winners) * 3 >= len(winners)


def test_bayes_histories_that_differ_only_in_mass_agree_with_the_oracle():
    """Unigram models leave every history with the same model contexts,
    so after "a" and after "b" the Bayes states differ only in their
    history masses, and so do the deltas of the next word. The search
    must score each history's next word with its own masses."""
    general = NGramModel(1, {("a",): (math.log10(0.9), None),
                             ("b",): (math.log10(0.1), None)})
    domain = NGramModel(1, {("a",): (math.log10(0.2), None),
                            ("b",): (math.log10(0.8), None)})
    scorer = BayesScorer(ScorerConfig(), general, domain)
    start = scorer.initial_state()
    _, after_a = scorer.word_delta(start, "a", 0)
    _, after_b = scorer.word_delta(start, "b", 0)
    assert after_a[:2] == after_b[:2] and after_a[2:] != after_b[2:]
    assert scorer.word_delta(after_a, "b", 0)[0] != scorer.word_delta(after_b, "b", 0)[0]

    alphabet = ColoredAlphabet(("a", "b", " "), 1, " ")
    tries = [build_trie(alphabet, 0, ["a", "b"])]
    # columns a, b, separator, blank: an unsure first word, a separator,
    # then an unsure second word
    rows = [[0.48, 0.42, 0.05, 0.05], [0.05, 0.05, 0.85, 0.05], [0.4, 0.5, 0.05, 0.05]]
    logits = LogitsMatrix.from_linear(rows)
    oracle = exhaustive_decode(logits, scorer, alphabet, tries)
    assert len(oracle.best.words) == 2
    for tries_or_none in (tries, None):
        cfg = DecoderConfig(alphabet, tries_or_none, scorer, 200)
        got = decode(logits, cfg)
        expected = exhaustive_decode(logits, scorer, alphabet, tries_or_none).best
        assert got.words == expected.words
        assert got.score == pytest.approx(expected.score, abs=1e-9, rel=0)
