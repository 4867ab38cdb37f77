import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colordecode.decoder import DecoderConfig, LogitsMatrix, decode
from colordecode.lexicon import ColoredAlphabet, build_trie
from colordecode.logmath import NEG_INF
from colordecode.ngram_lm import EMPTY_STATE, NGramModel, merge_colored
from colordecode.scorers import (
    BayesScorer,
    BinTable,
    ColoringScorer,
    EmptyCalibration,
    InterpolationScorer,
    KIND_MODELS,
    MissingBinTable,
    SCORER_KINDS,
    MissingModel,
    NullScorer,
    ScorerConfig,
    SingleLmScorer,
    _combine_linear_log10,
    _combine_loglinear_log10,
    bayes_posterior_log10,
    fit_bin_table,
    interp_bayes,
    make_scorer,
)
from conftest import random_c1_instance

unit = st.floats(min_value=0.0, max_value=1.0)
log_prob = st.floats(min_value=-12.0, max_value=0.0)

# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults_valid():
    cfg = ScorerConfig()
    assert cfg.alpha == 1.0 and cfg.lam == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 1.5},
        {"lam": -0.1},
        {"alpha": float("inf")},
        {"beta": float("nan")},
        {"unknown_word_penalty": ()},
        {"unknown_word_penalty": (float("nan"),)},
        {"unknown_word_penalty": (-10.0, float("-inf"))},
        {"unknown_subword_penalty": float("nan")},
        {"unknown_subword_penalty": float("inf")},
        {"unknown_subword_penalty": float("-inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ScorerConfig(**kwargs)


def test_penalty_broadcasts_last_value():
    cfg = ScorerConfig(unknown_word_penalty=(-10.0, -50.0))
    assert cfg.penalty(0) == -10.0
    assert cfg.penalty(1) == -50.0
    assert cfg.penalty(7) == -50.0
    single = ScorerConfig(unknown_word_penalty=(-3.0,))
    assert single.penalty(2) == -3.0


# ---------------------------------------------------------------------------
# Interpolation primitives (log10 in, log10 out)
# ---------------------------------------------------------------------------


def test_linear_fixture():
    got = _combine_linear_log10(math.log10(0.4), math.log10(0.2), 0.5)
    assert got == pytest.approx(math.log10(0.3), abs=1e-12)


def test_loglinear_fixture():
    got = _combine_loglinear_log10(math.log10(0.25), math.log10(0.04), 0.5)
    assert got == pytest.approx(math.log10(0.1), abs=1e-12)


@given(log_prob, log_prob)
def test_endpoints_exact(lg, lj):
    assert _combine_linear_log10(lg, lj, 0.0) == lg
    assert _combine_linear_log10(lg, lj, 1.0) == lj
    assert _combine_loglinear_log10(lg, lj, 0.0) == lg
    assert _combine_loglinear_log10(lg, lj, 1.0) == lj


def test_loglinear_zero_handling():
    half = math.log10(0.5)
    assert _combine_loglinear_log10(NEG_INF, half, 0.5) == NEG_INF
    assert _combine_loglinear_log10(half, NEG_INF, 0.5) == NEG_INF
    assert _combine_loglinear_log10(NEG_INF, half, 0.0) == NEG_INF
    assert _combine_loglinear_log10(NEG_INF, half, 1.0) == half
    # a zero on one side only halves the linear mix
    assert _combine_linear_log10(NEG_INF, half, 0.5) == pytest.approx(
        2 * half, abs=1e-12
    )


@given(log_prob, log_prob, unit)
def test_linear_bounded_by_inputs(lg, lj, lam):
    lo, hi = min(lg, lj), max(lg, lj)
    assert lo - 1e-12 <= _combine_linear_log10(lg, lj, lam) <= hi + 1e-12


@given(log_prob, log_prob, unit)
def test_loglinear_bounded_by_inputs(lg, lj, lam):
    lo, hi = min(lg, lj), max(lg, lj)
    assert lo - 1e-12 <= _combine_loglinear_log10(lg, lj, lam) <= hi + 1e-12


# ---------------------------------------------------------------------------
# Bayes combination
# ---------------------------------------------------------------------------


def test_bayes_fixture():
    got = interp_bayes(
        math.log10(0.01), math.log10(0.03), math.log10(0.2), math.log10(0.4)
    )
    assert got == pytest.approx(math.log10(0.35), abs=1e-12)


def test_bayes_posterior_weights_fixture():
    wg, wj = bayes_posterior_log10(
        [math.log10(0.5)] * 2, [math.log10(0.01), math.log10(0.03)]
    )
    assert 10**wg == pytest.approx(0.25, abs=1e-12)
    assert 10**wj == pytest.approx(0.75, abs=1e-12)


def test_bayes_collapsed_history_reproduces_survivor():
    lg_next, lj_next = math.log10(0.2), math.log10(0.4)
    assert interp_bayes(math.log10(0.01), NEG_INF, lg_next, lj_next) == lg_next
    assert interp_bayes(NEG_INF, math.log10(0.01), lg_next, lj_next) == lj_next


def test_bayes_prior_fallback_when_no_evidence():
    got = interp_bayes(NEG_INF, NEG_INF, math.log10(0.2), math.log10(0.4))
    assert got == pytest.approx(math.log10(0.3), abs=1e-12)


log_mass = st.floats(min_value=-50.0, max_value=0.0)


@given(log_mass, log_mass)
def test_bayes_weights_sum_to_one(hg, hj):
    wg, wj = bayes_posterior_log10([math.log10(0.5)] * 2, [hg, hj])
    assert 10**wg + 10**wj == pytest.approx(1.0, abs=1e-9)


@given(log_mass, log_mass, log_mass)
def test_bayes_weight_monotone_in_history(hg, hj, shift):
    """Raising the domain history never lowers the domain weight."""
    _, wj1 = bayes_posterior_log10([math.log10(0.5)] * 2, [hg, hj])
    _, wj2 = bayes_posterior_log10([math.log10(0.5)] * 2, [hg, hj - abs(shift)])
    assert 10**wj2 <= 10**wj1 + 1e-12


# ---------------------------------------------------------------------------
# Bin table
# ---------------------------------------------------------------------------


def test_bin_table_single_pair_cell():
    table = fit_bin_table([(0.5, 0.1, True)], 1)
    assert table.num_bins == 1
    assert table.lookup(math.log10(0.5), math.log10(0.1)) == pytest.approx(
        math.log10(2.0 / 3.0), abs=1e-12
    )
    # Degenerate ranges clamp every query into the only cell.
    assert table.lookup(-50.0, -0.001) == pytest.approx(
        math.log10(2.0 / 3.0), abs=1e-12
    )


def test_bin_table_counts_hits_and_misses():
    pairs = [(0.5, 0.1, True), (0.5, 0.1, True), (0.5, 0.1, False)]
    table = fit_bin_table(pairs, 1)
    assert table.lookup(-1.0, -1.0) == pytest.approx(
        math.log10(3.0 / 5.0), abs=1e-12
    )


def test_bin_table_empty_cell_falls_back_to_even_mix():
    pairs = [(0.9, 0.001, True), (0.001, 0.9, False)]
    table = fit_bin_table(pairs, 2)
    # Both observed corners are filled.
    hi_g = table.lookup(math.log10(0.9), math.log10(0.001))
    lo_g = table.lookup(math.log10(0.001), math.log10(0.9))
    assert hi_g == pytest.approx(math.log10(2.0 / 3.0), abs=1e-12)
    assert lo_g == pytest.approx(math.log10(1.0 / 3.0), abs=1e-12)
    # The never-observed low/low corner averages the query itself.
    got = table.lookup(-3.0, -3.0)
    assert got == pytest.approx(math.log10(0.5e-3 + 0.5e-3), abs=1e-12)


def test_bin_table_clamps_out_of_range():
    table = fit_bin_table([(0.5, 0.5, True), (0.01, 0.01, False)], 2)
    inside = table.lookup(math.log10(0.5), math.log10(0.5))
    assert table.lookup(5.0, 5.0) == inside
    low = table.lookup(math.log10(0.01), math.log10(0.01))
    assert table.lookup(-500.0, -500.0) == low


def test_bin_table_floors_zero_probabilities():
    table = fit_bin_table([(0.0, 0.5, True), (0.9, 0.5, False)], 2)
    assert table.g_range[0] == -99.0
    assert table.lookup(-99.0, math.log10(0.5)) == pytest.approx(
        math.log10(2.0 / 3.0), abs=1e-12
    )


def test_a_bin_table_holds_only_the_cells_calibration_fills(capped_address_space):
    """Nothing is sized by ``num_bins``: at 10**9 bins four pairs fill
    three cells, and queries past the observed ranges clamp to the edge
    bins."""
    n = 10**9
    pairs = [(0.5, 0.1, True), (0.5, 0.1, False), (0.01, 0.2, True), (1e-6, 0.9, False)]
    table = fit_bin_table(pairs, n)
    assert len(table.cells) == 3
    assert table.cells[(n - 1, 0)] == math.log10(2 / 4)
    assert table.cells[(0, n - 1)] == math.log10(1 / 3)
    assert table.lookup(5.0, -50.0) == math.log10(2 / 4)
    assert table.lookup(-500.0, 5.0) == math.log10(1 / 3)
    # the top corner holds no pair, so the query is mixed evenly
    assert table.lookup(-0.3, -0.04) == pytest.approx(
        math.log10(0.5 * 10**-0.3 + 0.5 * 10**-0.04), abs=1e-12
    )


def test_bin_table_validation():
    with pytest.raises(EmptyCalibration):
        fit_bin_table([], 10)
    with pytest.raises(ValueError):
        fit_bin_table([(0.5, 0.5, True)], 0)


# ---------------------------------------------------------------------------
# Scorer classes
# ---------------------------------------------------------------------------


@pytest.fixture
def two_models():
    general = NGramModel(
        max_order=1,
        entries={
            ("x",): (math.log10(0.01), None),
            ("y",): (math.log10(0.2), None),
            ("w",): (math.log10(0.4), None),
        },
    )
    domain = NGramModel(
        max_order=1,
        entries={
            ("x",): (math.log10(0.03), None),
            ("y",): (math.log10(0.4), None),
            ("w",): (math.log10(0.2), None),
        },
    )
    return general, domain


def test_null_scorer_charges_beta():
    scorer = NullScorer(ScorerConfig(beta=-0.4))
    delta, state = scorer.word_delta(scorer.initial_state(), "anything", 3)
    assert delta == -0.4 and state is None


def test_single_lm_scorer_scales_and_shifts(two_models):
    general, _ = two_models
    cfg = ScorerConfig(alpha=0.5, beta=0.25)
    scorer = SingleLmScorer(cfg, general)
    delta, _ = scorer.word_delta(scorer.initial_state(), "w", 0)
    assert delta == pytest.approx(0.5 * math.log10(0.4) + 0.25, abs=1e-12)


def test_single_lm_scorer_oov_uses_model_color_slot(two_models):
    _, domain = two_models
    cfg = ScorerConfig(unknown_word_penalty=(-10.0, -50.0))
    scorer = SingleLmScorer(cfg, domain, model_color=1)
    delta, _ = scorer.word_delta(scorer.initial_state(), "zzz", 0)
    assert delta == -50.0


def test_coloring_scorer_spec_fixture():
    merged = NGramModel(max_order=1, entries={("1:fever",): (-2.0, None)})
    scorer = ColoringScorer(ScorerConfig(), merged, num_colors=2)
    delta, state = scorer.word_delta(scorer.initial_state(), "fever", 1)
    assert delta == pytest.approx(math.log10(0.5) - 2.0, abs=1e-12)
    # A unigram merged model keeps no context.
    assert state == ()
    bigram = NGramModel(
        max_order=2,
        entries={("1:fever",): (-2.0, None), ("1:fever", "1:fever"): (-0.5, None)},
    )
    scorer2 = ColoringScorer(ScorerConfig(), bigram, num_colors=2)
    _, state2 = scorer2.word_delta(scorer2.initial_state(), "fever", 1)
    assert state2 == ("1:fever",)


def test_coloring_scorer_rejects_out_of_range_color():
    merged = NGramModel(max_order=1, entries={("0:a",): (-1.0, None)})
    scorer = ColoringScorer(ScorerConfig(), merged, num_colors=1)
    with pytest.raises(ValueError):
        scorer.word_delta(scorer.initial_state(), "a", 1)


def test_coloring_sentence_score_decomposes(two_models):
    """Summed word deltas equal alpha * (merged log prob + n * log prior)
    + n * beta for a colored sentence."""
    general, domain = two_models
    merged = merge_colored([(general, 0), (domain, 1)])
    cfg = ScorerConfig(alpha=0.7, beta=-0.1)
    scorer = ColoringScorer(cfg, merged, num_colors=2)
    sentence = [("x", 0), ("y", 1), ("w", 0)]

    total = 0.0
    state = scorer.initial_state()
    for word, color in sentence:
        delta, state = scorer.word_delta(state, word, color)
        total += delta

    lm_state = EMPTY_STATE
    lp_sum = 0.0
    for word, color in sentence:
        lp, lm_state = merged.score_word(lm_state, f"{color}:{word}")
        lp_sum += lp
    n = len(sentence)
    expected = 0.7 * (lp_sum + n * math.log10(0.5)) + n * -0.1
    assert total == pytest.approx(expected, abs=1e-12)


def test_interpolation_linear_fixture(two_models):
    general, domain = two_models
    cfg = ScorerConfig(alpha=1.0, beta=0.0, lam=0.5)
    scorer = InterpolationScorer(cfg, general, domain, "linear")
    delta, _ = scorer.word_delta(scorer.initial_state(), "w", 0)
    assert delta == pytest.approx(math.log10(0.3), abs=1e-12)


def test_interpolation_loglinear_fixture(two_models):
    general, domain = two_models
    cfg = ScorerConfig(lam=0.5)
    scorer = InterpolationScorer(cfg, general, domain, "loglinear")
    delta, _ = scorer.word_delta(scorer.initial_state(), "w", 0)
    assert delta == pytest.approx(
        math.log10(math.sqrt(0.4 * 0.2)), abs=1e-12
    )


def test_interpolation_substitutes_penalty_inside_mix(two_models):
    general, domain = two_models
    cfg = ScorerConfig(lam=0.5, unknown_word_penalty=(-4.0, -6.0))
    only_domain = NGramModel(max_order=1, entries={("q",): (math.log10(0.5), None)})
    scorer = InterpolationScorer(cfg, general, only_domain, "linear")
    delta, _ = scorer.word_delta(scorer.initial_state(), "q", 0)
    assert delta == pytest.approx(
        math.log10(0.5 * 10.0**-4.0 + 0.5 * 0.5), abs=1e-12
    )
    # OOV in both models: penalties are mixed, not appended afterwards.
    delta2, _ = scorer.word_delta(scorer.initial_state(), "zz", 0)
    assert delta2 == pytest.approx(
        math.log10(0.5 * 10.0**-4.0 + 0.5 * 10.0**-6.0), abs=1e-12
    )


def test_interpolation_endpoints_match_single_lm(two_models):
    general, domain = two_models
    for kind in ("linear", "loglinear"):
        for lam, model, slot in ((0.0, general, 0), (1.0, domain, 1)):
            cfg = ScorerConfig(alpha=0.8, beta=0.1, lam=lam,
                               unknown_word_penalty=(-4.0, -6.0))
            fused = InterpolationScorer(cfg, general, domain, kind)
            single = SingleLmScorer(cfg, model, model_color=slot)
            for word in ("x", "y", "w", "oovword"):
                d_f, _ = fused.word_delta(fused.initial_state(), word, 0)
                d_s, _ = single.word_delta(single.initial_state(), word, 0)
                assert d_f == d_s


def test_bayes_scorer_fixture(two_models):
    general, domain = two_models
    scorer = BayesScorer(ScorerConfig(), general, domain)
    state = scorer.initial_state()
    _, state = scorer.word_delta(state, "x", 0)  # histories 0.01 vs 0.03
    delta, state = scorer.word_delta(state, "y", 0)
    assert delta == pytest.approx(math.log10(0.35), abs=1e-12)
    assert state[2] == pytest.approx(math.log10(0.01) + math.log10(0.2))
    assert state[3] == pytest.approx(math.log10(0.03) + math.log10(0.4))


def test_bayes_equal_histories_match_even_linear(two_models):
    general, domain = two_models
    bayes = BayesScorer(ScorerConfig(), general, domain)
    linear = InterpolationScorer(ScorerConfig(lam=0.5), general, domain, "linear")
    for word in ("x", "y", "w", "zz"):
        d_b, _ = bayes.word_delta(bayes.initial_state(), word, 0)
        d_l, _ = linear.word_delta(linear.initial_state(), word, 0)
        assert d_b == pytest.approx(d_l, abs=1e-12)


# ---------------------------------------------------------------------------
# make_scorer
# ---------------------------------------------------------------------------


def test_make_scorer_dispatch(two_models):
    general, domain = two_models
    cfg = ScorerConfig()
    assert isinstance(make_scorer("none", [], cfg), NullScorer)
    assert isinstance(make_scorer("general", [general], cfg), SingleLmScorer)
    jarg = make_scorer("jargon", [domain], cfg)
    assert isinstance(jarg, SingleLmScorer) and jarg.model_color == 1
    assert isinstance(
        make_scorer("coloring", [general, domain], cfg), ColoringScorer
    )
    assert isinstance(
        make_scorer("bayes", [general, domain], cfg), BayesScorer
    )
    table = fit_bin_table([(0.5, 0.5, True)], 1)
    binned = make_scorer("bins", [general, domain], cfg, bin_table=table)
    assert isinstance(binned, InterpolationScorer) and binned.kind == "bins"


def test_make_scorer_takes_exactly_the_models_its_kind_scores_with(two_models):
    """A kind given more or fewer models than it scores with is refused,
    rather than scoring with the first and ignoring the rest: a jargon
    scorer given (general, jargon) would score with the general model."""
    general, domain = two_models
    cfg = ScorerConfig()
    table = fit_bin_table([(0.5, 0.5, True)], 1)
    for kind, models in [
        ("none", [general]),
        ("none", [general, domain]),
        ("general", [general, domain]),
        ("jargon", [general, domain]),
        ("jargon", []),
        ("linear", [general, domain, domain]),
        ("bins", [general]),
        ("bayes", [general, domain, general]),
        ("coloring", []),
    ]:
        with pytest.raises(MissingModel):
            make_scorer(kind, models, cfg, bin_table=table)


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_unknown_delta_is_the_word_delta_of_a_word_no_model_knows(kind):
    """A scorer's unknown delta is what ``word_delta`` gives a word none
    of its models know, bit for bit, in the initial state and after a
    known word, for every color; its known words are those its models
    find. The Bayes scorer's figure depends on the state: it has none."""
    general = NGramModel(
        max_order=2,
        entries={
            ("x",): (math.log10(0.3), -0.25),
            ("y",): (math.log10(0.7), -0.5),
            ("x", "y"): (math.log10(0.9), None),
        },
    )
    domain = NGramModel(
        max_order=1,
        entries={("y",): (math.log10(0.6), None), ("z",): (math.log10(0.4), None)},
    )
    config = ScorerConfig(
        alpha=0.7, beta=0.3, unknown_word_penalty=(-7.3, -11.1), lam=0.35
    )
    table = fit_bin_table([(0.3, 0.6, True), (1e-8, 0.4, False)], 3)
    models = [(general, domain)[i] for i in KIND_MODELS[kind]]
    scorer = make_scorer(kind, models, config, bin_table=table)
    known = {
        "coloring": [{"x", "y"}, {"y", "z"}],
        "general": [{"x", "y"}] * 2,
        "jargon": [{"y", "z"}] * 2,
        "none": [set()] * 2,
    }.get(kind, [{"x", "y", "z"}] * 2)
    for color in (0, 1):
        delta = scorer.unknown_delta(color)
        if kind == "bayes":
            assert delta is None
            continue
        assert scorer.known_words(color) == known[color]
        start = scorer.initial_state()
        after = scorer.word_delta(start, "y" if kind != "none" else "x", color)[1]
        for state in (start, after):
            assert scorer.word_delta(state, "stranger", color)[0].hex() == delta.hex()


def test_make_scorer_validation(two_models):
    general, domain = two_models
    cfg = ScorerConfig()
    with pytest.raises(ValueError):
        make_scorer("fancy", [general], cfg)
    with pytest.raises(MissingModel):
        make_scorer("general", [], cfg)
    with pytest.raises(MissingModel):
        make_scorer("linear", [general], cfg)
    with pytest.raises(MissingModel):
        make_scorer("coloring", [general, domain], cfg, num_colors=3)
    with pytest.raises(MissingBinTable):
        make_scorer("bins", [general, domain], cfg)
    with pytest.raises(ValueError, match="unknown interpolation kind"):
        InterpolationScorer(cfg, general, domain, "fancy")
    with pytest.raises(ValueError, match="at least one color"):
        ColoringScorer(cfg, general, num_colors=0)


# ---------------------------------------------------------------------------
# Single-color coloring degenerates to the plain scorer
# ---------------------------------------------------------------------------


def test_coloring_one_color_decodes_like_single_lm():
    rng = random.Random(404)
    checked = 0
    for _ in range(50):
        chars, sep, words, model, rows, alpha, beta = random_c1_instance(rng)
        if not words:
            continue
        alphabet = ColoredAlphabet(tuple(chars), 1, sep)
        tries = [build_trie(alphabet, 0, words)]
        logits = LogitsMatrix.from_linear(rows, columns=len(chars) + 1)
        cfg = ScorerConfig(alpha=alpha, beta=beta, unknown_word_penalty=(-10.0,))
        plain = SingleLmScorer(cfg, model)
        colored = ColoringScorer(
            cfg, merge_colored([(model, 0)]), num_colors=1
        )
        got_plain = decode(
            logits, DecoderConfig(alphabet, tries, plain, beam_width=512)
        )
        got_colored = decode(
            logits, DecoderConfig(alphabet, tries, colored, beam_width=512)
        )
        assert got_plain.words == got_colored.words
        assert got_plain.score == got_colored.score
        checked += 1
    assert checked > 20
