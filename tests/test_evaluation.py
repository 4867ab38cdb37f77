import dataclasses
import gc
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import colordecode.decoder as decoder_module
import colordecode.evaluation as evaluation
import colordecode.scorers as scorers_module
from colordecode.corpus import (
    EmptyLexicon,
    SynthesisSpec,
    Utterance,
    default_alphabet,
    read_logits,
    synthesize_corpus,
)
from colordecode.decoder import ColoredTranscript, decode
from colordecode.evaluation import (
    COMPARISON_GRID,
    KIND_GRID_FIELDS,
    GridSpec,
    build_runtime,
    calibration_pairs,
    decode_utterances,
    evaluate,
    run_grid_search,
)
from colordecode.lexicon import word_successors
from colordecode.metrics import cer, jargon_wer, wer
from colordecode.ngram_lm import NGramModel
from colordecode.scorers import (
    ColoringScorer,
    MissingBinTable,
    MissingModel,
    ScorerConfig,
    SingleLmScorer,
    fit_bin_table,
)
from conftest import trie_words

# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------


def _size(grid: GridSpec, kind: str) -> int:
    return sum(1 for _ in grid.points(kind))


def test_default_grid_sizes():
    grid = GridSpec()
    assert _size(grid, "none") == 5
    assert _size(grid, "general") == 5 * 5 * 2
    assert _size(grid, "jargon") == 5 * 5 * 2
    assert _size(grid, "linear") == 5 * 5 * 4 * 3
    assert _size(grid, "loglinear") == 5 * 5 * 4 * 3
    assert _size(grid, "coloring") == 5 * 5 * 4 * 5
    assert _size(grid, "bins") == 5 * 5 * 4 * 2
    assert _size(grid, "bayes") == 5 * 5 * 4


def test_comparison_grid_sizes():
    assert _size(COMPARISON_GRID, "coloring") == 2 * 2
    assert _size(COMPARISON_GRID, "linear") == 2 * 3
    assert _size(COMPARISON_GRID, "general") == 2
    assert _size(COMPARISON_GRID, "none") == 1


def test_points_only_vary_relevant_dimensions():
    grid = GridSpec()
    for point in grid.points("coloring"):
        assert point.config.lam == 0.5
        assert point.num_bins is None
    assert {p.config.unknown_subword_penalty for p in grid.points("coloring")} == set(
        grid.subword_penalties
    )
    for point in grid.points("linear"):
        assert point.config.unknown_subword_penalty is None
    assert {p.config.lam for p in grid.points("linear")} == set(grid.lams)
    for point in grid.points("general"):
        pg, pj = point.config.unknown_word_penalty
        assert pg == pj
    bins = list(grid.points("bins"))
    assert {p.num_bins for p in bins} == set(grid.bin_counts)


def test_kind_grid_fields_name_the_grid_fields_of_every_scorer_kind():
    """The table has one entry per scorer kind, in ``SCORER_KINDS``
    order, each naming distinct ``GridSpec`` fields."""
    fields = {f.name for f in dataclasses.fields(GridSpec)}
    assert tuple(KIND_GRID_FIELDS) == scorers_module.SCORER_KINDS
    for names in KIND_GRID_FIELDS.values():
        assert len(set(names)) == len(names) and set(names) <= fields


def test_describe_reports_method_relevant_keys():
    grid = GridSpec()
    p_col = next(iter(grid.points("coloring")))
    d = p_col.describe("coloring")
    assert "unknown_subword_penalty" in d and "lambda" not in d
    p_lin = next(iter(grid.points("linear")))
    d2 = p_lin.describe("linear")
    assert "lambda" in d2 and "num_bins" not in d2


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------


def _tiny_models():
    general = NGramModel(
        max_order=1,
        entries={("ab",): (math.log10(0.6), None), ("cd",): (math.log10(0.4), None)},
    )
    jargon = NGramModel(
        max_order=1,
        entries={("zz",): (0.0, None)},
    )
    return general, jargon


def test_build_runtime_coloring_keeps_colors():
    general, jargon = _tiny_models()
    rt = build_runtime(
        "coloring",
        [["ab", "cd"], ["zz"]],
        [general, jargon],
        ScorerConfig(),
        default_alphabet(1),
    )
    assert rt.alphabet.num_colors == 2
    assert len(rt.tries) == 2
    assert rt.tries[0].color == 0 and rt.tries[1].color == 1
    assert "zz" in trie_words(rt.tries[1]) and "zz" not in trie_words(rt.tries[0])
    assert isinstance(rt.scorer, ColoringScorer)


def test_build_runtime_baselines_union_lexicons():
    general, _ = _tiny_models()
    rt = build_runtime(
        "general",
        [["ab", "cd"], ["zz", "ab"]],
        [general],
        ScorerConfig(),
        default_alphabet(2),
    )
    assert rt.alphabet.num_colors == 1
    assert len(rt.tries) == 1
    assert trie_words(rt.tries[0]) == {"ab", "cd", "zz"}
    assert isinstance(rt.scorer, SingleLmScorer)


def test_build_runtime_rejects_empty_lexicon():
    general, _ = _tiny_models()
    with pytest.raises(EmptyLexicon):
        build_runtime(
            "general", [["ab"], []], [general], ScorerConfig(), default_alphabet(1)
        )
    with pytest.raises(EmptyLexicon):
        build_runtime("general", [], [general], ScorerConfig(), default_alphabet(1))


def test_build_runtime_without_lexicons_is_unconstrained():
    general, jargon = _tiny_models()
    rt = build_runtime(
        "general", None, [general], ScorerConfig(), default_alphabet(2), 8
    )
    assert rt.tries is None
    assert rt.alphabet.num_colors == 1
    assert rt.beam_width == 8
    assert isinstance(rt.scorer, SingleLmScorer)
    with pytest.raises(ValueError, match="coloring needs"):
        build_runtime(
            "coloring", None, [general, jargon], ScorerConfig(), default_alphabet(1)
        )


# ---------------------------------------------------------------------------
# Parallel decoding and evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthesisSpec(
        num_sentences=6,
        jargon_insertion_rate=0.4,
        noise_level=0.2,
        frames_per_char=1,
        rng_seed=3,
        min_words=2,
        max_words=4,
    )
    utts, lang = synthesize_corpus(spec, root)
    return utts, lang


def test_decode_utterances_parallel_matches_serial(small_corpus):
    utts, lang = small_corpus
    from colordecode.corpus import language_models

    general, jargon = language_models(lang)
    cfg = build_runtime(
        "coloring",
        [lang.lexicons.general, lang.lexicons.jargon],
        [general, jargon],
        ScorerConfig(),
        default_alphabet(2),
        beam_width=8,
    ).decoder_config()
    serial = decode_utterances(utts, [cfg], jobs=1)
    parallel = decode_utterances(utts, [cfg], jobs=4)
    assert serial == parallel


def test_evaluate_builds_report(small_corpus):
    utts, lang = small_corpus
    from colordecode.corpus import language_models

    general, jargon = language_models(lang)
    cfg = build_runtime(
        "coloring",
        [lang.lexicons.general, lang.lexicons.jargon],
        [general, jargon],
        ScorerConfig(),
        default_alphabet(2),
        beam_width=8,
    ).decoder_config()
    report = evaluate("unit", utts, [("coloring", cfg)], configs=[{"alpha": 1.0}])
    assert report.corpus == "unit"
    assert report.results[0].method == "coloring"
    assert report.results[0].utterances == len(utts)
    assert report.results[0].config == {"alpha": 1.0}
    assert 0.0 <= report.results[0].wer


def _coloring_inputs(lang):
    from colordecode.corpus import language_models

    return [lang.lexicons.general, lang.lexicons.jargon], list(language_models(lang))


def test_evaluate_decodes_each_distinct_config_once(small_corpus, monkeypatch):
    """Methods that share one config object share its decodes: each
    distinct config reaches ``decode_utterances`` once, in first-listed
    order, and the report keeps one row per method, in order."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    first, second = (
        build_runtime("coloring", lexicons, models, ScorerConfig(alpha=a),
                      default_alphabet(2), beam_width=4).decoder_config()
        for a in (0.5, 1.5)
    )
    received = []
    real_decode = evaluation.decode_utterances

    def recording(utterances, configs, jobs=1):
        received.append(list(configs))
        return real_decode(utterances, configs, jobs)

    monkeypatch.setattr(evaluation, "decode_utterances", recording)
    report = evaluate("unit", utts, [("a", first), ("b", second), ("c", first)])
    assert len(received) == 1
    assert [id(cfg) for cfg in received[0]] == [id(first), id(second)]
    assert [r.method for r in report.results] == ["a", "b", "c"]
    alone = evaluate("unit", utts, [("a", first), ("b", second)])
    assert report.results[:2] == alone.results
    assert report.results[2].wer == report.results[0].wer
    assert report.results[2].cer == report.results[0].cer


def test_decode_utterances_streams_several_runtimes(small_corpus):
    """One call decodes every method's decoder config, in the order
    given, and each run's transcripts equal that config decoded alone."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)

    def configs():
        return [
            build_runtime("coloring", lexicons, models, ScorerConfig(alpha=a),
                          default_alphabet(2), beam_width=4).decoder_config()
            for a in (0.5, 1.0, 1.5)
        ]

    alone = [decode_utterances(utts, [cfg])[0] for cfg in configs()]
    assert decode_utterances(utts, configs(), jobs=1) == alone
    assert decode_utterances(utts, configs(), jobs=2) == alone
    assert decode_utterances(utts, [], jobs=2) == []


def test_offlex_coloring_grid_rows_are_identical_at_every_jobs(small_corpus):
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    grid = GridSpec(
        alphas=(0.5, 1.0), betas=(0.0,), word_penalties=(-10.0,),
        subword_penalties=(0.0, -3.0),
    )
    assert _size(grid, "coloring") == 4
    results = [
        run_grid_search("coloring", utts, lexicons, models, grid,
                        default_alphabet(2), beam_width=8, jobs=jobs)
        for jobs in (1, 2, 3)
    ]
    first = results[0]
    for other in results[1:]:
        assert repr(other.rows) == repr(first.rows)
        assert (other.best, other.wer, other.cer, other.jargon_wer) == (
            first.best, first.wer, first.cer, first.jargon_wer
        )


def test_grid_search_builds_every_point_before_the_first_decode(
    small_corpus, monkeypatch
):
    """On the default 500-point coloring grid each point's scorer is
    built once, and all of them before the first decode: the first point's
    by ``make_scorer``, the others' over its merge; every point decodes
    over one set of tries, built once."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    real_decode = evaluation.decode
    built = []
    tries = []

    def spy(name):
        real = getattr(evaluation, name)

        def build(*args, **kwargs):
            assert not tries, f"scorer {len(built)} built after a decode"
            built.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, build)

    def decode(logits, config):
        if not tries or config.tries is not tries[-1]:
            tries.append(config.tries)
        return real_decode(logits, config)

    spy("make_scorer")
    spy("ColoringScorer")
    monkeypatch.setattr(evaluation, "decode", decode)
    grid = GridSpec()
    result = run_grid_search("coloring", utts[:1], lexicons, models, grid,
                             default_alphabet(2), beam_width=2)
    points = _size(grid, "coloring")
    assert len(result.rows) == points == 500
    assert built == ["make_scorer"] + ["ColoringScorer"] * (points - 1)
    assert len(tries) == 1 and len(tries[0]) == 2


def _grid_configs(monkeypatch, kind, utts, lexicons, models, grid, calibration=None):
    """The decoder configs ``run_grid_search`` passes to
    ``decode_utterances``, captured without decoding."""
    captured = []

    def fake_decode(utterances, configs, jobs=1):
        captured.extend(configs)
        return [[ColoredTranscript((), 0.0)] * len(utterances) for _ in configs]

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "decode_utterances", fake_decode)
        run_grid_search(kind, utts, lexicons, models, grid, default_alphabet(2),
                        beam_width=4, calibration=calibration)
    return captured


def test_grid_point_scorers_share_the_merge_and_the_bin_tables(
    small_corpus, monkeypatch
):
    """Every coloring point's scorer references one colored merge, and
    every bin point's scorer its bin count's one fitted table; all the
    points' configs share one alphabet, one set of tries and one
    successor table."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    coloring = _grid_configs(monkeypatch, "coloring", utts, lexicons, models,
                             _offlex_grid())
    assert len(coloring) == 4
    assert len({id(cfg.scorer.merged) for cfg in coloring}) == 1
    assert len({id(cfg.scorer) for cfg in coloring}) == 4

    grid = GridSpec(alphas=(0.5, 1.0), betas=(0.0,), word_penalties=(-10.0,),
                    bin_counts=(4, 9))
    calibration = calibration_pairs(utts, models, seed=3)
    bins = _grid_configs(monkeypatch, "bins", utts, lexicons, models, grid,
                         calibration)
    tables = {}
    for point, cfg in zip(grid.points("bins"), bins, strict=True):
        table = tables.setdefault(point.num_bins, cfg.scorer.bin_table)
        assert cfg.scorer.bin_table is table
    assert sorted(tables) == [4, 9] and tables[4] is not tables[9]
    assert tables[4].num_bins == 4 and tables[9].num_bins == 9

    for configs in (coloring, bins):
        for field in ("alphabet", "tries", "_successors"):
            assert len({id(getattr(cfg, field)) for cfg in configs}) == 1, field


def test_grid_configs_keep_their_sharing_through_pickle(small_corpus, monkeypatch):
    """A worker started by spawn gets the configs pickled as one list:
    the copies still share one successor table, one set of tries and
    one colored merge, and decode as the originals do."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    configs = _grid_configs(monkeypatch, "coloring", utts, lexicons, models,
                            _offlex_grid())
    copies = pickle.loads(pickle.dumps(configs))
    for field in ("_successors", "tries", "alphabet"):
        assert len({id(getattr(cfg, field)) for cfg in copies}) == 1, field
    assert len({id(cfg.scorer.merged) for cfg in copies}) == 1
    assert copies[0].tries is not configs[0].tries
    matrix = read_logits(utts[0].logits_path)
    assert [decode(matrix, cfg) for cfg in copies] == [
        decode(matrix, cfg) for cfg in configs
    ]


def test_coloring_grid_search_merges_the_models_once(small_corpus, monkeypatch):
    """Every point of a coloring grid scores against one colored merge
    of the models, made once per search."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    real_merge = scorers_module.merge_colored
    merges = []

    def merge(pairs):
        merges.append(1)
        return real_merge(pairs)

    monkeypatch.setattr(scorers_module, "merge_colored", merge)
    result = run_grid_search("coloring", utts[:2], lexicons, models,
                             _offlex_grid(), default_alphabet(2), beam_width=4)
    assert len(result.rows) == 4
    assert len(merges) == 1


def _offlex_grid(alphas=(0.5, 1.0)) -> GridSpec:
    return GridSpec(
        alphas=alphas, betas=(0.0,), word_penalties=(-10.0,),
        subword_penalties=(0.0, -3.0),
    )


def test_grid_points_build_each_successor_list_once(small_corpus, monkeypatch):
    """The points of a coloring grid with off-lexicon spelling share one
    successor table: a search builds each grammar state's successor list
    once, as many as one point decoded alone builds."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    calls = []

    def counting(alphabet, tries, state, allow_off_lexicon=False):
        calls.append(state)
        return word_successors(alphabet, tries, state, allow_off_lexicon)

    monkeypatch.setattr(decoder_module, "word_successors", counting)
    grid = _offlex_grid()
    assert _size(grid, "coloring") == 4
    run_grid_search("coloring", utts, lexicons, models, grid,
                    default_alphabet(2), beam_width=8)
    searched = list(calls)
    assert len(searched) == len(set(searched))

    alone = []
    for point in grid.points("coloring"):
        calls.clear()
        cfg = build_runtime("coloring", lexicons, models, point.config,
                            default_alphabet(2), 8).decoder_config()
        decode_utterances(utts, [cfg])
        alone.append(len(calls))
    assert len(searched) == max(alone)


def _hex_rows(rows):
    return [
        (point, w.hex(), c.hex(), None if jw is None else jw.hex())
        for point, w, c, jw in rows
    ]


@pytest.mark.parametrize("kind", ["coloring", "bins"])
def test_grid_rows_equal_fresh_per_point_decodes(small_corpus, kind, monkeypatch):
    """A search builds its tries once, and sharing them changes no bit:
    every grid row, by ``float.hex``, equals that point's runtime built
    afresh and decoded alone, for off-lexicon coloring and for two bin
    counts, whose points differ in their tables and spell nothing off
    the lexicon."""
    utts, lang = small_corpus
    lexicons, models = _coloring_inputs(lang)
    built = []
    real_build_trie = evaluation.build_trie

    def build_trie(*args):
        built.append(args[1])
        return real_build_trie(*args)

    monkeypatch.setattr(evaluation, "build_trie", build_trie)
    calibration = None
    grid = _offlex_grid()
    if kind == "bins":
        calibration = calibration_pairs(utts, models, seed=3)
        grid = GridSpec(alphas=(0.5, 1.0), betas=(0.0,), word_penalties=(-10.0,),
                        bin_counts=(4, 9))
    result = run_grid_search(kind, utts, lexicons, models, grid,
                             default_alphabet(2), beam_width=8,
                             calibration=calibration)
    assert built == ([0, 1] if kind == "coloring" else [0])
    monkeypatch.undo()
    refs = [list(u.reference) for u in utts]
    masks = [list(u.jargon_mask) for u in utts]
    fresh = []
    for point in grid.points(kind):
        table = None if calibration is None else fit_bin_table(calibration, point.num_bins)
        runtime = build_runtime(kind, lexicons, models, point.config,
                                default_alphabet(2), 8, table)
        hyps = [
            [w for w, _ in decode(read_logits(u.logits_path), runtime.decoder_config()).words]
            for u in utts
        ]
        fresh.append((point, wer(refs, hyps), cer(refs, hyps),
                      jargon_wer(refs, masks, hyps)))
    assert len(fresh) == 4
    assert _hex_rows(result.rows) == _hex_rows(fresh)


@pytest.mark.parametrize(
    "lexicons, models, error",
    [([["ab"], []], "two", EmptyLexicon), ([["ab"], ["zz"]], "one", MissingModel)],
)
def test_grid_search_refuses_before_any_decode(lexicons, models, error, monkeypatch):
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    general, jargon = _tiny_models()
    with pytest.raises(error):
        run_grid_search(
            "coloring",
            [_fake_utterance()],
            lexicons,
            [general, jargon] if models == "two" else [general],
            GridSpec(alphas=(1.0,), betas=(0.0, 0.5)),
            default_alphabet(1),
        )


# ---------------------------------------------------------------------------
# Grid search selection rule
# ---------------------------------------------------------------------------


def _fake_utterance():
    return Utterance("u0", Path("/nonexistent.ctcl"), ("ab", "cd"), None)


def test_grid_search_prefers_lower_cer_on_wer_tie(monkeypatch):
    """Both grid points get WER 50; the second has smaller CER and must
    win even though it enumerates later."""

    def fake_decode(utterances, configs, jobs=1):
        out = []
        for cfg in configs:
            word = "xx" if cfg.scorer.config.beta == 0.0 else "cx"
            out.append([ColoredTranscript((("ab", 0), (word, 0)), 0.0)])
        return out

    monkeypatch.setattr(evaluation, "decode_utterances", fake_decode)
    grid = GridSpec(alphas=(1.0,), betas=(0.0, 0.5))
    result = run_grid_search(
        "none",
        [_fake_utterance()],
        [["ab", "cd", "xx", "cx"]],
        [],
        grid,
        default_alphabet(1),
    )
    assert result.best.config.beta == 0.5
    assert result.wer == pytest.approx(50.0)
    assert len(result.rows) == 2
    assert result.rows[0][2] > result.rows[1][2]  # CER improved


def test_grid_search_breaks_full_ties_by_enumeration_order(monkeypatch):
    def fake_decode(utterances, configs, jobs=1):
        return [[ColoredTranscript((("ab", 0), ("cd", 0)), 0.0)] for _ in configs]

    monkeypatch.setattr(evaluation, "decode_utterances", fake_decode)
    grid = GridSpec(alphas=(1.0,), betas=(0.0, 0.5))
    result = run_grid_search(
        "none",
        [_fake_utterance()],
        [["ab", "cd"]],
        [],
        grid,
        default_alphabet(1),
    )
    assert result.best.config.beta == 0.0
    assert result.wer == 0.0


def test_grid_search_bins_requires_calibration(monkeypatch):
    def fake_decode(utterances, configs, jobs=1):
        return [[ColoredTranscript((), 0.0)] for _ in configs]

    monkeypatch.setattr(evaluation, "decode_utterances", fake_decode)
    general, jargon = _tiny_models()
    with pytest.raises(MissingBinTable):
        run_grid_search(
            "bins",
            [_fake_utterance()],
            [["ab", "cd"]],
            [general, jargon],
            GridSpec(alphas=(1.0,), betas=(0.0,), bin_counts=(4,)),
            default_alphabet(1),
        )


def test_grid_search_rejects_a_grid_with_no_points(monkeypatch):
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    with pytest.raises(ValueError, match="grid has no points"):
        run_grid_search(
            "none",
            [_fake_utterance()],
            [["ab", "cd"]],
            [],
            GridSpec(betas=()),
            default_alphabet(1),
        )


def test_missing_reference_fails_before_any_decode(monkeypatch):
    """A manifest row without a reference is refused before the corpus,
    or the first grid point, is decoded."""
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    utts = [
        _fake_utterance(),
        Utterance("u1", Path("/nonexistent.ctcl"), None, None),
    ]
    lexicons = [["ab", "cd"]]
    cfg = build_runtime(
        "none", lexicons, [], ScorerConfig(), default_alphabet(1)
    ).decoder_config()
    with pytest.raises(ValueError, match="'u1' has no reference"):
        evaluate("unit", utts, [("none", cfg)])
    with pytest.raises(ValueError, match="'u1' has no reference"):
        run_grid_search(
            "none", utts, lexicons, [], GridSpec(betas=(0.0,)), default_alphabet(1)
        )


def test_references_without_a_word_fail_before_any_decode(monkeypatch):
    """A corpus whose references hold no word has no error rate (WER and
    CER would divide by zero), so it is refused before any decode,
    however its rows spell the empty reference."""
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    utts = [
        Utterance("u0", Path("/nonexistent.ctcl"), (), None),
        Utterance("u1", Path("/nonexistent.ctcl"), ("",), None),
    ]
    lexicons = [["ab", "cd"]]
    cfg = build_runtime(
        "none", lexicons, [], ScorerConfig(), default_alphabet(1)
    ).decoder_config()
    message = "no reference in the manifest holds a word"
    with pytest.raises(ValueError, match=message):
        evaluate("unit", utts, [("none", cfg)])
    with pytest.raises(ValueError, match=message):
        run_grid_search(
            "none", utts, lexicons, [], GridSpec(betas=(0.0,)), default_alphabet(1)
        )


def test_an_empty_corpus_is_refused_before_any_runtime_is_built(monkeypatch):
    """A manifest with no utterances has no error rate: evaluating it
    or searching a grid on it fails, naming the empty manifest, before
    any runtime is built or any decode runs."""
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    cfg = build_runtime(
        "none", [["ab", "cd"]], [], ScorerConfig(), default_alphabet(1)
    ).decoder_config()
    for name in ("build_runtime", "_build_grammar", "make_scorer", "ColoringScorer"):
        monkeypatch.setattr(evaluation, name, lambda *a, **k: pytest.fail("built"))
    with pytest.raises(ValueError, match="manifest has no utterances"):
        evaluate("unit", [], [("none", cfg)])
    with pytest.raises(ValueError, match="manifest has no utterances"):
        run_grid_search(
            "none", [], [["ab", "cd"]], [], GridSpec(betas=(0.0,)),
            default_alphabet(1),
        )


# ---------------------------------------------------------------------------
# The cyclic garbage collector
# ---------------------------------------------------------------------------


@pytest.fixture
def own_threshold():
    """A collector threshold no code of the package sets, restored when
    the test ends."""
    before = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    try:
        yield gc.get_threshold()
    finally:
        gc.set_threshold(*before)


def _coloring_config(lang, beam_width=4):
    lexicons, models = _coloring_inputs(lang)
    return build_runtime("coloring", lexicons, models, ScorerConfig(),
                         default_alphabet(2), beam_width=beam_width).decoder_config()


@pytest.mark.parametrize(
    "call", ["decode", "decode_utterances", "decode_utterances-jobs2", "run_grid_search"]
)
def test_library_calls_leave_the_collector_as_they_found_it(
    small_corpus, own_threshold, call
):
    """Only a process the package owns raises the collector's threshold;
    a decode, a corpus decode (whose pool workers raise their own) and a
    grid search leave the caller's threshold and switch alone."""
    utts, lang = small_corpus
    if call == "decode":
        decode(read_logits(utts[0].logits_path), _coloring_config(lang))
    elif call.startswith("decode_utterances"):
        decode_utterances(utts, [_coloring_config(lang)], jobs=2 if call.endswith("jobs2") else 1)
    else:
        lexicons, models = _coloring_inputs(lang)
        run_grid_search("coloring", utts, lexicons, models,
                        GridSpec(alphas=(0.5, 1.0), betas=(0.0,), word_penalties=(-10.0,),
                                 subword_penalties=(0.0,)),
                        default_alphabet(2), beam_width=4, jobs=1)
    assert gc.get_threshold() == own_threshold
    assert gc.isenabled()


def test_decode_utterances_workers_raise_their_collector_threshold(
    small_corpus, monkeypatch
):
    """The pool ``decode_utterances`` starts runs ``_init_worker`` in
    every worker, and a worker that ran it collects generation 0 only
    after ``_GC_GEN0_THRESHOLD`` allocations, its older generations'
    thresholds untouched."""
    utts, lang = small_corpus
    pools = []
    real_pool = evaluation.ProcessPoolExecutor

    def recording(**kwargs):
        pools.append(kwargs)
        return real_pool(**kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", recording)
    decode_utterances(utts, [_coloring_config(lang)], jobs=2)
    assert len(pools) == 1 and pools[0]["initializer"] is evaluation._init_worker

    with ProcessPoolExecutor(
        max_workers=1, initializer=pools[0]["initializer"], initargs=pools[0]["initargs"]
    ) as pool:
        threshold = pool.submit(gc.get_threshold).result(timeout=60)
    assert threshold == (evaluation._GC_GEN0_THRESHOLD, *gc.get_threshold()[1:])


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


def _small_comparison(**kwargs):
    grid = GridSpec(alphas=(0.5, 1.0), betas=(0.0,), word_penalties=(-10.0,),
                    subword_penalties=(0.0,), bin_counts=(4, 9))
    return evaluation.run_method_comparison(
        3, kinds=("coloring", "bins"), num_test=4, num_validation=3,
        grid=grid, beam_width=4, **kwargs,
    )


def test_method_comparison_builds_each_tuned_method_once(monkeypatch):
    """A comparison decodes its test split with the configs its grid
    searches built for their best points: one colored merge, one bin
    table per bin count and each kind's tries once, none of them
    rebuilt for the winner."""
    calls = {"merge": 0, "fit": [], "trie": []}
    decoded = []
    real_merge = scorers_module.merge_colored
    real_fit = evaluation.fit_bin_table
    real_trie = evaluation.build_trie
    real_decode = evaluation.decode_utterances

    def decode_utterances(utterances, configs, jobs=1):
        decoded.append(list(configs))
        return real_decode(utterances, configs, jobs)

    def merge(pairs):
        calls["merge"] += 1
        return real_merge(pairs)

    def fit(pairs, num_bins):
        calls["fit"].append(num_bins)
        return real_fit(pairs, num_bins)

    def trie(alphabet, color, words):
        calls["trie"].append((alphabet.num_colors, color))
        return real_trie(alphabet, color, words)

    monkeypatch.setattr(scorers_module, "merge_colored", merge)
    monkeypatch.setattr(evaluation, "fit_bin_table", fit)
    monkeypatch.setattr(evaluation, "build_trie", trie)
    monkeypatch.setattr(evaluation, "decode_utterances", decode_utterances)
    report, searches = _small_comparison()
    assert [r.method for r in report.results] == ["coloring", "bins"]
    assert calls == {"merge": 1, "fit": [4, 9], "trie": [(2, 0), (2, 1), (1, 0)]}
    *grids, tested = decoded
    for grid_configs, search, cfg in zip(grids, searches.values(), tested, strict=True):
        best = [point for point, *_ in search.rows].index(search.best)
        assert cfg is grid_configs[best]


def test_method_comparison_searches_a_repeated_kind_once(monkeypatch):
    """A kind listed twice is searched once; the report keeps one row
    per listed kind, in order, the repeated rows alike."""
    searched = []
    decoded = []
    real_search = evaluation._grid_search
    real_decode = evaluation.decode_utterances

    def counting(kind, *args):
        searched.append(kind)
        return real_search(kind, *args)

    def recording(utterances, configs, jobs=1):
        decoded.append(list(configs))
        return real_decode(utterances, configs, jobs)

    monkeypatch.setattr(evaluation, "_grid_search", counting)
    monkeypatch.setattr(evaluation, "decode_utterances", recording)
    report, searches = evaluation.run_method_comparison(
        3, kinds=("none", "general", "none"), num_test=4, num_validation=3,
        grid=GridSpec(betas=(0.0, 0.5), alphas=(1.0,), word_penalties=(-10.0,)),
        beam_width=4,
    )
    assert searched == ["none", "general"]
    # the test split is decoded once per distinct tuned config
    *_, tested = decoded
    assert len(tested) == 2 and tested[0] is not tested[1]
    assert list(searches) == ["none", "general"]
    assert [r.method for r in report.results] == ["none", "general", "none"]
    assert report.results[0] == report.results[2]
    assert report.results[0].config == searches["none"].best.describe("none")


def test_method_comparison_in_a_workdir_keeps_its_splits(tmp_path):
    """With ``workdir`` both splits' manifests stay under it, and the
    report and every grid row equal those of a temporary directory."""
    in_tmp = _small_comparison()
    in_workdir = _small_comparison(workdir=tmp_path / "work")
    for split in ("validation", "test"):
        assert (tmp_path / "work" / split / "manifest.jsonl").is_file()
    assert in_workdir[0].as_json() == in_tmp[0].as_json()
    assert list(in_workdir[1]) == list(in_tmp[1]) == ["coloring", "bins"]
    for kind in in_tmp[1]:
        assert _hex_rows(in_workdir[1][kind].rows) == _hex_rows(in_tmp[1][kind].rows)
        assert in_workdir[1][kind] == in_tmp[1][kind]


# ---------------------------------------------------------------------------
# Calibration pairs
# ---------------------------------------------------------------------------


def test_calibration_pairs_shape():
    general, jargon = _tiny_models()
    utts = [Utterance("u", Path("/x.ctcl"), ("ab", "cd"), None)]
    pairs = calibration_pairs(utts, [general, jargon], seed=1)
    positives = [p for p in pairs if p[2]]
    negatives = [p for p in pairs if not p[2]]
    assert len(positives) == 2
    assert 0 < len(negatives) <= 6
    for pg, pj, _ in pairs:
        assert 0.0 <= pg <= 1.0 and 0.0 <= pj <= 1.0
    # "ab"/"cd" are unknown to the domain model: zero, not a penalty
    assert positives[0][1] == 0.0
    assert positives[0][0] == pytest.approx(0.6, abs=1e-12)


def test_calibration_pairs_deterministic():
    general, jargon = _tiny_models()
    utts = [Utterance("u", Path("/x.ctcl"), ("ab", "cd", "ab"), None)]
    a = calibration_pairs(utts, [general, jargon], seed=5)
    b = calibration_pairs(utts, [general, jargon], seed=5)
    assert a == b


def test_calibration_pairs_need_two_models():
    general, _ = _tiny_models()
    with pytest.raises(ValueError):
        calibration_pairs([], [general])
