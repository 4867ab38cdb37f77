"""Evaluation harness: method runtimes, corpus decoding, grid search.

A method is a fusion kind plus hyperparameters. ``build_runtime`` turns
that into everything the decoder needs: the coloring method gets one
trie per lexicon and a color-merged model, every baseline gets a single
union lexicon and its fusion scorer over uncolored histories. Below
``build_runtime`` a method is its ``DecoderConfig``. Corpora decode
utterance-by-utterance; an evaluation of several methods, or a grid
search over many points, decodes every (config, utterance) pair in one
stream, in process or through one pool of worker processes. A grid
search builds every point's config before the first decode, all over
one grammar. It picks hyperparameters by validation WER (CER breaks
ties, then grid order, so results are deterministic). A method
comparison decodes its test split with the config each search built
for its winner, so a tuned method is built once.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import tempfile
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    EmptyLexicon,
    SynthesisSpec,
    Utterance,
    default_alphabet,
    language_models,
    read_logits,
    synthesize_corpus,
)
from .decoder import (
    DEFAULT_BEAM_WIDTH,
    ColoredTranscript,
    DecoderConfig,
    ShapeMismatch,
    decode,
)
from .lexicon import ColoredAlphabet, LexiconTrie, build_trie
from .metrics import EvalReport, MethodResult, cer, jargon_wer, wer
from .ngram_lm import EMPTY_STATE, NGramModel
from .scorers import (
    KIND_MODELS,
    BinTable,
    ColoringScorer,
    MissingBinTable,
    Scorer,
    ScorerConfig,
    fit_bin_table,
    make_scorer,
)

__all__ = [
    "KIND_GRID_FIELDS",
    "COMPARISON_GRID",
    "GridSpec",
    "GridPoint",
    "MethodRuntime",
    "build_runtime",
    "decode_utterances",
    "evaluate",
    "GridSearchResult",
    "run_grid_search",
    "calibration_pairs",
    "run_method_comparison",
]

# vocabulary words sampled per reference word as calibration negatives
_NEGATIVES_PER_WORD = 3

# the ``GridSpec`` fields each fusion kind reads, in enumeration order:
# every kind reads betas, a kind with a model also alphas and
# word_penalties, and four kinds read one field more
KIND_GRID_FIELDS = {
    kind: (("alphas", "betas", "word_penalties") if places else ("betas",)) + {
        "linear": ("lams",), "loglinear": ("lams",),
        "coloring": ("subword_penalties",), "bins": ("bin_counts",),
    }.get(kind, ())
    for kind, places in KIND_MODELS.items()
}


# each ``GridSpec`` field's setting: the ``ScorerConfig`` attribute it
# sets (``num_bins`` is ``GridPoint``'s) and its ``describe`` key
_GRID_SETTINGS = {
    "alphas": ("alpha", "alpha"),
    "betas": ("beta", "beta"),
    "lams": ("lam", "lambda"),
    "word_penalties": ("unknown_word_penalty", "unknown_word_penalty"),
    "subword_penalties": ("unknown_subword_penalty", "unknown_subword_penalty"),
    "bin_counts": ("num_bins", "num_bins"),
}


@dataclass(frozen=True)
class GridPoint:
    """One hyperparameter assignment: a scorer config plus, for the bin
    method, the bin count the table was fitted with."""

    config: ScorerConfig
    num_bins: int | None = None

    @classmethod
    def from_fields(cls, values: dict) -> GridPoint:
        """The point of these ``GridSpec`` field values, defaults elsewhere."""
        settings = {_GRID_SETTINGS[f][0]: v for f, v in values.items()}
        num_bins = settings.pop("num_bins", None)
        return cls(ScorerConfig(**settings), num_bins)

    def describe(self, kind: str) -> dict:
        """The settings ``kind`` reads, in ``GridSpec`` field order, by
        name; alpha and beta are always given."""
        reads = ("alphas", "betas", *KIND_GRID_FIELDS[kind])
        settings = {**vars(self.config), "num_bins": self.num_bins}
        settings["unknown_word_penalty"] = list(self.config.unknown_word_penalty)
        return {key: settings[name] for field, (name, key) in _GRID_SETTINGS.items()
                if field in reads}


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grids; defaults cover the full search space.

    ``points`` varies only the fields ``KIND_GRID_FIELDS`` gives a kind,
    in that order; the rest keep their ``ScorerConfig`` or ``GridPoint``
    default. A two-model kind draws its general and its jargon word
    penalty from ``word_penalties``, a one-model kind one for both.
    """

    alphas: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)
    betas: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)
    lams: tuple[float, ...] = (0.25, 0.5, 0.75)
    word_penalties: tuple[float, ...] = (-10.0, -50.0)
    subword_penalties: tuple[float, ...] = (-7.0, -5.0, -3.0, -1.0, 0.0)
    bin_counts: tuple[int, ...] = (53, 100)

    def points(self, kind: str) -> Iterator[GridPoint]:
        pens = self.word_penalties
        pairs = (
            list(itertools.product(pens, pens)) if len(KIND_MODELS[kind]) == 2
            else [(p, p) for p in pens]
        )
        fields = KIND_GRID_FIELDS[kind]
        axes = [pairs if f == "word_penalties" else getattr(self, f) for f in fields]
        for values in itertools.product(*axes):
            yield GridPoint.from_fields(dict(zip(fields, values)))


@dataclass
class MethodRuntime:
    """Prebuilt decoding setup for one method, as ``build_runtime``
    returns it; ``decoder_config`` is what the decoder takes."""

    alphabet: ColoredAlphabet
    tries: list[LexiconTrie] | None
    scorer: Scorer
    beam_width: int

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(
            alphabet=self.alphabet,
            tries=self.tries,
            scorer=self.scorer,
            beam_width=self.beam_width,
        )


def build_runtime(
    kind: str,
    lexicons: Sequence[Sequence[str]] | None,
    models: Sequence[NGramModel],
    config: ScorerConfig,
    alphabet: ColoredAlphabet,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    bin_table: BinTable | None = None,
) -> MethodRuntime:
    """Assemble tries, scorer and alphabet for one method.

    Coloring keeps one trie per lexicon (colors in list order) and
    scores against the colored merge of ``models``. Every other kind
    decodes over the union of all lexicon words in a single color, with
    uncolored model histories; with ``lexicons`` None it decodes
    unconstrained (no tries), which coloring cannot. ``alphabet`` is a
    template; its color count is replaced by what the method needs.
    """
    ab, tries = _build_grammar(kind, lexicons, alphabet)
    scorer = make_scorer(kind, models, config, bin_table, ab.num_colors)
    return MethodRuntime(ab, tries, scorer, beam_width)


def _build_grammar(
    kind: str,
    lexicons: Sequence[Sequence[str]] | None,
    alphabet: ColoredAlphabet,
) -> tuple[ColoredAlphabet, list[LexiconTrie] | None]:
    """The alphabet and tries of ``build_runtime``: the half of a
    runtime that no hyperparameter changes."""
    if lexicons is not None and (not lexicons or any(not lex for lex in lexicons)):
        raise EmptyLexicon("every lexicon needs at least one word")

    if kind == "coloring":
        if lexicons is None:
            raise ValueError("coloring needs one lexicon per color")
        ab = ColoredAlphabet(
            alphabet.base_chars, len(lexicons), alphabet.word_separator
        )
        return ab, [build_trie(ab, c, lex) for c, lex in enumerate(lexicons)]

    ab = ColoredAlphabet(alphabet.base_chars, 1, alphabet.word_separator)
    if lexicons is None:
        return ab, None
    union = tuple(dict.fromkeys(w for lex in lexicons for w in lex))
    return ab, [build_trie(ab, 0, union)]


# the cyclic collector's generation-0 threshold in a process the package
# owns; the search makes no reference cycles, so a collection there frees
# nothing and only walks the live prefix nodes
_GC_GEN0_THRESHOLD = 100_000


def _own_collector() -> None:
    """Raise this process's generation-0 collection threshold to
    ``_GC_GEN0_THRESHOLD``. Only a process the package owns calls this,
    a pool worker or the console command; a library call leaves the
    caller's collector as it found it."""
    gc.set_threshold(_GC_GEN0_THRESHOLD, *gc.get_threshold()[1:])


# the decoder configs of the running ``decode_utterances`` call, set in
# each worker process by the pool's initializer
_CONFIGS: Sequence[DecoderConfig] = ()


def _init_worker(configs: Sequence[DecoderConfig]) -> None:
    global _CONFIGS
    _CONFIGS = configs
    _own_collector()


def _decode_task(task: tuple[int, str]) -> ColoredTranscript:
    run, path = task
    return _decode_file(path, _CONFIGS[run])


def _decode_file(path: str, cfg: DecoderConfig) -> ColoredTranscript:
    matrix = read_logits(path)
    try:
        return decode(matrix, cfg)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{path}: {exc}") from None


def decode_utterances(
    utterances: Sequence[Utterance],
    configs: Sequence[DecoderConfig],
    jobs: int = 1,
) -> list[list[ColoredTranscript]]:
    """Decode a corpus once per decoder config; returns one transcript
    list per config, in manifest order.

    Every (config, utterance) pair is one task, config by config and in
    manifest order within each. With ``jobs`` above one, the tasks
    stream through one pool of worker processes, so no config waits
    for the slowest utterance of the one before it. ``configs`` is
    shipped to each worker once, as one object, so configs that share a
    successor table or tries (as a grid search's do) still share them
    there. The first unreadable or malformed logits file aborts the run
    with an error naming it.
    """
    paths = [str(u.logits_path) for u in utterances]
    tasks = [(run, path) for run in range(len(configs)) for path in paths]
    if jobs > 1 and len(tasks) > 1:
        workers = min(jobs, len(tasks))
        chunk = max(1, len(paths) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(configs,),
        ) as pool:
            transcripts = list(pool.map(_decode_task, tasks, chunksize=chunk))
    else:
        transcripts = [_decode_file(path, configs[run]) for run, path in tasks]
    n = len(paths)
    return [transcripts[run * n:(run + 1) * n] for run in range(len(configs))]


def _references(
    utterances: Sequence[Utterance],
) -> tuple[list[list[str]], list[list[bool]]]:
    """Reference words and jargon masks, checked before any decode. An
    empty corpus is refused, and so is one whose references hold no
    word: its error rates would divide by zero."""
    if not utterances:
        raise ValueError("the manifest has no utterances")
    refs = []
    masks = []
    for utt in utterances:
        if utt.reference is None:
            raise ValueError(f"utterance {utt.id!r} has no reference")
        refs.append(list(utt.reference))
        masks.append(
            list(utt.jargon_mask)
            if utt.jargon_mask is not None
            else [False] * len(utt.reference)
        )
    if not any(word for ref in refs for word in ref):
        raise ValueError("no reference in the manifest holds a word")
    return refs, masks


def _rates(
    refs: list[list[str]],
    masks: list[list[bool]],
    transcripts: Sequence[ColoredTranscript],
) -> tuple[float, float, float | None]:
    hyps = [[w for w, _ in t.words] for t in transcripts]
    return wer(refs, hyps), cer(refs, hyps), jargon_wer(refs, masks, hyps)


def evaluate(
    corpus_name: str,
    utterances: Sequence[Utterance],
    methods: Sequence[tuple[str, DecoderConfig]],
    jobs: int = 1,
    configs: Sequence[dict | None] | None = None,
) -> EvalReport:
    """Decode the corpus once per distinct decoder config of the ``(name,
    decoder config)`` methods, every decode through one
    ``decode_utterances`` call, and tabulate error rates, one row per
    method in order. A corpus with no utterances is refused."""
    refs, masks = _references(utterances)
    distinct = {id(cfg): cfg for _, cfg in methods}
    runs = dict(
        zip(distinct, decode_utterances(utterances, list(distinct.values()), jobs))
    )
    results = []
    for i, (name, cfg) in enumerate(methods):
        w, c, jw = _rates(refs, masks, runs[id(cfg)])
        results.append(
            MethodResult(
                method=name,
                wer=w,
                cer=c,
                jargon_wer=jw,
                utterances=len(utterances),
                config=configs[i] if configs else None,
            )
        )
    return EvalReport(corpus=corpus_name, results=results)


@dataclass
class GridSearchResult:
    """A grid search's rows and its best point. It holds no decoder
    config, so results kept in bulk keep no tries or models alive."""

    kind: str
    best: GridPoint
    wer: float
    cer: float
    jargon_wer: float | None
    rows: list[tuple[GridPoint, float, float, float | None]]


def run_grid_search(
    kind: str,
    utterances: Sequence[Utterance],
    lexicons: Sequence[Sequence[str]],
    models: Sequence[NGramModel],
    grid: GridSpec,
    alphabet: ColoredAlphabet,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    jobs: int = 1,
    calibration: Sequence[tuple[float, float, bool]] | None = None,
) -> GridSearchResult:
    """Try every grid point on a validation corpus and keep the best.

    Every point's decoder config is built here before the first decode,
    and every point's decodes go through one ``decode_utterances`` call,
    so with ``jobs`` above one they share one worker pool. The configs
    share one alphabet, one set of tries and one successor table;
    coloring points also share one colored merge of ``models``, and bin
    points one fitted table per bin count. A point costs only its
    scorer and its config. Ranking is (WER, CER, enumeration order).
    The bin method fits one table per bin count from ``calibration``. A
    grid with no points, or a corpus with no utterances, is refused.
    """
    return _grid_search(
        kind, utterances, lexicons, models, grid, alphabet, beam_width, jobs,
        calibration,
    )[0]


def _grid_search(
    kind, utterances, lexicons, models, grid, alphabet, beam_width, jobs, calibration
) -> tuple[GridSearchResult, DecoderConfig]:
    """``run_grid_search``'s result, and the config it built for its best
    point, ready to decode another corpus."""
    # every point's config is validated, every reference found, every
    # bin table fitted, the tries built and every scorer built before
    # the first decode
    points = list(grid.points(kind))
    if not points:
        raise ValueError(f"the {kind} grid has no points")
    refs, masks = _references(utterances)
    tables: dict[int | None, BinTable] = {}
    if kind == "bins":
        if calibration is None:
            raise MissingBinTable("bin grid search needs calibration pairs")
        for point in points:
            if point.num_bins not in tables:
                tables[point.num_bins] = fit_bin_table(calibration, point.num_bins)
    ab, tries = _build_grammar(kind, lexicons, alphabet)
    # point 0's scorer, built first, refuses a missing model or a
    # colliding colored n-gram as every point's would; the coloring
    # points then share its merged model
    first = make_scorer(
        kind, models, points[0].config, tables.get(points[0].num_bins),
        ab.num_colors,
    )
    base = DecoderConfig(ab, tries, first, beam_width)
    configs = [base] + [
        base.with_scorer(
            ColoringScorer(point.config, first.merged, first.num_colors)
            if kind == "coloring"
            else make_scorer(kind, models, point.config, tables.get(point.num_bins))
        )
        for point in points[1:]
    ]

    runs = decode_utterances(utterances, configs, jobs)
    rows = [
        (point, *_rates(refs, masks, transcripts))
        for point, transcripts in zip(points, runs)
    ]
    # ``min`` keeps the first of equal (WER, CER) keys: enumeration order
    best = min(range(len(rows)), key=lambda i: rows[i][1:3])
    point, w, c, jw = rows[best]
    return GridSearchResult(kind, point, w, c, jw, rows), configs[best]


# reduced grid for quick method comparisons; the full defaults above are
# what a real tuning run would sweep
COMPARISON_GRID = GridSpec(
    alphas=(0.5, 1.0),
    betas=(0.0,),
    lams=(0.25, 0.5, 0.75),
    word_penalties=(-10.0,),
    subword_penalties=(0.0, -3.0),
    bin_counts=(53,),
)


def run_method_comparison(
    language_seed: int,
    kinds: Sequence[str] = ("coloring", "linear", "loglinear", "general"),
    num_test: int = 200,
    num_validation: int = 40,
    jargon_rate: float = 0.3,
    noise_level: float = 0.25,
    grid: GridSpec | None = None,
    beam_width: int = 16,
    jobs: int = 1,
    workdir=None,
) -> tuple[EvalReport, dict[str, GridSearchResult]]:
    """Synthesize one language, tune each method on a validation split,
    score the tuned methods on a held-out test split.

    Validation and test share the language (lexicons, chain, true
    models) but sample disjoint sentences. Each method's test decodes
    use the decoder config its grid search built for its best point.
    The splits are written under ``workdir``, or under a temporary
    directory removed on return. Returns the test report plus each
    method's grid search outcome.
    """
    if grid is None:
        grid = COMPARISON_GRID

    def spec(num_sentences: int, offset: int) -> SynthesisSpec:
        return SynthesisSpec(
            num_sentences=num_sentences,
            jargon_insertion_rate=jargon_rate,
            noise_level=noise_level,
            frames_per_char=1,
            rng_seed=language_seed + offset,
            language_seed=language_seed,
        )

    scratch = contextlib.nullcontext(workdir)
    if workdir is None:
        scratch = tempfile.TemporaryDirectory(prefix="colordecode-")
    # the test split is decoded while its logits files exist
    with scratch as root:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        val_utts, lang = synthesize_corpus(
            spec(num_validation, 1_000_000), root / "validation"
        )
        test_utts, _ = synthesize_corpus(spec(num_test, 2_000_000), root / "test")
        general, jargon = language_models(lang)
        lexicons = [lang.lexicons.general, lang.lexicons.jargon]
        alphabet = default_alphabet(2)

        searches: dict[str, GridSearchResult] = {}
        tuned: dict[str, DecoderConfig] = {}
        # a repeated kind is searched once and reported once per entry
        for kind in dict.fromkeys(kinds):
            models = [(general, jargon)[i] for i in KIND_MODELS[kind]]
            calibration = None
            if kind == "bins":
                calibration = calibration_pairs(val_utts, models, seed=language_seed)
            searches[kind], tuned[kind] = _grid_search(
                kind, val_utts, lexicons, models, grid, alphabet, beam_width,
                jobs, calibration,
            )

        report = evaluate(
            f"synthetic(language_seed={language_seed})", test_utts,
            [(kind, tuned[kind]) for kind in kinds], jobs=jobs,
            configs=[searches[kind].best.describe(kind) for kind in kinds],
        )
    return report, searches


def calibration_pairs(
    utterances: Sequence[Utterance],
    models: Sequence[NGramModel],
    seed: int = 0,
) -> list[tuple[float, float, bool]]:
    """Linear-probability pairs for fitting a bin table.

    Walks each reference through both models: the true next word gives a
    positive pair, three sampled vocabulary words give negatives under
    the same histories. Unknown words contribute probability zero rather
    than a penalty, since calibration should see raw model beliefs.
    """
    if len(models) != 2:
        raise ValueError("calibration needs exactly two models")
    general, domain = models
    vocab = sorted(general.vocabulary | domain.vocabulary)
    rng = random.Random(f"calibration:{seed}")
    neg_inf = float("-inf")

    pairs: list[tuple[float, float, bool]] = []
    for utt in utterances:
        if utt.reference is None:
            continue
        st_g = EMPTY_STATE
        st_j = EMPTY_STATE
        for word in utt.reference:
            lg, ng = general.score_word(st_g, word, oov_log10=neg_inf)
            lj, nj = domain.score_word(st_j, word, oov_log10=neg_inf)
            pairs.append((10.0 ** lg, 10.0 ** lj, True))
            for _ in range(_NEGATIVES_PER_WORD):
                other = rng.choice(vocab)
                if other == word:
                    continue
                og, _ = general.score_word(st_g, other, oov_log10=neg_inf)
                oj, _ = domain.score_word(st_j, other, oov_log10=neg_inf)
                pairs.append((10.0 ** og, 10.0 ** oj, False))
            st_g, st_j = ng, nj
    return pairs
