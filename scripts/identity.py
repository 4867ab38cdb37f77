#!/usr/bin/env python3
"""Byte-identity check of the decoder and model loading against another
checkout.

Decodes one fixed set of inputs with the ``colordecode`` package of this
working tree and with the one under ``--base DIR``, each in its own
interpreter, and hashes ``repr`` of every transcript, ``DecodeStats``,
error-rate triple and grid search outcome, in order, into one SHA-256
per tree, and one per section of the set below (each named by the
function that yields it). Prints every digest of both trees, then
``equal`` or the sections whose digests differ, and exits 1 if the
totals differ. Both sides are decoded on every run; no output is
stored.

The decode set:

- 4,000 ``oracle.random_instance(max_frames=6, max_words=4)`` problems,
  each decoded at beams 1, 2, 3 and 50; every fifth is decoded
  unconstrained (``tries=None``); after each transcript, its decode's
  ``DecodeStats`` (beams expanded and extensions spawned per frame), so
  the search's effort is held to the base bit for bit as well;
- every ``SCORER_KINDS`` entry on a synthetic corpus of language seed 1,
  at beams 4, 16 and 64, with off-lexicon spelling off and with subword
  penalties 0, -3 and +1 (an off-lexicon character then scores above an
  on-lexicon one), all at word bonus 0, and with spelling off and
  penalty -3 at word bonus +0.5 (a completed word raises the score);
- the same corpus with every fifth general word left out of the general
  lexicon (the models still know it), by every ``SCORER_KINDS`` entry at
  beams 4, 16 and 64, with subword penalties 0 and -3: the decoder must
  then spell and score words a model knows although no lexicon has them;
- the same corpus by the ``coloring`` scorer at beams 4, 16 and 64,
  with subword penalty -3, over models that also know words the
  alphabet cannot spell (a lexicon word capitalized, and one with a
  character outside the alphabet): no spelling can reach those words,
  so they withhold no color's unknown-word price (the left-out general
  words above are the case where a price is withheld);
- the same corpus decoded unconstrained (``tries=None``, where every
  grammar state offers all 27 characters) by the ``none`` and
  ``general`` scorers at word bonuses 0 and +0.5, at beams 4, 16 and 64;
- after each corpus config's decodes, their pooled WER, CER and jargon
  WER against the references, by ``float.hex``, so the metrics are
  held to the base bit for bit as well;
- one synthetic utterance of 400 words (language seed 1), decoded by
  the ``coloring`` scorer at beam 64 with off-lexicon spelling off and
  with subword penalty -3, and by the ``general`` scorer unconstrained
  at beam 16, so long word histories and many frames are held to the
  base bit for bit;
- the rows and the best point of a coloring ``run_grid_search`` with
  off-lexicon spelling on (an 8-point grid at beam 16, on a corpus
  synthesized from the same spec), at ``jobs`` 1 and 2, so the worker
  pool is held to the serial pass bit for bit;
- the rows and the best point of a ``bins`` ``run_grid_search`` over
  bin counts 53 and 100 (an 8-point grid at beam 16, on the same
  corpus, calibrated on it), at ``jobs`` 1 and 2: its points share one
  grammar with off-lexicon spelling off, and their tables differ;
- the test report and every grid search of ``run_method_comparison``
  over every ``SCORER_KINDS`` entry (language seed 1, 12 validation
  and 24 test sentences, beam 8), at ``jobs`` 1 and 2, so the pool that
  ``evaluate`` shares among methods is held to the serial pass bit for
  bit, and once more at ``jobs`` 1 with its splits written under a
  ``workdir``;
- ``parse_arpa`` of the synthetic models of language seed 1 and of a
  seeded random 3-gram model over 200 words, and three
  ``merge_colored`` merges of them, one of which collides (the
  message): entries in order, floats by ``float.hex``;
- the message and line of ``parse_arpa``'s error, if any, over 400
  edits of the random model's text, each replacing or dropping one
  line (a bad or NaN or infinite float, a wrong field count, a stray
  header, a duplicate line, a renamed token);
- every ``SCORER_KINDS`` entry's ``GridSpec.points`` and each point's
  ``describe`` dict, over four grids: the default grid,
  ``COMPARISON_GRID``, one with two values in every field and one with
  one value in every field (these two hold no value that a kind takes
  by default for a field it does not read), so the grid points and the
  hyperparameters each kind reads are held to the base bit for bit;
- per ``SCORER_KINDS`` entry, the scorer config, bin table and beam
  width of the decoder config ``cli._decoder_config`` builds from
  ``decode`` flags over files written from the corpus above: with none
  of the flags the kind reads, with each alone, and with all of them,
  over both lexicons and, but for coloring, without a lexicon, so the
  CLI's settings and their defaults are held to the base bit for bit.
  A bin table is hashed by its content, not its layout: its bin count,
  its ranges and its filled cells in index order, values by
  ``float.hex``.

    python3 scripts/identity.py --base ../colordecode-parent
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
RANDOM_INSTANCES = 4000
RANDOM_BEAMS = (1, 2, 3, 50)
CORPUS_SENTENCES = 24
# (subword penalty, word bonus) per corpus scorer config
CORPUS_CONFIGS = (
    (None, 0.0), (0.0, 0.0), (-3.0, 0.0), (1.0, 0.0), (None, 0.5), (-3.0, 0.5)
)
CORPUS_BEAMS = (4, 16, 64)
LONG_WORDS = 400
# subword penalties of the long utterance's coloring decodes
LONG_PENALTIES = (None, -3.0)
LONG_COLORING_BEAM = 64
LONG_UNCONSTRAINED_BEAM = 16
# (subword penalty, word bonus) per config of the corpus whose general
# lexicon lacks every fifth word
THINNED_CONFIGS = ((0.0, 0.0), (-3.0, 0.0))
# subword penalty of the coloring decodes over models that know words
# the alphabet cannot spell
STRANGER_PENALTY = -3.0
UNCONSTRAINED_KINDS = ("none", "general")
UNCONSTRAINED_BETAS = (0.0, 0.5)
GRID_JOBS = (1, 2)
GRID_BEAM = 16
GRID_BIN_COUNTS = (53, 100)
RANDOM_MODEL_SEED = 16
RANDOM_MODEL_WORDS = 200
BAD_ARPA_TEXTS = 400
# GridSpec fields of the two-valued and the one-valued grid
TWO_VALUED_GRID = {
    "alphas": (0.5, 2.0), "betas": (0.0, 1.5), "lams": (0.25, 1.0),
    "word_penalties": (-5.0, -20.0), "subword_penalties": (-2.0, 0.0),
    "bin_counts": (7, 9),
}
ONE_VALUED_GRID = {
    "alphas": (2.0,), "betas": (-1.0,), "lams": (0.0,),
    "word_penalties": (-3.0,), "subword_penalties": (1.0,), "bin_counts": (4,),
}
# a value for each setting flag of decode, and the flags each kind reads
CLI_VALUES = {
    "--alpha": "0.7", "--beta": "0.4", "--lambda": "0.8",
    "--unk-word-penalty": "-5,-20", "--unk-subword-penalty": "-3",
    "--bins": "7", "--calibration-seed": "3", "--beam-width": "12",
}
_READ_BY_ALL = ("--beta", "--unk-subword-penalty", "--beam-width")
_READ_WITH_MODELS = ("--alpha", "--unk-word-penalty") + _READ_BY_ALL
CLI_KIND_FLAGS = {
    "none": _READ_BY_ALL,
    "general": _READ_WITH_MODELS,
    "jargon": _READ_WITH_MODELS,
    "linear": ("--lambda",) + _READ_WITH_MODELS,
    "loglinear": ("--lambda",) + _READ_WITH_MODELS,
    "bins": ("--bins", "--calibration-seed") + _READ_WITH_MODELS,
    "bayes": _READ_WITH_MODELS,
    "coloring": _READ_WITH_MODELS,
}


def _corpus_spec():
    from colordecode import corpus

    return corpus.SynthesisSpec(
        num_sentences=CORPUS_SENTENCES,
        jargon_insertion_rate=0.3,
        noise_level=0.25,
        frames_per_char=1,
        rng_seed=1,
        language_seed=1,
    )


def _random_decodes():
    from colordecode.decoder import DecodeStats, DecoderConfig, decode
    from colordecode.oracle import random_instance

    rng = random.Random(2024)
    for i in range(RANDOM_INSTANCES):
        inst = random_instance(rng, max_frames=6, max_words=4)
        tries = None if i % 5 == 4 else inst.tries
        for width in RANDOM_BEAMS:
            config = DecoderConfig(inst.alphabet, tries, inst.scorer, width)
            stats = DecodeStats()
            yield decode(inst.logits, config, stats)
            yield stats


def _corpus_decodes():
    from colordecode import corpus, evaluation, scorers
    from colordecode.lexicon import ColoredAlphabet

    spec = _corpus_spec()
    lang = corpus.build_language(1)
    lexicons = [lang.lexicons.general, lang.lexicons.jargon]
    thinned = [
        [w for i, w in enumerate(lang.lexicons.general) if i % 5 != 4],
        lang.lexicons.jargon,
    ]
    general, jargon = corpus.language_models(lang)
    template = ColoredAlphabet(tuple(corpus.LETTERS + " "), 1, " ")
    sentences = corpus.sample_sentences(spec, lang)
    logits = [
        corpus.synthesize_logits(" ".join(words), template, 0.25, 1)
        for words, _ in sentences
    ]
    # the bin table is fitted as the CLI fits it, from references only
    references = [
        corpus.Utterance(f"utt{i:04d}", Path("."), words, mask)
        for i, (words, mask) in enumerate(sentences)
    ]
    pairs = evaluation.calibration_pairs(references, [general, jargon])
    table = scorers.fit_bin_table(pairs, 53)
    kind_models = _kind_models()
    for words, configs in ((lexicons, CORPUS_CONFIGS), (thinned, THINNED_CONFIGS)):
        for kind in scorers.SCORER_KINDS:
            models = [(general, jargon)[i] for i in kind_models[kind]]
            for penalty, beta in configs:
                config = scorers.ScorerConfig(
                    beta=beta, unknown_subword_penalty=penalty
                )
                for width in CORPUS_BEAMS:
                    runtime = evaluation.build_runtime(
                        kind, words, models, config, template, width,
                        table if kind == "bins" else None,
                    )
                    cfg = runtime.decoder_config()
                    yield from _decode_set(cfg, logits, sentences)
    strangers = [_with_strangers(general), _with_strangers(jargon)]
    config = scorers.ScorerConfig(unknown_subword_penalty=STRANGER_PENALTY)
    for width in CORPUS_BEAMS:
        runtime = evaluation.build_runtime(
            "coloring", lexicons, strangers, config, template, width
        )
        yield from _decode_set(runtime.decoder_config(), logits, sentences)
    for kind in UNCONSTRAINED_KINDS:
        models = [(general, jargon)[i] for i in kind_models[kind]]
        for beta in UNCONSTRAINED_BETAS:
            config = scorers.ScorerConfig(beta=beta)
            for width in CORPUS_BEAMS:
                runtime = evaluation.build_runtime(
                    kind, None, models, config, template, width
                )
                yield from _decode_set(runtime.decoder_config(), logits, sentences)


def _kind_models():
    """Each scorer kind's models as places in (general, jargon): the
    package's ``KIND_MODELS``, or, in a checkout that predates that
    table, the places its ``run_method_comparison`` picked."""
    from colordecode import evaluation, scorers

    if hasattr(scorers, "KIND_MODELS"):
        return scorers.KIND_MODELS
    return {
        kind: tuple(evaluation._method_models(kind, 0, 1))
        for kind in scorers.SCORER_KINDS
    }


def _with_strangers(model):
    """``model`` with two more unigrams that the lowercase alphabet
    cannot spell: its first word capitalized, and its first word with an
    "é" added."""
    from colordecode.ngram_lm import NGramModel

    first = next(iter(model.entries))[0]
    entries = dict(model.entries)
    for word in (first.capitalize(), first + "\u00e9"):
        entries[(word,)] = (-2.0, None)
    return NGramModel(model.max_order, entries)


def _long_decodes():
    """One ``LONG_WORDS``-word utterance of language seed 1, decoded by
    coloring per ``LONG_PENALTIES`` entry and by the ``general`` scorer
    unconstrained."""
    from colordecode import corpus, evaluation, scorers
    from colordecode.decoder import decode
    from colordecode.lexicon import ColoredAlphabet

    spec = corpus.SynthesisSpec(
        num_sentences=1,
        jargon_insertion_rate=0.3,
        noise_level=0.25,
        frames_per_char=1,
        rng_seed=2,
        min_words=LONG_WORDS,
        max_words=LONG_WORDS,
        language_seed=1,
    )
    lang = corpus.build_language(1)
    lexicons = [lang.lexicons.general, lang.lexicons.jargon]
    general, jargon = corpus.language_models(lang)
    template = ColoredAlphabet(tuple(corpus.LETTERS + " "), 1, " ")
    [(words, _mask)] = corpus.sample_sentences(spec, lang)
    logits = corpus.synthesize_logits(" ".join(words), template, 0.25, 1)
    for penalty in LONG_PENALTIES:
        config = scorers.ScorerConfig(unknown_subword_penalty=penalty)
        runtime = evaluation.build_runtime(
            "coloring", lexicons, [general, jargon], config, template,
            LONG_COLORING_BEAM,
        )
        yield decode(logits, runtime.decoder_config())
    runtime = evaluation.build_runtime(
        "general", None, [general], scorers.ScorerConfig(), template,
        LONG_UNCONSTRAINED_BEAM,
    )
    yield decode(logits, runtime.decoder_config())


def _decode_set(cfg, logits, sentences):
    """Each transcript of ``logits`` decoded with ``cfg``, then their
    pooled WER, CER and jargon WER against ``sentences`` by
    ``float.hex`` (None for no masked word)."""
    from colordecode.decoder import decode
    from colordecode.metrics import cer, jargon_wer, wer

    hyps = []
    for matrix in logits:
        transcript = decode(matrix, cfg)
        hyps.append([w for w, _ in transcript.words])
        yield transcript
    refs = [list(words) for words, _ in sentences]
    masks = [list(mask) for _, mask in sentences]
    jw = jargon_wer(refs, masks, hyps)
    yield (
        wer(refs, hyps).hex(),
        cer(refs, hyps).hex(),
        None if jw is None else jw.hex(),
    )


def _grid_searches():
    """``(rows, best point)`` of one off-lexicon coloring grid search
    and one ``bins`` grid search per ``GRID_JOBS`` entry."""
    from colordecode import corpus, evaluation

    grid = evaluation.GridSpec(
        alphas=(0.5, 1.0),
        betas=(0.0, 0.5),
        word_penalties=(-10.0,),
        subword_penalties=(0.0, -3.0),
        bin_counts=GRID_BIN_COUNTS,
    )
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        utts, lang = corpus.synthesize_corpus(_corpus_spec(), Path(tmp))
        lexicons = [lang.lexicons.general, lang.lexicons.jargon]
        models = list(corpus.language_models(lang))
        calibration = evaluation.calibration_pairs(utts, models)
        for kind in ("coloring", "bins"):
            for jobs in GRID_JOBS:
                result = evaluation.run_grid_search(
                    kind, utts, lexicons, models, grid,
                    corpus.default_alphabet(1), beam_width=GRID_BEAM, jobs=jobs,
                    calibration=calibration if kind == "bins" else None,
                )
                yield result.rows, result.best


def _method_comparisons():
    """The test report and the grid searches of one
    ``run_method_comparison`` over every scorer kind per ``GRID_JOBS``
    entry, in a temporary directory, then of one more at ``jobs`` 1
    with its splits under a ``workdir``."""
    from colordecode import evaluation, scorers

    def compare(jobs, workdir=None):
        return evaluation.run_method_comparison(
            1, kinds=scorers.SCORER_KINDS, num_test=24, num_validation=12,
            beam_width=8, jobs=jobs, workdir=workdir,
        )

    for jobs in GRID_JOBS:
        yield from compare(jobs)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        yield from compare(1, workdir=tmp)


def _random_trigram_text() -> str:
    """ARPA text of a seeded random 3-gram model over 200 words."""
    from colordecode import ngram_lm

    rng = random.Random(RANDOM_MODEL_SEED)
    words = [f"w{i}" for i in range(RANDOM_MODEL_WORDS)]
    entries = {(w,): (rng.uniform(-5.0, -0.1), rng.uniform(-1.0, 0.0)) for w in words}
    entries[("w0",)] = (float("-inf"), 0.0)
    bigrams = []
    for _ in range(RANDOM_MODEL_WORDS * 10):
        key = (rng.choice(words), rng.choice(words))
        if key not in entries:
            entries[key] = (rng.uniform(-5.0, -0.1), rng.uniform(-1.0, 0.0))
            bigrams.append(key)
    for _ in range(RANDOM_MODEL_WORDS * 20):
        entries[rng.choice(bigrams) + (rng.choice(words),)] = (
            rng.uniform(-5.0, -0.1), None
        )
    return ngram_lm.serialize_arpa(ngram_lm.NGramModel(3, entries))


def _entries(model):
    """A model's order and its entries in order, floats by ``float.hex``."""
    return model.max_order, [
        (key, logprob.hex(), None if backoff is None else backoff.hex())
        for key, (logprob, backoff) in model.entries.items()
    ]


# per bad ARPA text, one line of the random model's text is replaced
# by one of these (``{}`` stands for the line's tokens), by the line
# before it, or by itself with its first token renamed, or is dropped
BAD_ENTRY_LINES = (
    "nope\t{}", "nan\t{}", "inf\t{}", "0.5\t{}", "-0.5\t{}\tinf",
    "-0.5\t{}\t-inf", "-0.5\t{}\tnan", "-0.5\t{}\tx", "-0.5",
    "-0.5\t{}\t-0.1\t-0.1", "\\end\\", "\\9-grams:", "\\2-grams:",
    "ngram 1=3", "junk",
)


def _bad_arpa_texts(text: str):
    rng = random.Random(RANDOM_MODEL_SEED)
    lines = text.splitlines()
    for _ in range(BAD_ARPA_TEXTS):
        at = rng.randrange(1, len(lines))
        bad = list(lines)
        choice = rng.randrange(len(BAD_ENTRY_LINES) + 3)
        if choice < len(BAD_ENTRY_LINES):
            tokens = " ".join(lines[at].split("\t")[1:2])
            bad[at] = BAD_ENTRY_LINES[choice].replace("{}", tokens)
        elif choice == len(BAD_ENTRY_LINES):
            bad[at] = lines[at - 1]
        elif choice == len(BAD_ENTRY_LINES) + 1:
            bad[at] = lines[at].replace("\tw", "\tzz", 1)
        else:
            del bad[at]
        yield "\n".join(bad)


def _model_outputs():
    """``parse_arpa`` of the synthetic models of language seed 1 and of
    a seeded random 3-gram model, ``merge_colored`` merges of them (one
    colliding), and the message and line of the error, if any, over
    each of ``BAD_ARPA_TEXTS`` edits of the random model's text."""
    from colordecode import corpus, ngram_lm

    lang = corpus.build_language(1)
    texts = [ngram_lm.serialize_arpa(m) for m in corpus.language_models(lang)]
    texts.append(_random_trigram_text())
    models = [ngram_lm.parse_arpa(text) for text in texts]
    for model in models:
        yield _entries(model)
    tail = list(models[2].entries)[-50:]
    late = ngram_lm.NGramModel(3, {key: models[2].entries[key] for key in tail})
    for pairs in (
        list(zip(models[:2], (0, 1))),
        list(zip(models, (0, 1, 2))),
        list(zip(models, (1, 0, 1))) + [(late, 1)],
    ):
        try:
            yield _entries(ngram_lm.merge_colored(pairs))
        except ngram_lm.DuplicateColoredToken as exc:
            yield str(exc)
    for bad in _bad_arpa_texts(texts[-1]):
        try:
            ngram_lm.parse_arpa(bad)
            yield None
        except ngram_lm.MalformedArpa as exc:
            yield str(exc), exc.line


def _grid_points():
    """Every scorer kind's grid points, then each point's ``describe``
    dict, over the default grid, ``COMPARISON_GRID``,
    ``TWO_VALUED_GRID`` and ``ONE_VALUED_GRID``."""
    from colordecode import evaluation, scorers

    grids = (
        evaluation.GridSpec(),
        evaluation.COMPARISON_GRID,
        evaluation.GridSpec(**TWO_VALUED_GRID),
        evaluation.GridSpec(**ONE_VALUED_GRID),
    )
    for grid in grids:
        for kind in scorers.SCORER_KINDS:
            points = list(grid.points(kind))
            yield points
            for point in points:
                yield point.describe(kind)


def _cli_configs():
    """Per scorer kind and per set of the decode flags it reads, the
    scorer config, the bin table and the beam width of the decoder
    config ``cli._decoder_config`` builds, over lexicons, models and a
    calibration manifest written from the corpus of ``_corpus_spec``."""
    from colordecode import cli, corpus, ngram_lm, scorers

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        root = Path(tmp)
        _, lang = corpus.synthesize_corpus(_corpus_spec(), root)
        lexicons = (lang.lexicons.general, lang.lexicons.jargon)
        models = corpus.language_models(lang)
        lexicon_flags, lm_flags = [], []
        for name, words, model in zip(("general", "jargon"), lexicons, models):
            (root / f"{name}.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
            ngram_lm.save_arpa(model, root / f"{name}.arpa")
            lexicon_flags += ["--lexicon", str(root / f"{name}.txt")]
            lm_flags.append(["--lm", str(root / f"{name}.arpa")])
        calibration = ["--calibration-manifest", str(root / "manifest.jsonl")]
        parser = cli.build_parser()
        kind_models = _kind_models()
        for kind in scorers.SCORER_KINDS:
            base = ["decode", "unread.ctcl", "--fusion", kind,
                    *(a for i in kind_models[kind] for a in lm_flags[i]),
                    *(calibration if kind == "bins" else [])]
            read = CLI_KIND_FLAGS[kind]
            runs = [(lexicon_flags, f) for f in [(), *((f,) for f in read), read]]
            if kind != "coloring":
                spelled = "--unk-subword-penalty"
                runs.append(([], tuple(f for f in read if f != spelled)))
            for lexicon_args, flags in runs:
                values = [a for flag in flags for a in (flag, CLI_VALUES[flag])]
                args = parser.parse_args(base + lexicon_args + values)
                cfg = cli._decoder_config(args)
                table = _table_content(getattr(cfg.scorer, "bin_table", None))
                yield kind, bool(lexicon_args), flags, cfg.scorer.config, table
                yield cfg.beam_width


def _table_content(table):
    """``(num_bins, g_range, j_range, ((gi, ji, value hex), ...))`` over
    a bin table's filled cells in index order, or None. Its ``cells``
    map each filled cell to its value or, in a checkout that predates
    that, nest every cell by row with None for an empty one."""
    if table is None:
        return None
    cells = table.cells
    if not isinstance(cells, dict):
        cells = {
            (gi, ji): value
            for gi, row in enumerate(cells)
            for ji, value in enumerate(row)
            if value is not None
        }
    filled = tuple((gi, ji, cells[gi, ji].hex()) for gi, ji in sorted(cells))
    return table.num_bins, table.g_range, table.j_range, filled


def digest() -> str:
    """Lines: the path of the package that decoded the set, then the
    SHA-256 and output count of the whole set (``total``) and of each
    section, named by its function."""
    import colordecode

    sections = (
        _random_decodes,
        _corpus_decodes,
        _long_decodes,
        _grid_searches,
        _method_comparisons,
        _model_outputs,
        _grid_points,
        _cli_configs,
    )
    total = hashlib.sha256()
    count = 0
    lines = []
    for section in sections:
        sha = hashlib.sha256()
        outputs = 0
        for output in section():
            line = repr(output).encode() + b"\n"
            sha.update(line)
            total.update(line)
            outputs += 1
        lines.append(f"{section.__name__} {sha.hexdigest()} {outputs}")
        count += outputs
    lines.insert(0, f"total {total.hexdigest()} {count}")
    return "\n".join([str(Path(colordecode.__file__).parent)] + lines)


def _start(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", "import identity; print(identity.digest())"],
        cwd=SCRIPTS,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    parser.add_argument("--base", required=True, type=Path,
                        help="root of the checkout to compare against")
    args = parser.parse_args(argv)

    trees = {"working tree": SCRIPTS.parent, "base": args.base.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "colordecode").is_dir():
            print(f"error: {tree} has no src/colordecode", file=sys.stderr)
            return 2
    # both sides at once, one process each
    procs = {name: _start(tree) for name, tree in trees.items()}
    outputs = {name: proc.communicate()[0] for name, proc in procs.items()}
    # per tree, (section, digest) pairs, the total first
    digests = {}
    for name, out in outputs.items():
        if procs[name].returncode != 0:
            print(f"error: decoding with the {name} failed", file=sys.stderr)
            return 2
        package, *lines = out.strip().splitlines()
        if not Path(package).is_relative_to(trees[name]):
            print(f"error: the {name} imported {package}", file=sys.stderr)
            return 2
        print(f"{name}: {package}")
        digests[name] = []
        for line in lines:
            section, sha, count = line.split()
            digests[name].append((section, sha))
            print(f"  {section:<20} {sha}  {count} outputs")
    work, base = digests.values()
    moved = [section for (section, a), (_, b) in zip(work, base) if a != b]
    if moved:
        print("differ: " + " ".join(s for s in moved if s != "total"))
    else:
        print("equal")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
